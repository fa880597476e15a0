module Q = Temporal.Q

let version = 1

type request =
  | Ping
  | Register of {
      object_id : string;
      owner : string;
      roles : string list;
      program : Sral.Ast.t;
    }
  | Arrive of { object_id : string; server : string }
  | Depart of { object_id : string }
  | Check of { object_id : string; access : Sral.Access.t }
  | Activate of { object_id : string; role : string }
  | Join of { object_id : string; team : string }
  | Subscribe

type reply =
  | Ack of { seq : int }
  | Verdict of { seq : int; verdict : Obs.Verdict.t }
  | Rejected of { seq : int; reason : string }
  | Shed of { seq : int }
  | Event of Obs.Trace.event

type error =
  | Truncated
  | Bad_version of int
  | Bad_tag of int
  | Malformed of string

let describe = function
  | Truncated -> "truncated payload"
  | Bad_version v -> Printf.sprintf "unsupported wire version %d" v
  | Bad_tag t -> Printf.sprintf "unknown message tag %d" t
  | Malformed msg -> Printf.sprintf "malformed payload: %s" msg

(* ------------------------------------------------------------------ *)
(* Writer *)

let w_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let w_u32 buf v =
  w_u8 buf (v lsr 24);
  w_u8 buf (v lsr 16);
  w_u8 buf (v lsr 8);
  w_u8 buf v

let w_str buf s =
  w_u32 buf (String.length s);
  Buffer.add_string buf s

let w_list buf w xs =
  w_u32 buf (List.length xs);
  List.iter (w buf) xs

let w_q buf q = w_str buf (Q.to_string q)

let w_access buf (a : Sral.Access.t) =
  w_str buf (Sral.Access.operation_name a.op);
  w_str buf a.resource;
  w_str buf a.server

let w_verdict buf (v : Obs.Verdict.t) =
  match v with
  | Granted -> w_u8 buf 0
  | Denied (Rbac_denied why) ->
      w_u8 buf 1;
      w_str buf why
  | Denied (Spatial_violation { binding; detail }) ->
      w_u8 buf 2;
      w_str buf binding;
      w_str buf detail
  | Denied (Temporal_expired { binding; spent }) ->
      w_u8 buf 3;
      w_str buf binding;
      w_q buf spent
  | Denied (Not_active why) ->
      w_u8 buf 4;
      w_str buf why
  | Denied Not_arrived -> w_u8 buf 5
  | Denied (Server_unavailable s) ->
      w_u8 buf 6;
      w_str buf s

let encode_request req =
  let buf = Buffer.create 64 in
  w_u8 buf version;
  (match req with
  | Ping -> w_u8 buf 0
  | Register { object_id; owner; roles; program } ->
      w_u8 buf 1;
      w_str buf object_id;
      w_str buf owner;
      w_list buf w_str roles;
      w_str buf (Sral.Pretty.to_string program)
  | Arrive { object_id; server } ->
      w_u8 buf 2;
      w_str buf object_id;
      w_str buf server
  | Depart { object_id } ->
      w_u8 buf 3;
      w_str buf object_id
  | Check { object_id; access } ->
      w_u8 buf 4;
      w_str buf object_id;
      w_access buf access
  | Activate { object_id; role } ->
      w_u8 buf 5;
      w_str buf object_id;
      w_str buf role
  | Join { object_id; team } ->
      w_u8 buf 6;
      w_str buf object_id;
      w_str buf team
  | Subscribe -> w_u8 buf 7);
  Buffer.contents buf

let encode_reply reply =
  let buf = Buffer.create 64 in
  w_u8 buf version;
  (match reply with
  | Ack { seq } ->
      w_u8 buf 0;
      w_u32 buf seq
  | Verdict { seq; verdict } ->
      w_u8 buf 1;
      w_u32 buf seq;
      w_verdict buf verdict
  | Rejected { seq; reason } ->
      w_u8 buf 2;
      w_u32 buf seq;
      w_str buf reason
  | Shed { seq } ->
      w_u8 buf 3;
      w_u32 buf seq
  | Event ev ->
      w_u8 buf 4;
      w_str buf (Obs.Export.to_line ev));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reader.  Decoding is total: local exception, caught at the border. *)

exception Fail of error

let decode_with read s =
  let n = String.length s in
  let pos = ref 0 in
  let r_u8 () =
    if !pos >= n then raise (Fail Truncated)
    else begin
      let b = Char.code s.[!pos] in
      incr pos;
      b
    end
  in
  let r_u32 () =
    let a = r_u8 () in
    let b = r_u8 () in
    let c = r_u8 () in
    let d = r_u8 () in
    (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
  in
  let r_str () =
    let len = r_u32 () in
    if len > n - !pos then raise (Fail Truncated)
    else begin
      let v = String.sub s !pos len in
      pos := !pos + len;
      v
    end
  in
  let r_list r =
    let count = r_u32 () in
    (* an honest list of k elements needs at least k payload bytes;
       reject absurd counts before allocating *)
    if count > n - !pos then raise (Fail Truncated)
    else List.init count (fun _ -> r ())
  in
  let r_q () =
    let raw = r_str () in
    match Q.of_string raw with
    | q -> q
    | exception _ -> raise (Fail (Malformed (Printf.sprintf "bad rational %S" raw)))
  in
  match
    let v = r_u8 () in
    if v <> version then raise (Fail (Bad_version v));
    let value = read ~r_u8 ~r_u32 ~r_str ~r_list ~r_q in
    if !pos <> n then
      raise (Fail (Malformed (Printf.sprintf "%d trailing bytes" (n - !pos))));
    value
  with
  | value -> Ok value
  | exception Fail e -> Error e

let r_access ~r_str () =
  let op = Sral.Access.operation_of_name (r_str ()) in
  let resource = r_str () in
  let server = r_str () in
  Sral.Access.make ~op ~resource ~server

let decode_request s =
  decode_with
    (fun ~r_u8 ~r_u32:_ ~r_str ~r_list ~r_q:_ ->
      match r_u8 () with
      | 0 -> Ping
      | 1 ->
          let object_id = r_str () in
          let owner = r_str () in
          let roles = r_list (fun () -> r_str ()) in
          let text = r_str () in
          let program =
            match Sral.Parser.program text with
            | ast -> ast
            | exception _ ->
                raise (Fail (Malformed (Printf.sprintf "bad program %S" text)))
          in
          Register { object_id; owner; roles; program }
      | 2 ->
          let object_id = r_str () in
          let server = r_str () in
          Arrive { object_id; server }
      | 3 -> Depart { object_id = r_str () }
      | 4 ->
          let object_id = r_str () in
          let access = r_access ~r_str () in
          Check { object_id; access }
      | 5 ->
          let object_id = r_str () in
          let role = r_str () in
          Activate { object_id; role }
      | 6 ->
          let object_id = r_str () in
          let team = r_str () in
          Join { object_id; team }
      | 7 -> Subscribe
      | t -> raise (Fail (Bad_tag t)))
    s

let r_verdict ~r_u8 ~r_str ~r_q () : Obs.Verdict.t =
  match r_u8 () with
  | 0 -> Granted
  | 1 -> Denied (Rbac_denied (r_str ()))
  | 2 ->
      let binding = r_str () in
      let detail = r_str () in
      Denied (Spatial_violation { binding; detail })
  | 3 ->
      let binding = r_str () in
      let spent = r_q () in
      Denied (Temporal_expired { binding; spent })
  | 4 -> Denied (Not_active (r_str ()))
  | 5 -> Denied Not_arrived
  | 6 -> Denied (Server_unavailable (r_str ()))
  | t -> raise (Fail (Malformed (Printf.sprintf "unknown verdict tag %d" t)))

let decode_reply s =
  decode_with
    (fun ~r_u8 ~r_u32 ~r_str ~r_list:_ ~r_q ->
      match r_u8 () with
      | 0 -> Ack { seq = r_u32 () }
      | 1 ->
          let seq = r_u32 () in
          let verdict = r_verdict ~r_u8 ~r_str ~r_q () in
          Verdict { seq; verdict }
      | 2 ->
          let seq = r_u32 () in
          let reason = r_str () in
          Rejected { seq; reason }
      | 3 -> Shed { seq = r_u32 () }
      | 4 -> (
          let line = r_str () in
          match Obs.Export.of_line line with
          | Ok ev -> Event ev
          | Error msg ->
              raise (Fail (Malformed (Printf.sprintf "bad event: %s" msg))))
      | t -> raise (Fail (Bad_tag t)))
    s

(* ------------------------------------------------------------------ *)
(* JSONL debug codec (write-only). *)

module J = Obs.Export

let json_obj fields =
  let buf = Buffer.create 96 in
  J.obj buf fields;
  Buffer.contents buf

let raw s buf = Buffer.add_string buf s

let reply_to_line = function
  | Ack { seq } -> json_obj [ ("reply", J.jstr "ack"); ("seq", J.jint seq) ]
  | Verdict { seq; verdict } ->
      json_obj
        [
          ("reply", J.jstr "verdict");
          ("seq", J.jint seq);
          ("verdict", raw (J.verdict_to_json verdict));
        ]
  | Rejected { seq; reason } ->
      json_obj
        [
          ("reply", J.jstr "rejected");
          ("seq", J.jint seq);
          ("reason", J.jstr reason);
        ]
  | Shed { seq } -> json_obj [ ("reply", J.jstr "shed"); ("seq", J.jint seq) ]
  | Event ev ->
      json_obj [ ("reply", J.jstr "event"); ("event", raw (J.to_line ev)) ]
