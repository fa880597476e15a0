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

(* Untrusted text echoed into a reply is cut to a fixed prefix, so a
   peer cannot make a refusal as large as the request it refuses. *)
let quote = Sral.Clip.quote

let w_u8 buf v = Buffer.add_uint8 buf (v land 0xff)
let w_u32 buf v = Buffer.add_int32_be buf (Int32.of_int v)

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

let write_reply buf reply =
  w_u8 buf version;
  match reply with
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
      w_str buf (Obs.Export.to_line ev)

let encode_reply reply =
  let buf = Buffer.create 64 in
  write_reply buf reply;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reader: a cursor over [lim - pos] bytes of [src].  Decoding is
   total: local exception, caught at the border. *)

type cursor = { src : Bytes.t; mutable pos : int; lim : int }

exception Fail of error

let r_u8 c =
  if c.pos >= c.lim then raise (Fail Truncated)
  else begin
    let b = Bytes.get_uint8 c.src c.pos in
    c.pos <- c.pos + 1;
    b
  end

let r_u32 c =
  if c.lim - c.pos < 4 then raise (Fail Truncated)
  else begin
    (* mask away Int32's sign extension on 64-bit ints *)
    let v = Int32.to_int (Bytes.get_int32_be c.src c.pos) land 0xFFFFFFFF in
    c.pos <- c.pos + 4;
    v
  end

(* The length of the string field at the cursor, whose bytes follow. *)
let r_len c =
  let len = r_u32 c in
  if len > c.lim - c.pos then raise (Fail Truncated) else len

let r_str c =
  let len = r_len c in
  let v = Bytes.sub_string c.src c.pos len in
  c.pos <- c.pos + len;
  v

let rec same_from src off name i =
  i = String.length name
  || (Bytes.get src (off + i) = name.[i] && same_from src off name (i + 1))

(* The [len] bytes at the cursor spell [name]. *)
let is c len name = len = String.length name && same_from c.src c.pos name 0

(* [Sral.Access.operation_of_name], matched in place: only a custom
   operation's name becomes a string. *)
let r_op c : Sral.Access.operation =
  let len = r_len c in
  let op : Sral.Access.operation =
    if is c len "read" then Read
    else if is c len "write" then Write
    else if is c len "execute" then Execute
    else Custom (Bytes.sub_string c.src c.pos len)
  in
  c.pos <- c.pos + len;
  op

let r_list c r =
  let count = r_u32 c in
  (* an honest list of k elements needs at least k payload bytes;
     reject absurd counts before allocating *)
  if count > c.lim - c.pos then raise (Fail Truncated)
  else List.init count (fun _ -> r c)

let r_q c =
  let raw = r_str c in
  match Q.of_string raw with
  | q -> q
  | exception _ ->
      raise (Fail (Malformed (Printf.sprintf "bad rational %s" (quote raw))))

let decode read arg src ~off ~len =
  let c = { src; pos = off; lim = off + len } in
  match
    let v = r_u8 c in
    if v <> version then raise (Fail (Bad_version v));
    let value = read arg c in
    if c.pos <> c.lim then
      raise (Fail (Malformed (Printf.sprintf "%d trailing bytes" (c.lim - c.pos))));
    value
  with
  | value -> Ok value
  | exception Fail e -> Error e

(* Program text to AST, shared by a server's connections across
   domains, so a [Shared_memo].  A parse failure raises before [add],
   so it is never kept. *)
module Programs = struct
  module Memo = Coordinated.Shared_memo.Make (String)

  type t = Uncached | Memo of Sral.Ast.t Memo.t

  let cap = 256
  let max_text = 4096
  let create () = Memo (Memo.create ~cap)
  let size = function Uncached -> 0 | Memo m -> Memo.size m

  let parse t text =
    match t with
    | Memo m when String.length text <= max_text -> (
        let hash = Hashtbl.hash text in
        match Memo.find m ~hash text with
        | Some program -> program
        | None ->
            let program = Sral.Parser.program text in
            Memo.add m ~hash text program;
            program)
    | Memo _ | Uncached -> Sral.Parser.program text
end

let r_request programs c =
  match r_u8 c with
  | 0 -> Ping
  | 1 ->
      let object_id = r_str c in
      let owner = r_str c in
      let roles = r_list c r_str in
      let text = r_str c in
      let program =
        match Programs.parse programs text with
        | ast -> ast
        | exception _ -> raise (Fail (Malformed ("bad program " ^ quote text)))
      in
      Register { object_id; owner; roles; program }
  | 2 ->
      let object_id = r_str c in
      let server = r_str c in
      Arrive { object_id; server }
  | 3 -> Depart { object_id = r_str c }
  | 4 ->
      let object_id = r_str c in
      let op = r_op c in
      let resource = r_str c in
      let server = r_str c in
      Check { object_id; access = Sral.Access.make ~op ~resource ~server }
  | 5 ->
      let object_id = r_str c in
      let role = r_str c in
      Activate { object_id; role }
  | 6 ->
      let object_id = r_str c in
      let team = r_str c in
      Join { object_id; team }
  | 7 -> Subscribe
  | t -> raise (Fail (Bad_tag t))

let decode_request_in programs src ~off ~len =
  decode r_request programs src ~off ~len

let decode_request s =
  decode r_request Programs.Uncached (Bytes.unsafe_of_string s) ~off:0
    ~len:(String.length s)

let r_verdict c : Obs.Verdict.t =
  match r_u8 c with
  | 0 -> Granted
  | 1 -> Denied (Rbac_denied (r_str c))
  | 2 ->
      let binding = r_str c in
      let detail = r_str c in
      Denied (Spatial_violation { binding; detail })
  | 3 ->
      let binding = r_str c in
      let spent = r_q c in
      Denied (Temporal_expired { binding; spent })
  | 4 -> Denied (Not_active (r_str c))
  | 5 -> Denied Not_arrived
  | 6 -> Denied (Server_unavailable (r_str c))
  | t -> raise (Fail (Malformed (Printf.sprintf "unknown verdict tag %d" t)))

let r_reply () c =
  match r_u8 c with
  | 0 -> Ack { seq = r_u32 c }
  | 1 ->
      let seq = r_u32 c in
      let verdict = r_verdict c in
      Verdict { seq; verdict }
  | 2 ->
      let seq = r_u32 c in
      let reason = r_str c in
      Rejected { seq; reason }
  | 3 -> Shed { seq = r_u32 c }
  | 4 -> (
      let line = r_str c in
      match Obs.Export.of_line line with
      | Ok ev -> Event ev
      | Error msg -> raise (Fail (Malformed (Printf.sprintf "bad event: %s" msg))))
  | t -> raise (Fail (Bad_tag t))

let decode_reply s =
  decode r_reply () (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

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
