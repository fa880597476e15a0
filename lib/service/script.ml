module Q = Temporal.Q
module System = Coordinated.System

type entry = { conn : int; req : Protocol.request }

let servers = [ "s1"; "s2"; "s3" ]
let resources = [ "r1"; "r2"; "r3" ]

let base_system ?mode () =
  let rng = Random.State.make [| 0x57acc; 8 |] in
  let policy = Rbac.Policy.create () in
  List.iter (Rbac.Policy.add_user policy) Parallel.Workload.users;
  List.iter (Rbac.Policy.add_role policy) Parallel.Workload.roles;
  List.iter
    (fun (r, perm) -> Rbac.Policy.grant policy r perm)
    (Parallel.Workload.grants ~resources ~servers rng);
  List.iter
    (fun (u, r) -> Rbac.Policy.assign_user policy u r)
    (Parallel.Workload.assignments rng);
  let bindings = Parallel.Workload.bindings ~resources rng in
  System.create ?mode ~bindings policy

(* Programs come from the same generator scenarios use, so scripts
   exercise the program/proof shapes the rest of the repo does. *)
let program_pool =
  lazy
    (let rng = Random.State.make [| 0x57acc; 9 |] in
     let scen = Parallel.Workload.scenario ~servers ~resources ~objects:6 rng in
     match List.map (fun o -> o.Parallel.Scenario.program) scen.objects with
     | [] -> assert false
     | programs -> Array.of_list programs)

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

let access_of rng =
  let r = pick rng resources and s = pick rng servers in
  match Random.State.int rng 3 with
  | 0 -> Sral.Access.read r ~at:s
  | 1 -> Sral.Access.write r ~at:s
  | _ -> Sral.Access.execute r ~at:s

let generate ?(conns = 4) ?(requests = 200) ~seed () =
  let rng = Random.State.make [| 0x57acc; seed |] in
  let pool = Lazy.force program_pool in
  let entries = ref [] in
  let push conn req = entries := { conn; req } :: !entries in
  let objects = Array.make conns [] in
  for c = 0 to conns - 1 do
    for k = 0 to 1 do
      let object_id = Printf.sprintf "o%d_%d" c k in
      let owner = pick rng Parallel.Workload.users in
      let n_roles = 1 + Random.State.int rng 2 in
      let roles =
        List.init n_roles (fun _ -> pick rng Parallel.Workload.roles)
      in
      let program = pool.(Random.State.int rng (Array.length pool)) in
      push c (Protocol.Register { object_id; owner; roles; program });
      objects.(c) <- objects.(c) @ [ object_id ]
    done;
    if c = 0 then push c Protocol.Subscribe;
    List.iter
      (fun object_id ->
        push c (Protocol.Arrive { object_id; server = pick rng servers }))
      objects.(c)
  done;
  for _ = 1 to requests do
    let c = Random.State.int rng conns in
    let object_id = pick rng objects.(c) in
    let req =
      match Random.State.int rng 100 with
      | r when r < 70 -> Protocol.Check { object_id; access = access_of rng }
      | r when r < 80 ->
          Protocol.Arrive { object_id; server = pick rng servers }
      | r when r < 88 ->
          Protocol.Activate { object_id; role = pick rng Parallel.Workload.roles }
      | r when r < 93 ->
          Protocol.Join { object_id; team = pick rng Parallel.Workload.team_names }
      | r when r < 96 -> Protocol.Ping
      | r when r < 98 -> Protocol.Depart { object_id }
      | _ -> Protocol.Subscribe
    in
    push c req
  done;
  List.rev !entries

let conn_count script =
  1 + List.fold_left (fun m e -> max m e.conn) 0 script

(* Each request's frame goes through [Server.feed] in script order,
   and each connection's reply bytes through its own client-side
   decoder, so the gate covers framing and both halves of the codec. *)
let run_sim ~base script =
  let server = Server.create ~base () in
  let n = conn_count script in
  let ids = Array.init n (fun _ -> Server.open_conn server) in
  let decoders = Array.init n (fun _ -> Frame.Decoder.create ()) in
  let replies = Array.make n [] in
  List.iter
    (fun e ->
      let c = e.conn in
      let fail fmt = Printf.ksprintf failwith ("run_sim: conn %d: " ^^ fmt) c in
      let bytes = Frame.encode (Protocol.encode_request e.req) in
      Frame.Decoder.feed decoders.(c) (Server.feed server ~conn:ids.(c) bytes);
      let rec drain () =
        match Frame.Decoder.next decoders.(c) with
        | Ok None -> ()
        | Ok (Some payload) -> (
            match Protocol.decode_reply payload with
            | Ok reply ->
                replies.(c) <- reply :: replies.(c);
                drain ()
            | Error err -> fail "undecodable reply: %s" (Protocol.describe err))
        | Error msg -> fail "reply framing: %s" msg
      in
      drain ())
    script;
  List.init n (fun c -> (c, List.rev replies.(c)))

(* ------------------------------------------------------------------ *)
(* The direct drive: an independent mirror of the per-request
   semantics, straight on [Coordinated.System] — no frames, no
   transport.  Kept deliberately separate from [Server] (down to the
   rejection strings) so the differential gate compares two
   implementations, not one implementation with itself. *)

type direct_obj = { session : Rbac.Session.t; program : Sral.Ast.t }

type direct_conn = {
  system : System.t;
  objects : (string, direct_obj) Hashtbl.t;
  events : Obs.Trace.event Queue.t;
  mutable subscribed : bool;
  mutable seq : int;
  mutable replies : Protocol.reply list;  (* reversed *)
}

let direct_conn_of base =
  let system = System.clone base in
  let c =
    {
      system;
      objects = Hashtbl.create 8;
      events = Queue.create ();
      subscribed = false;
      seq = 0;
      replies = [];
    }
  in
  Obs.Bus.subscribe (System.bus system)
    (Obs.Sink.make ~name:"direct-capture" (fun ev ->
         if c.subscribed then Queue.add ev c.events));
  c

let direct_exec c (req : Protocol.request) : Protocol.reply =
  c.seq <- c.seq + 1;
  let seq = c.seq in
  let time = Q.of_int seq in
  let reject reason : Protocol.reply = Rejected { seq; reason } in
  let with_obj id f =
    match Hashtbl.find_opt c.objects id with
    | None -> reject (Printf.sprintf "unknown object %s" (Protocol.quote id))
    | Some o -> f o
  in
  match req with
  | Ping -> Ack { seq }
  | Subscribe ->
      c.subscribed <- true;
      Ack { seq }
  | Register { object_id; owner; roles; program } -> (
      if Hashtbl.mem c.objects object_id then
        reject
          (Printf.sprintf "object %s already registered" (Protocol.quote object_id))
      else
        match System.new_session c.system ~user:owner with
        | exception Rbac.Policy.Unknown (what, who) ->
            reject (Printf.sprintf "unknown %s %s" what (Protocol.quote who))
        | session ->
            List.iter
              (fun r ->
                try Rbac.Session.activate session r with
                | Rbac.Session.Not_authorized _ | Rbac.Session.Dsd_violation _
                ->
                  ())
              roles;
            Hashtbl.replace c.objects object_id { session; program };
            Ack { seq })
  | Arrive { object_id; server } ->
      with_obj object_id (fun _ ->
          System.arrive c.system ~object_id ~server ~time;
          Ack { seq })
  | Depart { object_id } ->
      with_obj object_id (fun o ->
          Rbac.Session.drop o.session;
          Hashtbl.remove c.objects object_id;
          Ack { seq })
  | Check { object_id; access } ->
      with_obj object_id (fun o ->
          let verdict =
            System.check c.system ~session:o.session ~object_id
              ~program:o.program ~time access
          in
          Verdict { seq; verdict })
  | Activate { object_id; role } ->
      with_obj object_id (fun o ->
          match Rbac.Session.activate o.session role with
          | () -> Ack { seq }
          | exception Rbac.Session.Not_authorized (u, r) ->
              reject
                (Printf.sprintf "user %s may not activate %s" (Protocol.quote u)
                   (Protocol.quote r))
          | exception Rbac.Session.Dsd_violation (_, u, r) ->
              reject
                (Printf.sprintf "DSD forbids %s activating %s" (Protocol.quote u)
                   (Protocol.quote r)))
  | Join { object_id; team } ->
      with_obj object_id (fun _ ->
          System.join_team c.system ~object_id ~team;
          Ack { seq })

let drive_direct ~base script =
  let n = conn_count script in
  let conns = Array.init n (fun _ -> direct_conn_of base) in
  List.iter
    (fun e ->
      let c = conns.(e.conn) in
      let reply = direct_exec c e.req in
      Queue.iter (fun ev -> c.replies <- Event ev :: c.replies) c.events;
      Queue.clear c.events;
      c.replies <- reply :: c.replies)
    script;
  List.init n (fun c -> (c, List.rev conns.(c).replies))

let render results =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (c, replies) ->
      List.iter
        (fun r ->
          Buffer.add_string buf
            (Printf.sprintf "{\"conn\":%d,\"reply\":%s}\n" c
               (Protocol.reply_to_line r)))
        replies)
    results;
  Buffer.contents buf
