module Q = Temporal.Q
module System = Coordinated.System

type config = { queue_capacity : int; max_frame : int }

let default_config =
  { queue_capacity = 256; max_frame = Frame.max_frame_default }

type obj_state = { session : Rbac.Session.t; program : Sral.Ast.t }

type conn = {
  id : int;
  system : System.t;
  decoder : Frame.Decoder.t;
  objects : (string, obj_state) Hashtbl.t;
  out : Buffer.t;  (* reply bytes of the feed in progress *)
  mutable subscribed : bool;
  mutable seq : int;  (* requests consumed; request i executes at time i *)
  mutable dead : bool;
  mutable executed : int;
  mutable shed : int;
  mutable malformed : int;
}

type t = {
  config : config;
  base : System.t;
  conns : (int, conn) Hashtbl.t;
  mutable next_conn : int;
  mutable closed_executed : int;  (* counters of closed connections *)
  mutable closed_shed : int;
  mutable closed_malformed : int;
}

let create ?(config = default_config) ~base () =
  {
    config;
    base;
    conns = Hashtbl.create 16;
    next_conn = 0;
    closed_executed = 0;
    closed_shed = 0;
    closed_malformed = 0;
  }

let open_conn t =
  let id = t.next_conn in
  t.next_conn <- id + 1;
  let c =
    {
      id;
      system = System.clone t.base;
      decoder = Frame.Decoder.create ~max_frame:t.config.max_frame ();
      objects = Hashtbl.create 8;
      out = Buffer.create 256;
      subscribed = false;
      seq = 0;
      dead = false;
      executed = 0;
      shed = 0;
      malformed = 0;
    }
  in
  Hashtbl.replace t.conns id c;
  id

let retire t c =
  t.closed_executed <- t.closed_executed + c.executed;
  t.closed_shed <- t.closed_shed + c.shed;
  t.closed_malformed <- t.closed_malformed + c.malformed;
  Hashtbl.remove t.conns c.id

let close_conn t ~conn =
  match Hashtbl.find_opt t.conns conn with
  | None -> ()
  | Some c -> retire t c

let conn_alive t ~conn =
  match Hashtbl.find_opt t.conns conn with
  | None -> false
  | Some c -> not c.dead

let sum t per =
  Hashtbl.fold (fun _ c acc -> acc + per c) t.conns 0

let executed t = t.closed_executed + sum t (fun c -> c.executed)
let shed t = t.closed_shed + sum t (fun c -> c.shed)
let malformed t = t.closed_malformed + sum t (fun c -> c.malformed)

let agent_of c = Printf.sprintf "conn-%d" c.id

let write c (reply : Protocol.reply) =
  Buffer.add_string c.out (Frame.encode (Protocol.encode_reply reply))

(* Execute one decoded request at the connection's next logical time. *)
let exec c (req : Protocol.request) : Protocol.reply =
  c.seq <- c.seq + 1;
  c.executed <- c.executed + 1;
  let seq = c.seq in
  let time = Q.of_int seq in
  let reject reason : Protocol.reply = Rejected { seq; reason } in
  let unknown_object id = reject (Printf.sprintf "unknown object %S" id) in
  let with_obj id f =
    match Hashtbl.find_opt c.objects id with
    | None -> unknown_object id
    | Some o -> f o
  in
  match req with
  | Ping -> Ack { seq }
  | Subscribe ->
      (* the capture sink is the clone's only one: until it exists the
         bus is unobserved and the decision path builds no event.  It
         writes each event as it is emitted, so a subscriber sees cause
         before effect: every event precedes the reply of the request
         that produced it. *)
      if not c.subscribed then begin
        c.subscribed <- true;
        Obs.Bus.subscribe (System.bus c.system)
          (Obs.Sink.make ~name:(agent_of c ^ "-capture") (fun ev ->
               write c (Event ev)))
      end;
      Ack { seq }
  | Register { object_id; owner; roles; program } -> (
      if Hashtbl.mem c.objects object_id then
        reject (Printf.sprintf "object %S already registered" object_id)
      else
        match System.new_session c.system ~user:owner with
        | exception Rbac.Policy.Unknown (what, who) ->
            reject (Printf.sprintf "unknown %s %S" what who)
        | session ->
            (* best-effort activation, the scenario interpreter's rule *)
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
              reject (Printf.sprintf "user %S may not activate %S" u r)
          | exception Rbac.Session.Dsd_violation (_, u, r) ->
              reject (Printf.sprintf "DSD forbids %S activating %S" u r))
  | Join { object_id; team } ->
      with_obj object_id (fun _ ->
          System.join_team c.system ~object_id ~team;
          Ack { seq })

let abort_event c reason =
  Obs.Bus.emit (System.bus c.system)
    (Obs.Trace.Aborted { time = Q.of_int c.seq; agent = agent_of c; reason })

(* A framing error or an undecodable payload: one [Rejected] reply,
   then no later byte from this peer is trusted. *)
let kill c reason =
  c.seq <- c.seq + 1;
  c.malformed <- c.malformed + 1;
  abort_event c "malformed-frame";
  write c (Rejected { seq = c.seq; reason });
  c.dead <- true

(* Decode and run each frame as it is drained.  Every byte is in the
   decoder before the first frame runs, so the shed boundary is the
   frame's index in this feed, whatever else the bytes complete. *)
let feed_conn t c bytes =
  Frame.Decoder.feed c.decoder bytes;
  let rec go i =
    match Frame.Decoder.next c.decoder with
    | Ok None -> ()
    | Error e -> kill c e
    | Ok (Some _) when i >= t.config.queue_capacity ->
        c.seq <- c.seq + 1;
        c.shed <- c.shed + 1;
        abort_event c "overload-shed";
        write c (Shed { seq = c.seq });
        go (i + 1)
    | Ok (Some payload) -> (
        match Protocol.decode_request payload with
        | Ok req ->
            write c (exec c req);
            go (i + 1)
        | Error err -> kill c (Protocol.describe err))
  in
  go 0;
  let replies = Buffer.contents c.out in
  Buffer.reset c.out;
  replies

let feed t ~conn bytes =
  match Hashtbl.find_opt t.conns conn with
  | Some c when not c.dead -> feed_conn t c bytes
  | _ -> ""

let feed_batch t items =
  (* group chunks by connection, preserving chunk order within each
     connection and first-appearance order across connections *)
  let order = ref [] in
  let groups : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (conn, bytes) ->
      match Hashtbl.find_opt groups conn with
      | Some chunks -> chunks := bytes :: !chunks
      | None ->
          Hashtbl.replace groups conn (ref [ bytes ]);
          order := conn :: !order)
    items;
  let order = Array.of_list (List.rev !order) in
  let n = Array.length order in
  if n = 0 then []
  else begin
    let bytes_of conn =
      String.concat "" (List.rev !(Hashtbl.find groups conn))
    in
    (* connections are isolated clones, so cross-connection fan-out is
       shard-safe; bundle them so we never spawn more domains than the
       backend recommends *)
    let workers = max 1 (min n (Parallel.Backend.recommended ())) in
    let tasks =
      Array.init workers (fun w () ->
          let acc = ref [] in
          let i = ref w in
          while !i < n do
            let conn = order.(!i) in
            acc := (conn, feed t ~conn (bytes_of conn)) :: !acc;
            i := !i + workers
          done;
          List.rev !acc)
    in
    let per_worker = Parallel.Backend.parallel tasks in
    (* stitch the strided results back into first-appearance order *)
    let by_conn = Hashtbl.create 8 in
    Array.iter
      (fun results ->
        List.iter (fun (conn, out) -> Hashtbl.replace by_conn conn out) results)
      per_worker;
    Array.to_list (Array.map (fun conn -> (conn, Hashtbl.find by_conn conn)) order)
  end
