module Q = Temporal.Q
module System = Coordinated.System

(* The check path's tables call neither the generic compare nor the
   generic hash: a connection id is its own hash, an object id hashes
   by the fold [Sral.Access] uses. *)
module Conns = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id
end)

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Sral.Access.hash_name
end)

type config = { queue_capacity : int }

let default_config = { queue_capacity = 256 }

(* [monitor] is the connection system's monitor for the object, fetched
   at [Register]: [System] never replaces a monitor, so a re-registered
   object gets the same one back, with its history *)
type obj_state = {
  session : Rbac.Session.t;
  program : Sral.Ast.t;
  monitor : Coordinated.Monitor.t;
}

type conn = {
  id : int;
  system : System.t;
  decoder : Frame.Decoder.t;
  objects : obj_state Names.t;
  out : Buffer.t;  (* reply frames of the feed in progress *)
  payload : Buffer.t;  (* the reply [write] is framing *)
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
  programs : Protocol.Programs.t;  (* shared by every connection *)
  conns : conn Conns.t;
  mutable next_conn : int;
  mutable closed_executed : int;  (* counters of closed connections *)
  mutable closed_shed : int;
  mutable closed_malformed : int;
}

let create ?(config = default_config) ~base () =
  {
    config;
    base;
    programs = Protocol.Programs.create ();
    conns = Conns.create 16;
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
      decoder = Frame.Decoder.create ();
      objects = Names.create 8;
      out = Buffer.create 256;
      payload = Buffer.create 64;
      subscribed = false;
      seq = 0;
      dead = false;
      executed = 0;
      shed = 0;
      malformed = 0;
    }
  in
  Conns.replace t.conns id c;
  id

let retire t c =
  t.closed_executed <- t.closed_executed + c.executed;
  t.closed_shed <- t.closed_shed + c.shed;
  t.closed_malformed <- t.closed_malformed + c.malformed;
  Conns.remove t.conns c.id

let close_conn t ~conn =
  match Conns.find_opt t.conns conn with
  | None -> ()
  | Some c -> retire t c

let conn_alive t ~conn =
  match Conns.find_opt t.conns conn with
  | None -> false
  | Some c -> not c.dead

let sum t per =
  Conns.fold (fun _ c acc -> acc + per c) t.conns 0

let programs t = t.programs

let program t ~conn ~object_id =
  match Conns.find_opt t.conns conn with
  | None -> None
  | Some c ->
      Option.map (fun o -> o.program) (Names.find_opt c.objects object_id)

let executed t = t.closed_executed + sum t (fun c -> c.executed)
let shed t = t.closed_shed + sum t (fun c -> c.shed)
let malformed t = t.closed_malformed + sum t (fun c -> c.malformed)

let agent_of c = Printf.sprintf "conn-%d" c.id

let write c (reply : Protocol.reply) =
  Buffer.clear c.payload;
  Protocol.write_reply c.payload reply;
  Frame.add_frame c.out c.payload

let reject seq reason : Protocol.reply = Rejected { seq; reason }

(* A refusal's reason, concatenated: [parts] alternate fixed text and
   the peer's names, each quoted. *)
let refuse seq parts = reject seq (String.concat "" parts)
let unknown_object seq id = refuse seq [ "unknown object "; Protocol.quote id ]

(* Execute one decoded request at the connection's next logical time. *)
let exec c (req : Protocol.request) : Protocol.reply =
  c.seq <- c.seq + 1;
  c.executed <- c.executed + 1;
  let seq = c.seq in
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
      if Names.mem c.objects object_id then
        refuse seq
          [ "object "; Protocol.quote object_id; " already registered" ]
      else
        match System.new_session c.system ~user:owner with
        | exception Rbac.Policy.Unknown (what, who) ->
            refuse seq [ "unknown "; what; " "; Protocol.quote who ]
        | session ->
            (* best-effort activation, the scenario interpreter's rule *)
            List.iter
              (fun r ->
                try Rbac.Session.activate session r with
                | Rbac.Session.Not_authorized _ | Rbac.Session.Dsd_violation _
                ->
                  ())
              roles;
            let monitor = System.monitor c.system ~object_id in
            Names.replace c.objects object_id { session; program; monitor };
            Ack { seq })
  | Arrive { object_id; server } ->
      if not (Names.mem c.objects object_id) then unknown_object seq object_id
      else begin
        System.arrive c.system ~object_id ~server ~time:(Q.of_int seq);
        Ack { seq }
      end
  | Depart { object_id } -> (
      match Names.find c.objects object_id with
      | exception Not_found -> unknown_object seq object_id
      | o ->
          Rbac.Session.drop o.session;
          Names.remove c.objects object_id;
          Ack { seq })
  | Check { object_id; access } -> (
      match Names.find c.objects object_id with
      | exception Not_found -> unknown_object seq object_id
      | o ->
          let verdict =
            System.check_monitor c.system ~session:o.session
              ~monitor:o.monitor ~program:o.program ~time:(Q.of_int seq)
              access
          in
          Verdict { seq; verdict })
  | Activate { object_id; role } -> (
      match Names.find c.objects object_id with
      | exception Not_found -> unknown_object seq object_id
      | o -> (
          match Rbac.Session.activate o.session role with
          | () -> Ack { seq }
          | exception Rbac.Session.Not_authorized (u, r) ->
              refuse seq
                [
                  "user "; Protocol.quote u; " may not activate "; Protocol.quote r;
                ]
          | exception Rbac.Session.Dsd_violation (_, u, r) ->
              refuse seq
                [
                  "DSD forbids "; Protocol.quote u; " activating "; Protocol.quote r;
                ]))
  | Join { object_id; team } ->
      if not (Names.mem c.objects object_id) then unknown_object seq object_id
      else begin
        System.join_team c.system ~object_id ~team;
        Ack { seq }
      end

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

(* Decode and run each frame as it is drained, straight out of the
   decoder's buffer.  Every byte is in the decoder before the first
   frame runs, so the shed boundary is the frame's index in this feed,
   whatever else the bytes complete. *)
let rec drain t c i =
  let dec = c.decoder in
  match Frame.Decoder.advance dec with
  | Await -> ()
  | Poisoned e -> kill c e
  | Payload when i >= t.config.queue_capacity ->
      c.seq <- c.seq + 1;
      c.shed <- c.shed + 1;
      abort_event c "overload-shed";
      write c (Shed { seq = c.seq });
      drain t c (i + 1)
  | Payload -> (
      match
        Protocol.decode_request_in t.programs (Frame.Decoder.bytes dec)
          ~off:(Frame.Decoder.payload_off dec) ~len:(Frame.Decoder.payload_len dec)
      with
      | Ok req ->
          write c (exec c req);
          drain t c (i + 1)
      | Error err -> kill c (Protocol.describe err))

let feed t ~conn bytes =
  match Conns.find t.conns conn with
  | exception Not_found -> ""
  | c when c.dead -> ""
  | c ->
      Frame.Decoder.feed c.decoder bytes;
      drain t c 0;
      let replies = Buffer.contents c.out in
      Buffer.reset c.out;
      replies

let feed_batch t items =
  (* group chunks by connection, preserving chunk order within each
     connection and first-appearance order across connections *)
  let order = ref [] in
  let groups = Conns.create 8 in
  List.iter
    (fun (conn, bytes) ->
      match Conns.find_opt groups conn with
      | Some chunks -> chunks := bytes :: !chunks
      | None ->
          Conns.replace groups conn (ref [ bytes ]);
          order := conn :: !order)
    items;
  let order = Array.of_list (List.rev !order) in
  let n = Array.length order in
  if n = 0 then []
  else begin
    let bytes_of conn =
      String.concat "" (List.rev !(Conns.find groups conn))
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
    let by_conn = Conns.create 8 in
    Array.iter
      (fun results ->
        List.iter (fun (conn, out) -> Conns.replace by_conn conn out) results)
      per_worker;
    Array.to_list (Array.map (fun conn -> (conn, Conns.find by_conn conn)) order)
  end
