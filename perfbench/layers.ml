(* Per-layer times of a service request, measured from outside.

   [Server.feed] runs its layers in line, so the traced run replays a
   session's recorded request frames through the same public functions,
   in the same order, one request at a time: [Frame.Decoder],
   [Protocol.decode_request], the [System] calls, [Protocol.encode_reply]
   and [Frame.encode], with a clock read between layers.  The same
   frames then go through [Server.feed] on a fresh server, so the
   server's own dispatch ([server.self_ns]) is feed time minus the
   layers over the same requests.  A third pass, on a system built over
   a monotonic-clock bus, gives the decision pipeline's [Stage_end]
   spans.  The replayed reply frames must equal the bytes the server
   sent. *)

open Common
module P = Service.Protocol
module Frame = Service.Frame
module Server = Service.Server
module System = Coordinated.System

type acc = {
  mutable sessions : int;
  mutable reqs : int;  (** replayed requests inside the timed window *)
  mutable bytes : int;  (** request plus reply frame bytes *)
  mutable frame_dec : float;
  mutable proto_dec : float;
  mutable exec : float;  (** every System call, whatever the request *)
  mutable proto_enc : float;
  mutable frame_enc : float;
  mutable feed : float;  (** [Server.feed] over the same requests *)
  mutable check : float;
  mutable checks : int;
  mutable arrive : float;
  mutable arrives : int;
  mutable new_session : float;
  mutable new_sessions : int;
  mutable rbac : float;
  mutable spatial : float;
  mutable temporal : float;
  mutable grants : int;
  mutable denials : int;
  mutable depth : float;
  mutable mismatched : int;  (** replays whose reply bytes differ from the server's *)
}

let create () =
  {
    sessions = 0;
    reqs = 0;
    bytes = 0;
    frame_dec = 0.;
    proto_dec = 0.;
    exec = 0.;
    proto_enc = 0.;
    frame_enc = 0.;
    feed = 0.;
    check = 0.;
    checks = 0;
    arrive = 0.;
    arrives = 0;
    new_session = 0.;
    new_sessions = 0;
    rbac = 0.;
    spatial = 0.;
    temporal = 0.;
    grants = 0;
    denials = 0;
    depth = 0.;
    mismatched = 0;
  }

type obj = { session : Rbac.Session.t; program : Sral.Ast.t }

(* [Server]'s request semantics.  [on_session] gets the time of each
   [System.new_session] call. *)
let exec ?on_session sys objects seq (req : P.request) : P.reply =
  let time = Temporal.Q.of_int seq in
  let reject reason : P.reply = Rejected { seq; reason } in
  let with_obj id f =
    match Hashtbl.find_opt objects id with
    | None -> reject (Printf.sprintf "unknown object %S" id)
    | Some o -> f o
  in
  let new_session user =
    match on_session with
    | None -> System.new_session sys ~user
    | Some record ->
        let t = now () in
        let s = System.new_session sys ~user in
        record (ns_since t);
        s
  in
  match req with
  | Ping | Subscribe -> Ack { seq }
  | Register { object_id; owner; roles; program } -> (
      if Hashtbl.mem objects object_id then
        reject (Printf.sprintf "object %S already registered" object_id)
      else
        match new_session owner with
        | exception Rbac.Policy.Unknown (what, who) ->
            reject (Printf.sprintf "unknown %s %S" what who)
        | session ->
            List.iter
              (fun r ->
                try Rbac.Session.activate session r with
                | Rbac.Session.Not_authorized _ | Rbac.Session.Dsd_violation _
                ->
                  ())
              roles;
            Hashtbl.replace objects object_id { session; program };
            Ack { seq })
  | Arrive { object_id; server } ->
      with_obj object_id (fun _ ->
          System.arrive sys ~object_id ~server ~time;
          Ack { seq })
  | Depart { object_id } ->
      with_obj object_id (fun o ->
          Rbac.Session.drop o.session;
          Hashtbl.remove objects object_id;
          Ack { seq })
  | Check { object_id; access } ->
      with_obj object_id (fun o ->
          Verdict
            {
              seq;
              verdict =
                System.check sys ~session:o.session ~object_id ~program:o.program
                  ~time access;
            })
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
          System.join_team sys ~object_id ~team;
          Ack { seq })

(* Sums the decision pipeline's stage spans while [on] is set. *)
let span_sink acc on =
  Obs.Sink.make ~name:"perfbench-spans" (fun ev ->
      if !on then
        match ev with
        | Obs.Trace.Stage_end { stage; elapsed_ns; _ } -> (
            let ns = Int64.to_float elapsed_ns in
            match stage with
            | Rbac -> acc.rbac <- acc.rbac +. ns
            | Spatial -> acc.spatial <- acc.spatial +. ns
            | Temporal -> acc.temporal <- acc.temporal +. ns)
        | Decision { verdict; _ } ->
            if Obs.Verdict.is_granted verdict then acc.grants <- acc.grants + 1
            else acc.denials <- acc.denials + 1
        | _ -> ())

(* A fresh replica of [base], as [Server.open_conn] makes one, on a
   bus with the given clock. *)
let replica ?clock base =
  System.create ~mode:(System.mode base) ~bindings:(System.bindings base)
    ~bus:(Obs.Bus.create ?clock ()) (System.policy base)

(* Replay one session; [out] is the server's reply bytes for it.
   Every interval between two clock reads holds one read's cost, which
   is taken off. *)
let replay acc ~base (s : Sessions.t) ~out =
  let n = Array.length s.frames and k = s.timed_from in
  let c = clock_ns () in
  let d t0 t1 = Int64.to_float (Int64.sub t1 t0) -. c in
  (* request by request, the whole of [Server.feed] on a fresh server
     and the layers in line on a replica, so both see the same heap and
     cache state (a pass over the whole session does not: the first
     pass runs 10-20% slower); whichever runs second finds the code
     warm, so they take turns going first *)
  let server = Server.create ~base () in
  let conn = Server.open_conn server in
  let feed i =
    let t = now () in
    ignore (Server.feed server ~conn s.frames.(i));
    if i >= k then acc.feed <- acc.feed +. d t (now ())
  in
  let sys = replica base and objects = Hashtbl.create 8 in
  let dec = Frame.Decoder.create () in
  let frames_out = Array.make n "" in
  let layers i =
    let t0 = now () in
    Frame.Decoder.feed dec s.frames.(i);
    let payload =
      match Frame.Decoder.next dec with
      | Ok (Some p) -> p
      | Ok None | Error _ -> failwith "replay: request frame"
    in
    let t1 = now () in
    let req =
      match P.decode_request payload with
      | Ok r -> r
      | Error e -> failwith ("replay: " ^ P.describe e)
    in
    let t2 = now () in
    let reply = exec sys objects (i + 1) req in
    let t3 = now () in
    let payload_out = P.encode_reply reply in
    let t4 = now () in
    frames_out.(i) <- Frame.encode payload_out;
    let t5 = now () in
    if i >= k then begin
      let e = d t2 t3 in
      acc.frame_dec <- acc.frame_dec +. d t0 t1;
      acc.proto_dec <- acc.proto_dec +. d t1 t2;
      acc.exec <- acc.exec +. e;
      acc.proto_enc <- acc.proto_enc +. d t3 t4;
      acc.frame_enc <- acc.frame_enc +. d t4 t5;
      acc.bytes <- acc.bytes + String.length s.frames.(i) + String.length frames_out.(i);
      match req with
      | Check _ ->
          acc.check <- acc.check +. e;
          acc.checks <- acc.checks + 1
      | Arrive _ ->
          acc.arrive <- acc.arrive +. e;
          acc.arrives <- acc.arrives + 1
      | _ -> ()
    end
  in
  for i = 0 to n - 1 do
    if i land 1 = 0 then begin
      feed i;
      layers i
    end
    else begin
      layers i;
      feed i
    end
  done;
  (* decision spans and session creation, on a clocked replica *)
  let spans_on = ref false in
  let clocked = replica ~clock:now base in
  Obs.Bus.subscribe (System.bus clocked) (span_sink acc spans_on);
  let clocked_objects = Hashtbl.create 8 in
  let on_session ns =
    acc.new_session <- acc.new_session +. ns;
    acc.new_sessions <- acc.new_sessions + 1
  in
  Array.iteri
    (fun i frame ->
      spans_on := i >= k;
      match Frame.Decoder.feed dec frame; Frame.Decoder.next dec with
      | Ok (Some p) -> (
          match P.decode_request p with
          | Ok req -> ignore (exec ~on_session clocked clocked_objects (i + 1) req)
          | Error _ -> ())
      | Ok None | Error _ -> ())
    s.frames;
  spans_on := false;
  acc.sessions <- acc.sessions + 1;
  acc.reqs <- acc.reqs + (n - k);
  (* history a decision walks: the object's proofs and arrivals *)
  List.iter
    (fun object_id ->
      let m = System.monitor sys ~object_id in
      acc.depth <-
        acc.depth
        +. float_of_int
             (Sral.Trace.length (Coordinated.Monitor.performed m)
             + List.length (Coordinated.Monitor.arrivals m)))
    Sessions.objects;
  if not (String.equal (String.concat "" (Array.to_list frames_out)) out) then
    acc.mismatched <- acc.mismatched + 1

(* Per-request means over the replayed window.  [feed_ns] is the
   closed loop's mean [Server.feed] time per request.  [server.self_ns]
   is what the replayed layers do not cover of [Server.feed] over the
   same requests: the server's own dispatch. *)
let metrics acc ~feed_ns =
  let per_req x = if acc.reqs = 0 then 0. else x /. float_of_int acc.reqs in
  let per n x = if n = 0 then 0. else x /. float_of_int n in
  let replayed =
    per_req (acc.frame_dec +. acc.proto_dec +. acc.exec +. acc.proto_enc +. acc.frame_enc)
  in
  let checks = acc.checks in
  [
    ("frame.decode_ns", per_req acc.frame_dec);
    ("frame.encode_ns", per_req acc.frame_enc);
    ("protocol.decode_ns", per_req acc.proto_dec);
    ("protocol.encode_ns", per_req acc.proto_enc);
    ("frame.bytes_per_req", per_req (float_of_int acc.bytes));
    ("system.new_session_ns", per acc.new_sessions acc.new_session);
    ("server.feed_ns", feed_ns);
    ("server.self_ns", per_req acc.feed -. replayed);
    ("system.check_ns", per checks acc.check);
    ("system.arrive_ns", per acc.arrives acc.arrive);
    ("decision.rbac_ns", per checks acc.rbac);
    ("decision.spatial_ns", per checks acc.spatial);
    ("decision.temporal_ns", per checks acc.temporal);
    ("decision.grants", per acc.sessions (float_of_int acc.grants));
    ("decision.denials", per acc.sessions (float_of_int acc.denials));
    ( "decision.history_depth",
      per (acc.sessions * List.length Sessions.objects) acc.depth );
  ]

(* How well the replay stands for the closed loop: the replayed layers
   plus [server.self_ns] over [server.feed_ns]. *)
let coverage acc ~feed_ns =
  if acc.reqs = 0 || feed_ns <= 0. then nan
  else acc.feed /. float_of_int acc.reqs /. feed_ns
