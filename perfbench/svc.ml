(* The service workloads and the transport probe.

   Every round starts from a fresh base system and server, so nothing a
   round leaves behind (decision history, connection state, caches)
   reaches the next one: per-round figures stay stationary however long
   the run is. *)

open Common
module Server = Service.Server
module Net = Service.Net_unix
module Script = Service.Script

type size = {
  body : int;  (** svc-churn: mixed requests per session *)
  per_slot : int;  (** svc-churn: sessions per connection slot per round *)
  probes : int;  (** svc-churn: session pairs the traced run sends over the socket *)
  pairs : int;  (** svc-deep: connection pairs per round *)
  depth : int;  (** svc-deep: warm-up requests per connection *)
  window : int;  (** svc-deep: timed checks per connection *)
}

let full = { body = 200; per_slot = 24; probes = 2; pairs = 4; depth = 1500; window = 1080 }
let quick = { body = 20; per_slot = 1; probes = 1; pairs = 1; depth = 30; window = 30 }

(* Traced-run counters the closed loops collect in line. *)
type loop_acc = {
  mutable feed_ns : float;
  mutable feeds : int;
  mutable open_ns : float;
  mutable opens : int;
  mutable close_ns : float;
  mutable closes : int;
  mutable timed_ns : float;  (** the rounds' timed phases *)
  mutable replay_ns : float;  (** the traced rounds' replays *)
}

let loop_acc () =
  {
    feed_ns = 0.; feeds = 0; open_ns = 0.; opens = 0; close_ns = 0.; closes = 0;
    timed_ns = 0.; replay_ns = 0.;
  }

let open_conn la server =
  let t = now () in
  let c = Server.open_conn server in
  la.open_ns <- la.open_ns +. ns_since t;
  la.opens <- la.opens + 1;
  c

let close_conn la server conn =
  let t = now () in
  Server.close_conn server ~conn;
  la.close_ns <- la.close_ns +. ns_since t;
  la.closes <- la.closes + 1

(* One closed-loop request: the latency sample is the [feed] call. *)
let serve la server conn frame buf samples =
  let t = now () in
  let out = Server.feed server ~conn frame in
  let dt = ns_since t in
  Samples.add samples (dt /. 1e3);
  la.feed_ns <- la.feed_ns +. dt;
  la.feeds <- la.feeds + 1;
  Buffer.add_string buf out

let gate_session g s out =
  let differing, missing = Sessions.verify s out in
  g.attempted <- g.attempted + Array.length s.Sessions.requests;
  g.failed <- g.failed + differing + missing;
  g.mismatched <- g.mismatched + differing + missing

let note_replay gate name acc =
  if acc.Layers.mismatched > 0 then begin
    gate.mismatched <- gate.mismatched + acc.mismatched;
    note gate "%s: %d replayed session(s) differ from the server" name acc.mismatched
  end

(* Mean [Server.feed] time, without the clock read each sample holds. *)
let feed_ns la = if la.feeds = 0 then 0. else (la.feed_ns /. float_of_int la.feeds) -. clock_ns ()

let replay la acc ~base s ~out =
  let t = now () in
  Layers.replay acc ~base s ~out;
  la.replay_ns <- la.replay_ns +. ns_since t

(* The replayed layers' metrics, and what tracing costs: the replays'
   time over the timed phases'.  The closed loops have no tracing in
   line. *)
let layer_metrics name la acc =
  let feed_ns = feed_ns la in
  if acc.Layers.reqs > 0 then
    Printf.printf
      "replay %s: replayed layers + server.self_ns = %.3f of server.feed_ns (clock read %.1f ns)\n"
      name (Layers.coverage acc ~feed_ns) (clock_ns ());
  Layers.metrics acc ~feed_ns
  @ [ ("trace.overhead_share", if la.timed_ns > 0. then la.replay_ns /. la.timed_ns else 0.) ]

(* ------------------------------------------------------------------ *)
(* The transport probe, part of svc-churn's traced run: session pairs
   replayed open loop over a Unix-domain socket, the only path through
   [Net_unix] and [Server.feed_batch]'s domain fan-out.  Each tick
   sends one request on each of 2 clients, pumps the server once
   ([Net_unix.step]) and drains both clients; a request's latency runs
   from its due time to the drain that decoded its reply.  Its
   latencies are too noisy on a shared host (they follow the cost of
   spawning a domain) to be an end-to-end metric, so it yields
   per-layer figures only. *)

let probe_rate = 1000.
let max_in_flight = 64
let late_limit_us = 200_000.

type net_acc = {
  mutable busy_steps : int;
  mutable step_ns : float;
  mutable batch_conns : int;
  mutable domains : int;  (** spawned while serving, closed-loop rounds included *)
  mutable sends : int;
  mutable send_ns : float;
  mutable drains : int;
  mutable drain_ns : float;
  mutable idle_ns : float;
  mutable timed_ns : float;
  mutable batch_calls : int;
  mutable batch_ns : float;
  mutable probes : int;
  late : Samples.t;
  latency : Samples.t;
}

let net_acc () =
  {
    busy_steps = 0; step_ns = 0.; batch_conns = 0; domains = 0; sends = 0;
    send_ns = 0.; drains = 0; drain_ns = 0.; idle_ns = 0.; timed_ns = 0.;
    batch_calls = 0; batch_ns = 0.; probes = 0;
    late = Samples.create 1024; latency = Samples.create 2048;
  }

let probe na ~gate ~sock (sessions : Sessions.t array) =
  let period = 1e9 /. probe_rate in
  let addr = Net.Unix_path sock in
  let n_req = Array.length sessions.(0).requests in
  let base = Script.base_system () in
  let server = Server.create ~base () in
  let net = Net.listen addr in
  let clients = Array.init 2 (fun _ -> Net.Client.connect addr) in
  ignore (Net.step net ~server ~timeout:0.1);
  let pending = Array.init 2 (fun _ -> Queue.create ()) in
  let got = Array.make 2 [] and sent = Array.make 2 0 in
  let stopped = Array.make 2 false in
  let late_replies = ref 0 in
  let step () =
    let t = now () in
    let busy = Net.step net ~server ~timeout:0. in
    if busy > 0 then begin
      na.busy_steps <- na.busy_steps + 1;
      na.step_ns <- na.step_ns +. ns_since t;
      na.batch_conns <- na.batch_conns + busy
    end
  in
  let drain () =
    for c = 0 to 1 do
      let t = now () in
      let replies = Net.Client.drain clients.(c) in
      let t1 = now () in
      na.drains <- na.drains + 1;
      na.drain_ns <- na.drain_ns +. Int64.to_float (Int64.sub t1 t);
      List.iter
        (fun r ->
          got.(c) <- r :: got.(c);
          match Queue.take_opt pending.(c) with
          | Some due ->
              let us = Int64.to_float (Int64.sub t1 due) /. 1e3 in
              Samples.add na.latency us;
              if us > late_limit_us then incr late_replies
          | None -> ())
        replies
    done
  in
  let domains0 = domains_spawned () in
  let start = Int64.add (now ()) 1_000_000L in
  for k = 0 to n_req - 1 do
    let due = Int64.add start (Int64.of_float (float_of_int k *. period)) in
    let w = now () in
    wait_until due;
    na.idle_ns <- na.idle_ns +. ns_since w;
    Samples.add na.late (ns_since due /. 1e3);
    for c = 0 to 1 do
      (* a bounded number in flight: an overloaded server fails the
         rest of the session instead of deadlocking this process *)
      if Queue.length pending.(c) >= max_in_flight then stopped.(c) <- true;
      if not stopped.(c) then begin
        let t = now () in
        Net.Client.send clients.(c) sessions.(c).requests.(k);
        na.send_ns <- na.send_ns +. ns_since t;
        na.sends <- na.sends + 1;
        Queue.add due pending.(c);
        sent.(c) <- sent.(c) + 1
      end
    done;
    step ();
    drain ()
  done;
  let deadline = Int64.add (now ()) 1_000_000_000L in
  while
    (not (Queue.is_empty pending.(0) && Queue.is_empty pending.(1)))
    && Int64.compare (now ()) deadline < 0
  do
    step ();
    drain ()
  done;
  na.timed_ns <- na.timed_ns +. ns_since start;
  na.probes <- na.probes + 1;
  Array.iter Net.Client.close clients;
  Net.shutdown net;
  na.domains <- na.domains + domains_spawned () - domains0 - 1;
  for c = 0 to 1 do
    let s = sessions.(c) in
    let out = Sessions.encode_replies (List.rev got.(c)) in
    let differing, missing = Sessions.verify ~sent:sent.(c) s out in
    gate.attempted <- gate.attempted + n_req;
    gate.failed <- gate.failed + differing + missing + (n_req - sent.(c));
    gate.mismatched <- gate.mismatched + differing
  done;
  gate.failed <- gate.failed + !late_replies;
  (* the fan-out the steps did in line, replayed on a shadow server *)
  let shadow = Server.create ~base () in
  let c0 = Server.open_conn shadow and c1 = Server.open_conn shadow in
  for k = 0 to n_req - 1 do
    let t = now () in
    ignore
      (Server.feed_batch shadow
         [ (c0, sessions.(0).frames.(k)); (c1, sessions.(1).frames.(k)) ]);
    na.batch_ns <- na.batch_ns +. ns_since t;
    na.batch_calls <- na.batch_calls + 1
  done

let probe_metrics na =
  let per n x = if n = 0 then 0. else x /. float_of_int n in
  let batch_ns = per na.batch_calls na.batch_ns in
  let step_ns = per na.busy_steps na.step_ns in
  let latency = Samples.to_array na.latency in
  [
    ("server.feed_batch_ns", batch_ns);
    ("server.feed_batch_conns", per na.busy_steps (float_of_int na.batch_conns));
    ("server.domains_spawned", per na.probes (float_of_int na.domains));
    ("net.step_ns", step_ns);
    ("net.step_self_ns", step_ns -. batch_ns);
    ("net.idle_share", if na.timed_ns > 0. then na.idle_ns /. na.timed_ns else 0.);
    ("net.client_send_ns", per na.sends na.send_ns);
    ("net.client_drain_ns", per na.drains na.drain_ns);
    ("net.latency_p50_us", quantile latency 0.5);
    ("net.latency_p99_us", quantile latency 0.99);
    ("gen.late_p99_us", quantile (Samples.to_array na.late) 0.99);
  ]

(* ------------------------------------------------------------------ *)
(* svc-churn: 2 connection slots, each serving [per_slot] bounded
   sessions back to back: open, register/arrive, mixed body, depart,
   close — all inside the timed phase.  Set-up is a cold server
   serving its first session pair. *)

let churn ~size ~seed ~gate ~traced ~seconds ~sock =
  let pool =
    Sessions.pool ~seed ~salt:1 (2 * size.per_slot)
      (Sessions.bounded ~base:(Script.base_system ()) ~body:size.body)
  in
  let samples = Samples.create (Array.length pool * (size.body + 6)) in
  let warm_samples = Samples.create 512 in
  let la = loop_acc () and acc = Layers.create () and warm = loop_acc () in
  (* both slots' sessions in lockstep, one request each in turn *)
  let session_pair la server sa sb samples =
    let ca = open_conn la server in
    let cb = open_conn la server in
    let ba = Buffer.create 16384 and bb = Buffer.create 16384 in
    for r = 0 to Array.length sa.Sessions.frames - 1 do
      serve la server ca sa.frames.(r) ba samples;
      serve la server cb sb.Sessions.frames.(r) bb samples
    done;
    close_conn la server ca;
    close_conn la server cb;
    [ (sa, Buffer.contents ba); (sb, Buffer.contents bb) ]
  in
  let t0 = now () in
  let round i =
    let ts = now () in
    let base = Script.base_system () in
    let server = Server.create ~base () in
    let first = session_pair warm server pool.(0) pool.(1) warm_samples in
    let setup_s = secs_since ts in
    Samples.clear samples;
    Samples.clear warm_samples;
    let gc = gc_acc () in
    let outs, timed_s =
      gc_charge gc (fun () ->
          let tt = now () in
          let outs =
            List.init size.per_slot (fun k ->
                session_pair la server pool.(2 * k) pool.((2 * k) + 1) samples)
          in
          (outs, secs_since tt))
    in
    la.timed_ns <- la.timed_ns +. (timed_s *. 1e9);
    let live_words = live_words server in
    List.iter (List.iter (fun (s, out) -> gate_session gate s out)) (first :: outs);
    (if traced then
       let s, out = List.nth (List.concat outs) (i mod Array.length pool) in
       replay la acc ~base s ~out);
    round_of ~setup_s ~timed_s ~ops:(Samples.length samples) ~samples ~gc ~live_words
  in
  let domains0 = domains_spawned () in
  let rounds = run_rounds ~t0 ~seconds round in
  let na = net_acc () in
  na.domains <- domains_spawned () - domains0 - 1;
  note_replay gate "svc-churn" acc;
  if traced then
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists sock then Sys.remove sock)
      (fun () ->
        for k = 0 to size.probes - 1 do
          probe na ~gate ~sock [| pool.(2 * k); pool.((2 * k) + 1) |]
        done);
  let per n x = if n = 0 then 0. else x /. float_of_int n in
  ( rounds,
    layer_metrics "svc-churn" la acc
    @ probe_metrics na
    @ [
        ("server.open_conn_ns", per la.opens la.open_ns);
        ("server.close_conn_ns", per la.closes la.close_ns);
      ] )

(* ------------------------------------------------------------------ *)
(* svc-deep: [pairs] times, 2 long-lived connections warmed to a fixed
   history depth (set-up), then a timed window of checks. *)

let deep ~size ~seed ~gate ~traced ~seconds =
  let pool =
    Sessions.pool ~seed ~salt:2 (2 * size.pairs)
      (Sessions.deep ~base:(Script.base_system ()) ~depth:size.depth ~window:size.window)
  in
  let samples = Samples.create (2 * size.pairs * size.window) in
  let warm_samples = Samples.create 16 in
  let la = loop_acc () and warm = loop_acc () and acc = Layers.create () in
  let t0 = now () in
  let round i =
    Samples.clear samples;
    let gc = gc_acc () in
    let setup_s = ref 0. and timed_s = ref 0. and live = ref 0 in
    for p = 0 to size.pairs - 1 do
      let sa = pool.(2 * p) and sb = pool.((2 * p) + 1) in
      let ts = now () in
      let base = Script.base_system () in
      let server = Server.create ~base () in
      let ca = Server.open_conn server and cb = Server.open_conn server in
      let ba = Buffer.create 65536 and bb = Buffer.create 65536 in
      for r = 0 to sa.Sessions.timed_from - 1 do
        serve warm server ca sa.frames.(r) ba warm_samples;
        serve warm server cb sb.Sessions.frames.(r) bb warm_samples;
        Samples.clear warm_samples
      done;
      setup_s := !setup_s +. secs_since ts;
      timed_s :=
        !timed_s
        +. gc_charge gc (fun () ->
               let tt = now () in
               for r = sa.timed_from to Array.length sa.frames - 1 do
                 serve la server ca sa.frames.(r) ba samples;
                 serve la server cb sb.frames.(r) bb samples
               done;
               secs_since tt);
      if p = size.pairs - 1 then live := live_words server;
      let oa = Buffer.contents ba and ob = Buffer.contents bb in
      gate_session gate sa oa;
      gate_session gate sb ob;
      (* one session of one pair a round, in turn *)
      if traced && p = i mod size.pairs then
        if i / size.pairs mod 2 = 0 then replay la acc ~base sa ~out:oa
        else replay la acc ~base sb ~out:ob
    done;
    la.timed_ns <- la.timed_ns +. (!timed_s *. 1e9);
    round_of ~setup_s:!setup_s ~timed_s:!timed_s ~ops:(Samples.length samples)
      ~samples ~gc ~live_words:!live
  in
  let domains0 = domains_spawned () in
  let rounds = run_rounds ~t0 ~seconds round in
  let domains = domains_spawned () - domains0 - 1 in
  note_replay gate "svc-deep" acc;
  ( rounds,
    layer_metrics "svc-deep" la acc
    @ [ ("server.domains_spawned", float_of_int domains /. float_of_int (List.length rounds)) ]
  )
