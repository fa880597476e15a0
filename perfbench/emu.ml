(* emu-coalition: batch emulation of the E19 uniform coalition.

   The coalition is built here rather than by
   [Scenarios.Scale_family.Soa.build_big] because the traced run needs
   the control system on a monotonic-clock bus, and [build_big] takes
   no bus; the preparation step checks that both builds process the
   same events with the same verdicts. *)

open Common
module World = Naplet.World
module System = Coordinated.System

let permissive ?bus () =
  let p = Rbac.Policy.create () in
  Rbac.Policy.add_user p "u1";
  Rbac.Policy.add_role p "worker";
  Rbac.Policy.grant p "worker" (Rbac.Perm.make ~operation:"*" ~target:"*@*");
  Rbac.Policy.assign_user p "u1" "worker";
  System.create ?bus ~bindings:[] p

let servers_for objects = max 4 (objects / 2_500)

let config objects =
  { World.default_config with World.max_events = (objects * 64) + 4096 }

(* The E19 shape: capacity-4 servers each holding r1; every agent reads
   r1 twice at home, except every 100th, which reads at home and then
   at the next server.  [offset] picks which agents are the 100th
   (E19 uses 0).  Returns the world and the spawn time (ns). *)
let build ?bus ~offset ~objects () =
  let control = permissive ?bus () in
  let world = World.create ~config:(config objects) control in
  let names = Array.init (servers_for objects) (fun i -> Printf.sprintf "s%d" (i + 1)) in
  let n = Array.length names in
  Array.iter
    (fun name ->
      let s = Naplet.Server.create ~capacity:4 name in
      Naplet.Server.put_resource s ~name:"r1" ~contents:"blob";
      World.add_server world s)
    names;
  let read at = Sral.Ast.Access (Sral.Access.read "r1" ~at) in
  let local = Array.map (fun s -> Sral.Ast.seq [ read s; read s ]) names in
  let hop =
    Array.mapi (fun i s -> Sral.Ast.seq [ read s; read names.((i + 1) mod n) ]) names
  in
  let t = now () in
  for i = 0 to objects - 1 do
    let home = i mod n in
    World.spawn world
      ~id:(Printf.sprintf "o%d" (i + 1))
      ~owner:"u1" ~roles:[ "worker" ] ~home:names.(home)
      (if (i + offset) mod 100 = 0 then hop.(home) else local.(home))
  done;
  (world, ns_since t)

type shape = { events : int; granted : int; denied : int; migrations : int; completed : int }

let shape_of world (m : Naplet.Metrics.t) =
  {
    events = World.processed_events world;
    granted = m.granted;
    denied = m.denied;
    migrations = m.migrations;
    completed = m.completed_agents;
  }

let pp_shape s =
  Printf.sprintf "events=%d granted=%d denied=%d migrations=%d completed=%d"
    s.events s.granted s.denied s.migrations s.completed

(* Latency samples: wall time per window of this many bus events. *)
let window = 250

let run ~objects ~seed ~gate ~traced ~seconds =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        gate.mismatched <- gate.mismatched + 1;
        note gate "emu-coalition: %s" msg)
      fmt
  in
  (* this coalition against the repository's own E19 build of it *)
  let shape_of_run w = shape_of w (World.run w) in
  let e19 =
    shape_of_run
      (Scenarios.Scale_family.Soa.build_big ~config:(config objects) ~objects
         ~servers:(servers_for objects) ())
  in
  let ours =
    let w, _ = build ~offset:0 ~objects () in
    shape_of_run w
  in
  if ours <> e19 then fail "coalition differs from E19's: %s vs %s" (pp_shape ours) (pp_shape e19);
  let offset = seed mod 100 in
  let expected_shape s =
    s.granted = 2 * objects && s.denied = 0 && s.completed = objects
    && s.migrations = e19.migrations
  in
  let first = ref None in
  let windows = Samples.create 1024 in
  let spans = Layers.create () in
  let spawn_ns = ref 0. and run_ns = ref 0. in
  let bus_events = ref 0 and n_rounds = ref 0 in
  let t0 = now () in
  let round _ =
    let ts = now () in
    let bus = if traced then Obs.Bus.create ~clock:now () else Obs.Bus.create () in
    let world, spawn = build ~bus ~offset ~objects () in
    let setup_s = secs_since ts in
    (* window sink: active only while the world runs *)
    let running = ref false and count = ref 0 and last = ref 0L in
    if traced then Obs.Bus.subscribe bus (Layers.span_sink spans running);
    Obs.Bus.subscribe bus
      (Obs.Sink.make ~name:"perfbench-windows" (fun _ ->
           if !running then begin
             incr count;
             if !count = window then begin
               let t = now () in
               Samples.add windows (Int64.to_float (Int64.sub t !last) /. 1e3);
               last := t;
               count := 0
             end
           end));
    Samples.clear windows;
    let gc = gc_acc () in
    let emitted0 = Obs.Bus.emitted bus in
    let metrics, run =
      gc_charge gc (fun () ->
          running := true;
          let tt = now () in
          last := tt;
          let metrics = World.run world in
          let run = ns_since tt in
          running := false;
          (metrics, run))
    in
    let got = shape_of world metrics in
    let live_words = live_words world in
    let accesses = got.granted + got.denied in
    gate.attempted <- gate.attempted + accesses;
    let reference = Option.value !first ~default:got in
    if got <> reference || not (expected_shape got) then begin
      gate.failed <- gate.failed + accesses;
      fail "round %s, first round %s" (pp_shape got) (pp_shape reference)
    end;
    if !first = None then first := Some got;
    spawn_ns := !spawn_ns +. spawn;
    run_ns := !run_ns +. run;
    bus_events := !bus_events + Obs.Bus.emitted bus - emitted0;
    incr n_rounds;
    round_of ~setup_s ~timed_s:(run /. 1e9) ~ops:got.events ~samples:windows ~gc
      ~live_words
  in
  let domains0 = domains_spawned () in
  let rounds = run_rounds ~t0 ~seconds round in
  let domains = domains_spawned () - domains0 - 1 in
  let n = float_of_int !n_rounds in
  let per_round = match !first with Some s -> float_of_int s.events | None -> 0. in
  let events = per_round *. n in
  let decisions = spans.grants + spans.denials in
  let per_decision x = if decisions = 0 then 0. else x /. float_of_int decisions in
  let span_ns = spans.rbac +. spans.spatial +. spans.temporal in
  ( rounds,
    [
      ("world.spawn_ns", !spawn_ns /. (n *. float_of_int objects));
      ("world.run_ns", !run_ns /. events);
      ("world.run_other_ns", (!run_ns -. span_ns) /. events);
      ("world.events", per_round);
      ("bus.events", float_of_int !bus_events /. n);
      ("decision.rbac_ns", per_decision spans.rbac);
      ("decision.spatial_ns", per_decision spans.spatial);
      ("decision.temporal_ns", per_decision spans.temporal);
      ("decision.grants", float_of_int spans.grants /. n);
      ("decision.denials", float_of_int spans.denials /. n);
      ("server.domains_spawned", float_of_int domains /. n);
    ] )
