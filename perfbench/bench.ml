(* The benchmark's entry point: one workload per run, end-to-end metrics
   ([--trace 0]) or per-layer metrics ([--trace 1]), the correctness
   gate always on.  The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  Usage is in
   README.md beside this file. *)

open Common

let workloads = [ "svc-churn"; "svc-deep"; "emu-coalition" ]

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("latency_p50_us", "us");
    ("latency_p99_us", "us");
    ("live_heap_mw", "Mw");
  ]

let per_layer =
  [
    ("frame.decode_ns", "ns");
    ("frame.encode_ns", "ns");
    ("protocol.decode_ns", "ns");
    ("protocol.encode_ns", "ns");
    ("frame.bytes_per_req", "B");
    ("server.open_conn_ns", "ns");
    ("server.close_conn_ns", "ns");
    ("system.new_session_ns", "ns");
    ("server.feed_ns", "ns");
    ("server.self_ns", "ns");
    ("system.check_ns", "ns");
    ("system.arrive_ns", "ns");
    ("decision.rbac_ns", "ns");
    ("decision.spatial_ns", "ns");
    ("decision.temporal_ns", "ns");
    ("decision.grants", "count");
    ("decision.denials", "count");
    ("decision.history_depth", "count");
    ("server.feed_batch_ns", "ns");
    ("server.feed_batch_conns", "count");
    ("server.domains_spawned", "count/round");
    ("net.step_ns", "ns");
    ("net.step_self_ns", "ns");
    ("net.idle_share", "share");
    ("net.client_send_ns", "ns");
    ("net.client_drain_ns", "ns");
    ("net.latency_p50_us", "us");
    ("net.latency_p99_us", "us");
    ("gen.late_p99_us", "us");
    ("gc.minor_words_per_op", "words/op");
    ("gc.minor_collections", "count/round");
    ("gc.major_collections", "count/round");
    ("world.spawn_ns", "ns");
    ("world.run_ns", "ns");
    ("world.run_other_ns", "ns");
    ("world.events", "count");
    ("bus.events", "count");
    ("trace.overhead_share", "share");
  ]

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;
  rev : string;
  nproc : string;
}

let emu_objects quick = if quick then 500 else 10_000

(* One measured phase of a workload. *)
let phase o ~gate ~traced ~seconds =
  let size = if o.quick then Svc.quick else Svc.full in
  match o.workload with
  | "svc-churn" ->
      let sock = Printf.sprintf ".perfbench-%d.sock" (Unix.getpid ()) in
      Svc.churn ~size ~seed:o.seed ~gate ~traced ~seconds ~sock
  | "svc-deep" -> Svc.deep ~size ~seed:o.seed ~gate ~traced ~seconds
  | "emu-coalition" ->
      Emu.run ~objects:(emu_objects o.quick) ~seed:o.seed ~gate ~traced ~seconds
  | w -> invalid_arg ("unknown workload " ^ w)

let med f rounds = median (Array.of_list (List.map f rounds))

(* Medians over rounds of the host-speed-scaled values (see
   [Common.slowdown]). *)
let e2e rounds =
  [
    ("setup_s", med (fun r -> r.setup_s /. r.slowdown) rounds);
    ("throughput_per_s", med (fun r -> throughput r *. r.slowdown) rounds);
    ("latency_p50_us", med (fun r -> r.p50_us /. r.slowdown) rounds);
    ("latency_p99_us", med (fun r -> r.p99_us /. r.slowdown) rounds);
    ("live_heap_mw", med (fun r -> float_of_int r.live_words) rounds /. 1e6);
  ]

(* The same medians as measured, for the report. *)
let raw rounds =
  [
    ("setup_s", med (fun r -> r.setup_s) rounds);
    ("throughput_per_s", med throughput rounds);
    ("latency_p50_us", med (fun r -> r.p50_us) rounds);
    ("latency_p99_us", med (fun r -> r.p99_us) rounds);
    ("host_slowdown", med (fun r -> r.slowdown) rounds);
  ]

let gc_layers rounds =
  let sum f = List.fold_left (fun a r -> a +. f r) 0. rounds in
  let n = float_of_int (List.length rounds) in
  let ops = sum (fun r -> float_of_int r.ops) in
  [
    ("gc.minor_words_per_op", sum (fun r -> r.minor_words) /. ops);
    ("gc.minor_collections", sum (fun r -> float_of_int r.minor_gcs) /. n);
    ("gc.major_collections", sum (fun r -> float_of_int r.major_gcs) /. n);
  ]

(* Drift with history or heap size: first-half vs second-half medians
   of the scaled round values. *)
let stationarity name rounds =
  let a = Array.of_list rounds in
  let h = Array.length a / 2 in
  let half lo len f = median (Array.map f (Array.sub a lo len)) in
  let report what f =
    if h >= 1 then begin
      let first = half 0 h f and second = half h (Array.length a - h) f in
      Printf.printf "stationarity %s %s: first half %.6g, second half %.6g, drift %+.2f%%\n"
        name what first second
        (100. *. (second -. first) /. first)
    end
  in
  report "throughput_per_s" (fun r -> throughput r *. r.slowdown);
  report "latency_p99_us" (fun r -> r.p99_us /. r.slowdown)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, unit_, v) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (fmt_value v) unit_)
       ms)

let with_units table values =
  List.map
    (fun (name, unit_) ->
      let v = Option.value (List.assoc_opt name values) ~default:0. in
      (name, unit_, if Float.is_nan v then 0. else v))
    table

(* Runs the workload and prints the report; returns the result line's
   fields. *)
let run o =
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n" o.workload o.seed
    o.seconds (Bool.to_int o.trace);
  Printf.printf "host rev=%s nproc=%s ocaml=%s recommended_domains=%d\n%!" o.rev
    o.nproc Sys.ocaml_version
    (Domain.recommended_domain_count ());
  let gate = Common.gate () in
  let metrics =
    if not o.trace then begin
      let rounds, _ = phase o ~gate ~traced:false ~seconds:o.seconds in
      let m = e2e rounds in
      Printf.printf "rounds=%d samples_per_round=%d\n" (List.length rounds)
        (match rounds with r :: _ -> r.samples | [] -> 0);
      stationarity o.workload rounds;
      List.iter (fun (n, v) -> Printf.printf "unscaled %s %.6g\n" n v) (raw rounds);
      with_units end_to_end m
    end
    else begin
      (* the untraced half gives the base for tracing overhead *)
      let half = o.seconds /. 2. in
      let plain, _ = phase o ~gate ~traced:false ~seconds:half in
      let traced, layers = phase o ~gate ~traced:true ~seconds:half in
      Printf.printf "rounds untraced=%d traced=%d\n" (List.length plain)
        (List.length traced);
      stationarity o.workload traced;
      (* tracing in line (the emulation's clocked bus) costs throughput;
         a workload that traces by replay reports the replays' cost *)
      let overhead =
        if List.mem_assoc "trace.overhead_share" layers then []
        else
          let scaled r = throughput r *. r.slowdown in
          [ ("trace.overhead_share", med scaled plain /. med scaled traced -. 1.) ]
      in
      with_units per_layer (layers @ gc_layers traced @ overhead)
    end
  in
  List.iter
    (fun (name, unit_, v) -> Printf.printf "metric %s %s %s\n" name (fmt_value v) unit_)
    metrics;
  List.iter (Printf.printf "gate: %s\n") (List.rev gate.notes);
  let correct = gate.mismatched = 0 in
  Printf.printf "gate attempted=%d failed=%d failed_share=%.6g correct=%b\n"
    gate.attempted gate.failed
    (float_of_int gate.failed /. float_of_int (max 1 gate.attempted))
    correct;
  (correct, gate.attempted, gate.failed, metrics)

let print_result (correct, attempted, failed, metrics) =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics metrics)

(* ------------------------------------------------------------------ *)
(* --self-test: every workload in its tiny configuration, both runs.
   Every metric BENCHMARK.json names must print, with its unit. *)

let names_in json =
  let key = "\"name\": \"" in
  let kl = String.length key in
  let rec go i acc =
    match String.index_from_opt json i '"' with
    | None -> List.rev acc
    | Some j ->
        if j + kl <= String.length json && String.sub json j kl = key then
          let k = String.index_from json (j + kl) '"' in
          go (k + 1) (String.sub json (j + kl) (k - j - kl) :: acc)
        else go (j + 1) acc
  in
  go 0 []

(* Runs [f] with standard output sent to /dev/null. *)
let quietly f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 null Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close null)
    f

let self_test file =
  let json = In_channel.with_open_bin file In_channel.input_all in
  let names = names_in json in
  let declared = List.filter (fun n -> not (List.mem n workloads)) names in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun w -> if not (List.mem w names) then fail "workload %s not declared" w)
    workloads;
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let o =
            {
              workload; seed = 1; seconds = 0.4; trace; quick = true; rev = "test";
              nproc = "?";
            }
          in
          let correct, attempted, _, metrics = quietly (fun () -> run o) in
          let value n =
            match List.find_opt (fun (m, _, _) -> m = n) metrics with
            | Some (_, _, v) -> v
            | None -> nan
          in
          if not correct then fail "%s: correctness gate" workload;
          if attempted < 1 then fail "%s: nothing attempted" workload;
          let table = if trace then per_layer else end_to_end in
          List.iter
            (fun (n, _) -> if not (List.mem n declared) then fail "%s not in %s" n file)
            table;
          List.iter (fun (n, u, _) -> if u = "" then fail "%s printed without a unit" n) metrics;
          if trace then begin
            let domains = value "server.domains_spawned" in
            (* [Server.feed_batch] fans out only where there is a second core *)
            if workload = "svc-churn" && Domain.recommended_domain_count () > 1
               && not (domains > 0.)
            then fail "svc-churn's transport probe spawned no domains";
            if workload <> "svc-churn" && domains <> 0. then
              fail "%s spawned domains" workload;
            (* timing ratios are not checked: tests run beside each other *)
            if workload <> "emu-coalition" && not (value "frame.bytes_per_req" > 0.)
            then fail "%s: nothing replayed" workload
          end
          else
            List.iter
              (fun (n, _, v) -> if not (v > 0.) then fail "%s: %s = %g" workload n v)
              metrics;
          Printf.printf "%s --trace %d: %d metrics\n%!" workload (Bool.to_int trace)
            (List.length metrics))
        [ false; true ])
    workloads;
  List.iter
    (fun n ->
      if not (List.mem_assoc n end_to_end || List.mem_assoc n per_layer) then
        fail "%s declared but never printed" n)
    declared;
  List.iter (fun s -> print_endline ("FAIL " ^ s)) (List.rev !failures);
  print_endline (if !failures = [] then "self-test ok" else "self-test FAILED");
  exit (if !failures = [] then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rev = ref "unknown" and nproc = ref "unknown" in
  let self = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " measured wall time (default 10)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--rev", Arg.Set_string rev, " source revision, for the report");
      ("--nproc", Arg.Set_string nproc, " host core count, for the report");
      ("--self-test", Arg.Set_string self, "FILE run the tests against BENCHMARK.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !self <> "" then self_test !self;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end;
  print_result
    (run
       {
         workload = !workload;
         seed = !seed;
         seconds = !seconds;
         trace = !trace = 1;
         quick = false;
         rev = !rev;
         nproc = !nproc;
       })
