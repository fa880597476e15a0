(* The experiment harness: one entry per experiment of EXPERIMENTS.md,
   each printing that experiment's table.  The paper has no
   quantitative tables; these rows validate its complexity and
   decidability claims and reproduce its scenarios (see DESIGN.md's
   per-experiment index).  Absolute timings differ across machines;
   the shapes (linear growth, exponential blowup, who wins, crossovers)
   are the result.

   Run with:  dune exec bench/main.exe            (every experiment)
              dune exec bench/main.exe -- E2 E7   (a selection)

   An unknown id, or an env knob that does not parse, exits 2 before
   any experiment runs. *)

module Q = Temporal.Q

(* ------------------------------------------------------------------ *)
(* Env knobs, all read and validated here at startup                   *)

let knob name ~default ~expect parse =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match parse (String.trim s) with
      | Some v -> v
      | None ->
          Printf.eprintf "%s=%S: expected %s\n%!" name s expect;
          exit 2)

let positive_int name default =
  knob name ~default ~expect:"a positive integer" (fun s ->
      match int_of_string_opt s with Some n when n > 0 -> Some n | _ -> None)

let e19_max_objects = positive_int "E19_MAX_OBJECTS" 1_000_000
let e19_conformance_runs = positive_int "E19_CONFORMANCE_RUNS" 25
let e19_trace_out = Sys.getenv_opt "E19_TRACE_OUT"
let e20_requests = positive_int "E20_REQUESTS" 20_000
let e20_gate_seeds = positive_int "E20_GATE_SEEDS" 5

let e20_rates =
  knob "E20_RATES" ~default:None
    ~expect:"comma-separated finite rates > 0 (requests/s)" (fun s ->
      let rates =
        List.map
          (fun tok -> float_of_string_opt (String.trim tok))
          (String.split_on_char ',' s)
      in
      if
        List.for_all
          (function Some r -> Float.is_finite r && r > 0.0 | None -> false)
          rates
      then Some (Some (List.filter_map Fun.id rates))
      else None)

let e21_gate_count = positive_int "E21_GATE_COUNT" 40
let e21_brute_cap = positive_int "E21_BRUTE_CAP" 500_000
let e22_gate_count = positive_int "E22_GATE_COUNT" 300
let e22_checks = positive_int "E22_CHECKS" 4000
let e22_trace_out = Sys.getenv_opt "E22_TRACE_OUT"

(* ------------------------------------------------------------------ *)
(* The timer and the shared workload builders                          *)

(* The one timer: the median over [repeats] samples of wall-clock ms
   per call of [f], each sample looping [f] for at least 20 ms on the
   monotonic clock. *)
let time_ms ?(repeats = 5) f =
  let sample () =
    let t0 = Monotonic_clock.now () in
    let rec loop calls =
      ignore (f ());
      let dt = Int64.sub (Monotonic_clock.now ()) t0 in
      if dt < 20_000_000L then loop (calls + 1)
      else Int64.to_float dt /. 1e6 /. float_of_int calls
    in
    loop 1
  in
  List.nth (List.sort compare (List.init repeats (fun _ -> sample ()))) (repeats / 2)

let rng_of seed = Random.State.make [| 0xC0FFEE; seed |]
let resources = [ "r1"; "r2"; "r3"; "r4" ]
let servers = [ "s1"; "s2"; "s3" ]

(* User u holds role r, which is granted [operation] on every target. *)
let policy ?(operation = "read") () =
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "u";
  Rbac.Policy.add_role policy "r";
  Rbac.Policy.assign_user policy "u" "r";
  Rbac.Policy.grant policy "r" (Rbac.Perm.make ~operation ~target:"*@*");
  policy

let mode_name = function
  | Coordinated.System.Naive -> "naive"
  | Coordinated.System.Lazy -> "lazy"

(* A conjunctive SRAC formula with [n] atomic constraints over the
   program's own accesses — the shape access policies actually take. *)
let random_formula ~n program seed =
  let rng = rng_of (seed + 17) in
  let accesses = Array.of_list (Sral.Program.accesses program) in
  let pick () = accesses.(Random.State.int rng (Array.length accesses)) in
  let atom () =
    match Random.State.int rng 3 with
    | 0 -> Srac.Formula.Atom (pick ())
    | 1 -> Srac.Formula.Ordered (pick (), pick ())
    | _ ->
        Srac.Formula.Card
          {
            lo = 0;
            hi = Some (5 + Random.State.int rng 4);
            sel = Srac.Selector.Server (List.nth servers (Random.State.int rng 3));
          }
  in
  let rec conj k =
    if k <= 1 then atom () else Srac.Formula.And (atom (), conj (k - 1))
  in
  conj (max 1 n)

(* ------------------------------------------------------------------ *)
(* E1–E12: the paper's claims and scenarios                            *)

let e1 () =
  let ordered = Scenarios.Integrity_audit.run () in
  let tampered = Scenarios.Integrity_audit.run ~respect_order:false () in
  let tight = Scenarios.Integrity_audit.run ~deadline:(Q.of_int 6) () in
  let loose = Scenarios.Integrity_audit.run ~deadline:(Q.of_int 100) () in
  Printf.printf "%-36s %8s %8s %10s %9s\n" "run" "granted" "denied" "verified"
    "deadline";
  let row name (r : Scenarios.Integrity_audit.report) =
    Printf.printf "%-36s %8d %8d %10b %9b\n" name
      r.Scenarios.Integrity_audit.granted r.Scenarios.Integrity_audit.denied
      r.Scenarios.Integrity_audit.all_verified
      r.Scenarios.Integrity_audit.deadline_hit
  in
  row "dependency order (compliant)" ordered;
  row "out of order (rejected)" tampered;
  row "deadline 6 (too tight)" tight;
  row "deadline 100 (met)" loose;
  let tamper = Scenarios.Integrity_audit.run ~tamper_contents:[ "g" ] () in
  let expected = Scenarios.Integrity_audit.expected_hashes () in
  let detected =
    List.filter
      (fun (m, h) -> not (String.equal (List.assoc m expected) h))
      tamper.Scenarios.Integrity_audit.hashes
  in
  Printf.printf "tamper detection: corrupted {g}, flagged {%s}\n"
    (String.concat "," (List.map fst detected));
  (* regenerate Figure 1 itself as GraphViz *)
  let dot =
    Digraph.to_dot ~name:"fig1"
      ~vertex_attr:(fun m ->
        Option.map
          (fun s -> Printf.sprintf "label=\"%s (%s)\"" m s)
          (List.assoc_opt m Scenarios.Integrity_audit.placement))
      (Scenarios.Integrity_audit.module_graph ())
  in
  let oc = open_out "fig1.dot" in
  output_string oc dot;
  close_out oc;
  Printf.printf "Figure 1 digraph written to fig1.dot (%d bytes)\n"
    (String.length dot)

(* One cell of the E2 grid: a random par-free program of size [m] and a
   conjunction of [n] atoms over its accesses. *)
let e2_case m n =
  let program =
    Sral.Generate.program ~allow_par:false ~allow_io:false ~resources ~servers
      ~size:m (rng_of (m + n))
  in
  (program, random_formula ~n program (m * n))

let e2 () =
  Printf.printf "%-10s" "m \\ n";
  List.iter (fun n -> Printf.printf "%12d" n) [ 2; 4; 8 ];
  Printf.printf "   (ms per check, Forall)\n";
  List.iter
    (fun m ->
      Printf.printf "%-10d" m;
      List.iter
        (fun n ->
          let program, formula = e2_case m n in
          let ms =
            time_ms (fun () ->
                Srac.Program_sat.check_bool ~modality:Srac.Program_sat.Forall
                  program formula)
          in
          Printf.printf "%12.3f" ms)
        [ 2; 4; 8 ];
      Printf.printf "\n%!")
    [ 20; 40; 80; 160; 320 ];
  Printf.printf
    "\nautomaton sizes (program states x constraint states), same grid:\n";
  Printf.printf "%-10s" "m \\ n";
  List.iter (fun n -> Printf.printf "%16d" n) [ 2; 4; 8 ];
  Printf.printf "\n";
  List.iter
    (fun m ->
      Printf.printf "%-10d" m;
      List.iter
        (fun n ->
          let program, formula = e2_case m n in
          let stats = Srac.Program_sat.instrument program formula in
          Printf.printf "%16s"
            (Printf.sprintf "%dx%d" stats.Srac.Program_sat.program_states
               stats.Srac.Program_sat.constraint_states))
        [ 2; 4; 8 ];
      Printf.printf "\n%!")
    [ 20; 80; 320 ]

let e3 () =
  let table =
    Automata.Symbol.of_accesses
      (List.concat_map
         (fun r -> List.map (fun s -> Sral.Access.read r ~at:s) servers)
         resources)
  in
  let trials = 500 in
  let rng = rng_of 3 in
  let ok = ref 0 in
  for _ = 1 to trials do
    let re =
      Automata.Regex.generate ~symbols:(Automata.Symbol.alphabet table)
        ~size:10 rng
    in
    let program = Automata.To_program.program ~table re in
    let l_re = Automata.Language.of_regex ~table re in
    let nfa = Automata.Of_program.nfa ~table program in
    let dfa =
      Automata.Dfa.minimize
        (Automata.Dfa.of_nfa ~alphabet:(Automata.Symbol.alphabet table) nfa)
    in
    if Automata.Dfa.equiv l_re.Automata.Language.dfa dfa then incr ok
  done;
  Printf.printf "random regexes:           %d\n" trials;
  Printf.printf "traces(program) = L(re):  %d  (%.1f%%)\n" !ok
    (100.0 *. float_of_int !ok /. float_of_int trials)

let e4 () =
  Printf.printf "%-14s %14s %14s\n" "breakpoints" "atomic (ms)" "chop (ms)";
  List.iter
    (fun k ->
      let v =
        Temporal.Step_fn.of_intervals
          (List.init k (fun i -> Temporal.Interval.of_ints (4 * i) ((4 * i) + 2)))
      in
      let interp name = if name = "v" then v else invalid_arg name in
      let interval = Temporal.Interval.of_ints 0 4096 in
      let atomic =
        Temporal.Duration_calculus.Dur_cmp
          (Temporal.State_expr.Var "v", Temporal.Duration_calculus.Le, Q.of_int k)
      in
      let chop = Temporal.Duration_calculus.Chop (atomic, atomic) in
      Printf.printf "%-14d %14.3f %14.3f\n%!" (2 * k)
        (time_ms (fun () -> Temporal.Duration_calculus.sat interp interval atomic))
        (time_ms (fun () -> Temporal.Duration_calculus.sat interp interval chop)))
    [ 8; 32; 128; 512 ]

let e5 () =
  Printf.printf
    "journey over 4 servers (arrive every 10), dur=7, permission active \
     throughout\n";
  Printf.printf "%-8s %16s %16s\n" "t" "whole-journey" "per-server";
  let arrivals = List.init 4 (fun i -> Q.of_int (10 * i)) in
  let active = Temporal.Step_fn.of_intervals [ Temporal.Interval.of_ints 0 40 ] in
  List.iter
    (fun t ->
      let check scheme =
        Temporal.Validity.is_valid_at ~scheme ~arrivals ~dur:(Some (Q.of_int 7))
          active (Q.of_int t)
      in
      Printf.printf "%-8d %16b %16b\n" t
        (check Temporal.Validity.Whole_journey)
        (check Temporal.Validity.Per_server))
    [ 0; 5; 8; 12; 15; 18; 25; 35 ]

let e6 () =
  let access = Sral.Access.read "db" ~at:"s1" in
  let program = Sral.Parser.program "read cfg @ s1; read db @ s1" in
  let spatial = Srac.Formula.Ordered (Sral.Access.read "cfg" ~at:"s1", access) in
  let perm = Rbac.Perm.make ~operation:"read" ~target:"db@s1" in
  let plain =
    let session = Rbac.Session.create (policy ()) ~user:"u" in
    Rbac.Session.activate session "r";
    fun () -> Rbac.Engine.decide_access session access
  in
  let coordinated bindings name =
    let control = Coordinated.System.create ~bindings (policy ()) in
    let session = Coordinated.System.new_session control ~user:"u" in
    Rbac.Session.activate session "r";
    Coordinated.System.arrive control ~object_id:name ~server:"s1" ~time:Q.zero;
    let t = ref 0 in
    fun () ->
      incr t;
      Coordinated.System.check control ~session ~object_id:name ~program
        ~time:(Q.of_int !t) access
  in
  let base = time_ms ~repeats:7 plain in
  Printf.printf "%-28s %12s %10s\n" "configuration" "us/decision" "x plain";
  let row name f =
    let ms = time_ms ~repeats:7 f in
    Printf.printf "%-28s %12.3f %10.1f\n%!" name (ms *. 1e3) (ms /. base)
  in
  Printf.printf "%-28s %12.3f %10.1f\n" "plain RBAC" (base *. 1e3) 1.0;
  row "coordinated, no binding" (coordinated [] "n");
  row "coordinated + spatial"
    (coordinated [ Coordinated.Perm_binding.make ~spatial perm ] "s");
  row "coordinated + temporal"
    (coordinated
       [ Coordinated.Perm_binding.make ~dur:(Q.of_int 1_000_000_000) perm ]
       "t");
  row "coordinated + both"
    (coordinated
       [
         Coordinated.Perm_binding.make ~spatial ~dur:(Q.of_int 1_000_000_000)
           perm;
       ]
       "b")

let e7 () =
  let program k =
    Sral.Ast.par
      (List.init k (fun i ->
           Sral.Ast.Seq
             ( Sral.Ast.Access (Sral.Access.read (Printf.sprintf "a%d" i) ~at:"s1"),
               Sral.Ast.Access (Sral.Access.read (Printf.sprintf "b%d" i) ~at:"s2") )))
  in
  let formula = Srac.Formula.at_most 999 (Srac.Selector.Server "s1") in
  Printf.printf "%-12s %10s %14s %14s\n" "par branches" "traces" "naive (ms)"
    "symbolic (ms)";
  List.iter
    (fun k ->
      let p = program k in
      let count = Srac.Naive.trace_count p in
      let naive_ms =
        time_ms ~repeats:3 (fun () ->
            (Srac.Naive.check ~modality:Srac.Program_sat.Forall p formula)
              .Srac.Program_sat.holds)
      in
      let sym_ms =
        time_ms ~repeats:3 (fun () ->
            Srac.Program_sat.check_bool ~modality:Srac.Program_sat.Forall p
              formula)
      in
      Printf.printf "%-12d %10d %14.3f %14.3f\n%!" k count naive_ms sym_ms)
    [ 2; 3; 4; 5 ]

(* [agents] random size-10 programs on [server_count] servers under an
   allow-everything policy, run to quiescence. *)
let emulate ?capacity ~agents ~server_count ~seed () =
  let control = Coordinated.System.create (policy ~operation:"*" ()) in
  let world = Naplet.World.create control in
  let names = List.init server_count (fun i -> Printf.sprintf "s%d" i) in
  List.iter
    (fun s -> Naplet.World.add_server world (Naplet.Server.create ?capacity s))
    names;
  let rng = rng_of seed in
  for i = 1 to agents do
    let program =
      Sral.Generate.program ~allow_io:false ~resources ~servers:names ~size:10
        rng
    in
    Naplet.World.spawn world
      ~id:(Printf.sprintf "a%d" i)
      ~owner:"u" ~roles:[ "r" ] ~home:(List.hd names) program
  done;
  Naplet.World.run world

let e8 () =
  Printf.printf "%-22s %12s %12s %14s\n" "agents x servers" "granted"
    "sim time" "wall (ms)";
  List.iter
    (fun (agents, server_count) ->
      let run = emulate ~agents ~server_count ~seed:((agents * 31) + server_count) in
      let metrics = run () in
      let ms = time_ms ~repeats:3 run in
      Printf.printf "%-22s %12d %12s %14.2f\n%!"
        (Printf.sprintf "%d x %d" agents server_count)
        metrics.Naplet.Metrics.granted
        (Q.to_string metrics.Naplet.Metrics.end_time)
        ms)
    [ (1, 4); (4, 4); (16, 8); (64, 16) ];
  Printf.printf
    "\nserver capacity ablation (16 agents on 4 servers, same workload):\n";
  Printf.printf "%-12s %12s %14s\n" "capacity" "granted" "sim time";
  List.iter
    (fun capacity ->
      let metrics = emulate ~capacity ~agents:16 ~server_count:4 ~seed:404 () in
      Printf.printf "%-12d %12d %14s\n%!" capacity
        metrics.Naplet.Metrics.granted
        (Q.to_string metrics.Naplet.Metrics.end_time))
    [ 1; 2; 4; 16 ]

let e9 () =
  Printf.printf "%-14s %16s %16s\n" "par branches" "minimal states"
    "build (ms)";
  List.iter
    (fun k ->
      let branch i =
        Sral.Ast.Seq
          ( Sral.Ast.Access (Sral.Access.read (Printf.sprintf "x%d" i) ~at:"s1"),
            Sral.Ast.Access (Sral.Access.write (Printf.sprintf "y%d" i) ~at:"s2") )
      in
      let program = Sral.Ast.par (List.init k branch) in
      let states =
        Automata.Language.state_count (Automata.Language.of_program program)
      in
      let ms =
        time_ms ~repeats:3 (fun () -> Automata.Language.of_program program)
      in
      Printf.printf "%-14d %16d %16.3f\n%!" k states ms)
    [ 1; 2; 3; 4; 5; 6 ]

let e10 () =
  Printf.printf "%-14s %12s %12s %12s\n" "uses at s1" "s1 granted"
    "s2 granted" "s2 locked";
  List.iter
    (fun s1_uses ->
      let o = Scenarios.License_guard.run ~s1_uses () in
      Printf.printf "%-14d %12d %12d %12b\n" s1_uses
        o.Scenarios.License_guard.granted_s1
        o.Scenarios.License_guard.granted_s2
        o.Scenarios.License_guard.s2_locked_out)
    [ 3; 4; 5; 6; 7; 10 ];
  Printf.printf "\nnewspaper deadline (22:00 session, 03:00 deadline):\n";
  Printf.printf "%-28s %10s %10s\n" "scheme" "granted" "denied";
  let j = Scenarios.Newspaper.run () in
  let p = Scenarios.Newspaper.run ~scheme:Temporal.Validity.Per_server () in
  Printf.printf "%-28s %10d %10d\n" "whole-journey"
    j.Scenarios.Newspaper.edits_granted j.Scenarios.Newspaper.edits_denied;
  Printf.printf "%-28s %10d %10d\n" "per-server"
    p.Scenarios.Newspaper.edits_granted p.Scenarios.Newspaper.edits_denied

let e11 () =
  Printf.printf
    "permission: 'editing', needed 4h of work; interval model enables it\n\
     daily 22:00-03:00; duration model grants a 4h budget from arrival.\n\n";
  Printf.printf "%-14s %22s %22s\n" "arrival (h)" "interval model (h)"
    "duration model (h)";
  let window = Temporal.Periodic.daily ~start_hour:(Q.of_int 22) ~length_hours:(Q.of_int 5) in
  List.iter
    (fun arrival_h ->
      let arrival = Q.of_int arrival_h in
      (* hourly work attempts for 8 hours after arrival *)
      let attempts = List.init 8 (fun i -> Q.add arrival (Q.of_int i)) in
      let interval_grants =
        List.length (List.filter (Temporal.Periodic.contains window) attempts)
      in
      let active = Temporal.Step_fn.of_changes ~init:false [ (arrival, true) ] in
      let duration_grants =
        List.length
          (List.filter
             (fun t ->
               Temporal.Validity.is_valid_at
                 ~scheme:Temporal.Validity.Whole_journey ~arrivals:[ arrival ]
                 ~dur:(Some (Q.of_int 4)) active t)
             attempts)
      in
      Printf.printf "%-14d %22d %22d\n" arrival_h interval_grants
        duration_grants)
    [ 20; 22; 24; 25; 26; 28 ];
  Printf.printf
    "\nthe interval model's effective budget depends on when the mobile\n\
     object happens to arrive (0-5h); the duration model always grants\n\
     exactly the 4h the permission promises — the paper's argument for\n\
     durations over interval timing, quantified.\n";
  (* GTRBAC trigger route: the same window, administered by events *)
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "e";
  Rbac.Policy.add_role policy "editor";
  Rbac.Policy.assign_user policy "e" "editor";
  Rbac.Policy.grant policy "editor" (Rbac.Perm.make ~operation:"write" ~target:"*@*");
  let g = Rbac.Gtrbac.create policy in
  (* nightly enable at 22 with a trigger closing it 5h later *)
  Rbac.Gtrbac.add_trigger g
    { Rbac.Gtrbac.on = Rbac.Gtrbac.Enable "editor"; after = Q.of_int 5;
      fire = Rbac.Gtrbac.Disable "editor" };
  Rbac.Gtrbac.post g ~at:(Q.of_int 22) (Rbac.Gtrbac.Enable "editor");
  Rbac.Gtrbac.process g;
  let session = Rbac.Session.create policy ~user:"e" in
  Rbac.Session.activate session "editor";
  Printf.printf
    "\nGTRBAC trigger route (enable at 22, disable trigger after 5h):\n";
  List.iter
    (fun h ->
      Printf.printf "  %02d:00 -> %s\n" h
        (match
           Rbac.Gtrbac.decide g session ~at:(Q.of_int h) ~operation:"write"
             ~target:"issue@press"
         with
        | Rbac.Engine.Granted -> "granted"
        | Rbac.Engine.Denied _ -> "denied"))
    [ 21; 23; 26; 28 ]

let e12 () =
  let with_team = Scenarios.Teamwork.run () in
  let without = Scenarios.Teamwork.run ~share_proofs:false () in
  Printf.printf "%-26s %14s %14s %10s\n" "survey team" "scout reads"
    "vault commits" "denied";
  Printf.printf "%-26s %14d %14d %10d\n" "team proofs (companions)"
    with_team.Scenarios.Teamwork.scout_reads
    with_team.Scenarios.Teamwork.courier_commits
    with_team.Scenarios.Teamwork.courier_denied;
  Printf.printf "%-26s %14d %14d %10d\n" "own proofs only"
    without.Scenarios.Teamwork.scout_reads
    without.Scenarios.Teamwork.courier_commits
    without.Scenarios.Teamwork.courier_denied;
  Printf.printf "\naudit under deadline 15, single agent vs cloned naplets:\n";
  Printf.printf "%-26s %12s %12s %12s\n" "configuration" "granted" "verified"
    "reports";
  let single = Scenarios.Integrity_audit.run ~deadline:(Q.of_int 15) () in
  Printf.printf "%-26s %12d %12b %12s\n" "single agent"
    single.Scenarios.Integrity_audit.granted
    single.Scenarios.Integrity_audit.all_verified "-";
  List.iter
    (fun clones ->
      let p =
        Scenarios.Integrity_audit.run_parallel ~clones
          ~deadline:(Q.of_int 15) ()
      in
      Printf.printf "%-26s %12d %12b %12d\n"
        (Printf.sprintf "%d clones" clones)
        p.Scenarios.Integrity_audit.base.Scenarios.Integrity_audit.granted
        p.Scenarios.Integrity_audit.base.Scenarios.Integrity_audit.all_verified
        p.Scenarios.Integrity_audit.reports_collected)
    [ 2; 3; 4 ];
  (* aggregation (the paper's future work) *)
  let perm = Rbac.Perm.make ~operation:"read" ~target:"db@s1" in
  let bindings =
    List.init 8 (fun i ->
        Coordinated.Perm_binding.make ~dur:(Q.of_int (5 + i)) perm)
  in
  let groups, merged = Coordinated.Aggregate.stats bindings in
  Printf.printf
    "\nbinding aggregation: 8 duration bindings on one permission -> %d \
     group(s), %d binding(s) after aggregation\n"
    groups merged

(* ------------------------------------------------------------------ *)
(* E13 — decision fast path: check latency vs coalition size.  [Naive]
   is the seed's linear path (binding scan + companion fold over every
   object in the coalition); [Lazy] resolves bindings through
   Binding_index, companions through team rosters and history-scope
   constraints through per-monitor derivative residuals.  The naive
   curve should grow with the object count, the lazy one stay flat.

   The workload, shared with E14: one binding that matters plus 15
   that never match the probed access, and a coalition of [objects]
   in teams of 8.  The probed object's companions are its 7 teammates
   either way, but the naive path rediscovers them by folding over all
   [objects].  Returns a check of [read db@s1] at time [t]. *)

let fastpath_check ?bus ~mode ~objects () =
  let access = Sral.Access.read "db" ~at:"s1" in
  let program = Sral.Parser.program "read cfg @ s1; read db @ s1" in
  let spatial = Srac.Formula.Ordered (Sral.Access.read "cfg" ~at:"s1", access) in
  let bindings =
    Coordinated.Perm_binding.make ~spatial
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
    :: List.init 15 (fun i ->
           Coordinated.Perm_binding.make
             ~dur:(Q.of_int 1_000_000_000)
             (Rbac.Perm.make ~operation:"read"
                ~target:(Printf.sprintf "aux%d@s9" i)))
  in
  let control =
    Coordinated.System.create ~mode ~bindings ~log_capacity:1024 ?bus
      (policy ())
  in
  let session = Coordinated.System.new_session control ~user:"u" in
  Rbac.Session.activate session "r";
  for i = 0 to objects - 1 do
    Coordinated.System.join_team control
      ~object_id:(Printf.sprintf "o%d" i)
      ~team:(Printf.sprintf "t%d" (i / 8))
  done;
  Coordinated.System.arrive control ~object_id:"o0" ~server:"s1" ~time:Q.zero;
  fun t ->
    Coordinated.System.check control ~session ~object_id:"o0" ~program
      ~time:(Q.of_int t) access

let e13 () =
  Printf.printf "%-10s %18s %18s\n" "objects" "naive (us/check)"
    "lazy (us/check)";
  List.iter
    (fun objects ->
      let us mode =
        let check = fastpath_check ~mode ~objects () in
        let t = ref 0 in
        1e3
        *. time_ms (fun () ->
               incr t;
               check !t)
      in
      Printf.printf "%-10d %18.2f %18.2f\n%!" objects
        (us Coordinated.System.Naive)
        (us Coordinated.System.Lazy))
    [ 16; 64; 256; 1024 ]

(* ------------------------------------------------------------------ *)
(* E14 — per-stage decision latency through the observability spine.
   The E13 workload re-run with a monotonic-clock trace bus and an
   [Obs.Stats] sink subscribed: every check emits rbac/spatial/temporal
   stage spans, and the histograms answer where a decision spends its
   time — not just how long it takes end to end.  The spans themselves
   are the measurement.                                                *)

let e14 () =
  List.iter
    (fun mode ->
      List.iter
        (fun objects ->
          let bus = Obs.Bus.create ~clock:Monotonic_clock.now () in
          let stats = Obs.Stats.create () in
          Obs.Bus.subscribe bus (Obs.Stats.sink stats);
          let check = fastpath_check ~bus ~mode ~objects () in
          for t = 1 to 10_000 do
            ignore (check t)
          done;
          Printf.printf "  -- %s, objects=%04d, checks=10000 --\n%!"
            (mode_name mode) objects;
          Format.printf "%a@." Obs.Stats.pp stats)
        [ 16; 1024 ])
    [ Coordinated.System.Naive; Coordinated.System.Lazy ]

(* ------------------------------------------------------------------ *)
(* E15 — resilience under deterministic chaos.  The Figure-1 coalition
   (audit agent + couriers + channel traffic) re-run under each named
   fault intensity in both decision modes; we report wall-clock time,
   fault/retry counts and the retry amplification factor (retries per
   completed migration) so degradation can be read off as a function
   of fault rate.  Each run is deterministic, so the counters are the
   measurement.                                                        *)

let e15 () =
  Printf.printf
    "  %-8s %-10s %7s %8s %7s %7s %7s %7s %7s %9s %10s\n%!" "mode" "plan"
    "events" "granted" "unavail" "faults" "retries" "gaveup" "ampl"
    "simtime" "wall";
  List.iter
    (fun mode ->
      List.iter
        (fun plan_name ->
          let run () =
            Scenarios.Chaos.run ~mode ~plan_name ~seed:42 ~couriers:12 ()
          in
          let report = run () in
          let wall_ms = time_ms ~repeats:3 run in
          let m = report.Scenarios.Chaos.metrics in
          let amplification =
            if m.Naplet.Metrics.migrations = 0 then 0.
            else
              float_of_int m.Naplet.Metrics.retries
              /. float_of_int m.Naplet.Metrics.migrations
          in
          (match report.Scenarios.Chaos.violations with
          | [] -> ()
          | vs ->
              Printf.printf "  !! %d invariant violation(s) under %s/%s\n%!"
                (List.length vs) (mode_name mode) plan_name);
          Printf.printf
            "  %-8s %-10s %7d %8d %7d %7d %7d %7d %7.2f %9s %7.2f ms\n%!"
            (mode_name mode) plan_name
            (List.length report.Scenarios.Chaos.trace)
            m.Naplet.Metrics.granted m.Naplet.Metrics.denied_unavailable
            m.Naplet.Metrics.faults_injected m.Naplet.Metrics.retries
            m.Naplet.Metrics.gave_up amplification
            (Q.to_string m.Naplet.Metrics.end_time)
            wall_ms)
        Fault.Plan.intensity_names)
    [ Coordinated.System.Naive; Coordinated.System.Lazy ]

(* ------------------------------------------------------------------ *)
(* E16 — static analyzer cost, phase by phase.  One synthetic policy
   per size [k]: k bindings whose constraints chain k distinct
   resources over two servers, so the closure alphabet grows linearly
   with k.  The phases are measured separately — formula-to-DFA
   compilation, per-binding emptiness, the O(k²) pairwise inclusion
   stage — plus the whole [Analyzer.analyze] pass, and the paper's
   Fig. 1 audit policy as a fixed reference point.                     *)

let e16 () =
  let synth k =
    let res i = Printf.sprintf "r%d" i in
    let bindings =
      List.init k (fun i ->
          let dep = Sral.Access.read (res ((i + 1) mod k)) ~at:"s2" in
          let own = Sral.Access.read (res i) ~at:"s1" in
          Coordinated.Perm_binding.make
            ~spatial:
              (Srac.Formula.And
                 ( Srac.Formula.Ordered (dep, own),
                   Srac.Formula.at_most 3 (Srac.Selector.Resource (res i)) ))
            ~spatial_scope:Coordinated.Perm_binding.Performed
            (Rbac.Perm.make ~operation:"read" ~target:(res i ^ "@s1")))
    in
    { Coordinated.Policy_lang.policy = policy (); bindings }
  in
  let us f = Printf.sprintf "%.1f" (1e3 *. time_ms f) in
  Printf.printf "  %-20s %12s %12s %12s %12s   (us)\n%!" "workload"
    "1-compile" "2-emptiness" "3-inclusion" "4-analyze";
  List.iter
    (fun k ->
      let parsed = synth k in
      let world = Analysis.World.of_policy parsed in
      let formulas =
        List.filter_map
          (fun b -> b.Coordinated.Perm_binding.spatial)
          parsed.Coordinated.Policy_lang.bindings
      in
      let accs =
        List.sort_uniq Sral.Access.compare
          (Srac.Decide.closure_alphabet formulas @ world.Analysis.World.universe)
      in
      let table = Automata.Symbol.of_accesses accs in
      let compile () =
        List.map (Srac.Compile.dfa ~table ~proofs:Srac.Proof.always) formulas
      in
      let dfas = compile () in
      let inclusion () =
        List.fold_left
          (fun n d1 ->
            List.fold_left
              (fun n d2 ->
                if d1 != d2 && Automata.Dfa.subset d1 d2 then n + 1 else n)
              n dfas)
          0 dfas
      in
      Printf.printf "  %-20s %12s %12s %12s %12s\n%!"
        (Printf.sprintf "k = %d" k)
        (us compile)
        (us (fun () -> List.map Automata.Dfa.is_empty dfas))
        (us inclusion)
        (us (fun () -> Analysis.Analyzer.analyze ~world parsed)))
    [ 4; 8; 16 ];
  let fig1 = Scenarios.Policy_review.fig1 () in
  let fig1_world = Scenarios.Policy_review.fig1_world () in
  Printf.printf "  %-20s %12s %12s %12s %12s\n%!" "fig1 (10 bindings)" "-" "-"
    "-"
    (us (fun () -> Analysis.Analyzer.analyze ~world:fig1_world fig1))

(* ------------------------------------------------------------------ *)
(* E17 — sharded parallel decision engine.  A workload of generated
   coalitions interpreted by the sequential engine and by the sharded
   engine at 1/2/4/8 shards; each cell reports wall-clock, requests per
   second over the workload's Check events, and speedup relative to the
   sequential run.  The table closes with the differential conformance
   harness (parallel = sequential on verdicts, audit statistics and
   merged trace bytes) — throughput numbers only count if that gate
   passes.  Real scaling needs real cores: on a single-CPU host (or the
   4.14 single-shard fallback) expect speedup ≈ 1.0 minus domain
   overhead; the backend line states what the run actually had. *)

let e17 () =
  let coalitions = 96 in
  let scenarios =
    Parallel.Workload.coalitions ~objects:4 ~events:60 ~salt:1717
      ~count:coalitions 0
  in
  let checks =
    Array.fold_left (fun acc sc -> acc + Parallel.Scenario.checks sc) 0 scenarios
  in
  let seq_ms =
    time_ms ~repeats:3 (fun () -> Parallel.Engine.sequential scenarios)
  in
  Printf.printf "  backend: %s, recommended shards: %d\n"
    (if Parallel.Backend.domains then "ocaml5-domains" else "single-4.14")
    (Parallel.Backend.recommended ());
  Printf.printf "  workload: %d coalitions, %d checks\n" coalitions checks;
  Printf.printf "  %-12s %7s %10s %12s %8s\n%!" "engine" "shards" "wall"
    "req/s" "speedup";
  let row name shards ms =
    Printf.printf "  %-12s %7s %8.2f ms %12.0f %7.2fx\n%!" name shards ms
      (float_of_int checks /. (ms /. 1e3))
      (seq_ms /. ms)
  in
  row "sequential" "-" seq_ms;
  List.iter
    (fun shards ->
      row "sharded" (string_of_int shards)
        (time_ms ~repeats:3 (fun () ->
             Parallel.Engine.sharded ~shards scenarios)))
    [ 1; 2; 4; 8 ];
  let gate = Parallel.Engine.verify ~shards:4 (Array.sub scenarios 0 24) in
  Format.printf "  %a@." Parallel.Engine.pp_report gate;
  if gate.Parallel.Engine.divergences <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* E18 — workflow satisfiability: checker cost vs task count against
   the brute-force assignment enumerator, plus the agreement gate the
   differential suite enforces (zero divergences, every witness
   replays). *)

let e18 () =
  let module W = Scenarios.Workflow_family in
  let module Sat = Scenarios.Workflow_sat in
  (* half satisfiable (the checker must build a witness), half
     adversarial (mostly unsat at larger sizes — the pruning side) *)
  let batch tasks =
    Array.append
      (W.workflows W.Satisfiable ~tasks ~performers:3 ~salt:1818 ~count:12 0)
      (W.workflows W.Adversarial ~tasks ~performers:3 ~salt:1818 ~count:12 0)
  in
  Printf.printf
    "  24 workflows per row (12 satisfiable + 12 adversarial), 3 performers\n";
  Printf.printf "  %-6s %14s %14s %9s %7s\n%!" "tasks" "checker" "brute-force"
    "ratio" "sat";
  List.iter
    (fun tasks ->
      let wfs = batch tasks in
      let sat =
        Array.fold_left
          (fun n -> function Sat.Complete _ -> n + 1 | Sat.Impossible _ -> n)
          0 (Array.map Sat.check wfs)
      in
      let checker_ms = time_ms ~repeats:3 (fun () -> Array.map Sat.check wfs) in
      let brute_ms =
        time_ms ~repeats:3 (fun () -> Array.map Sat.brute_force wfs)
      in
      Printf.printf "  %-6d %11.2f ms %11.2f ms %8.1fx %5d/24\n%!" tasks
        checker_ms brute_ms (brute_ms /. checker_ms) sat)
    [ 2; 3; 4; 5; 6 ];
  (* agreement gate, as in the differential suite *)
  let divergences = ref 0 and total = ref 0 in
  List.iter
    (fun fam ->
      Array.iter
        (fun wf ->
          incr total;
          match Sat.against_brute_force wf with
          | Sat.Agree_sat _ | Sat.Agree_unsat _ -> ()
          | Sat.Divergent d ->
              incr divergences;
              Printf.printf "  divergence: %s\n%!" d)
        (W.workflows fam ~salt:1819 ~count:40 0))
    [ W.Satisfiable; W.Unsatisfiable; W.Adversarial ];
  Printf.printf "  agreement: %d/%d (%d divergence(s))\n%!"
    (!total - !divergences) !total !divergences;
  if !divergences > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* E19 — million-object coalitions on the struct-of-arrays engine.
   Two parts.  First the conformance gate: a span of randomized
   coalitions (teams, channel traffic, fault plans, a mid-run admin
   action) is driven through both the SoA world and the retained
   legacy world by the same functorized harness, and their exported
   traces are compared byte for byte — the scaling numbers only count
   if that gate passes.  Then the scaling table: uniform coalitions of
   10^3..10^6 agents, reporting build time (spawn + arrival), run
   time, processed events, steady-state events per second, and memory
   (live words after a major GC, plus the process peak heap).  Build
   and run are one-shot: the run consumes the built world.

   Env knobs for CI: [E19_MAX_OBJECTS] caps the largest scale (default
   1_000_000); [E19_CONFORMANCE_RUNS] sizes the gate (default 25);
   [E19_TRACE_OUT] additionally writes the fixed-seed (salt 1919,
   seed 7) SoA trace to a file so two runs can be [cmp]'d for byte
   determinism. *)

let e19 () =
  let runs = e19_conformance_runs in
  let diverged = Scenarios.Scale_family.divergences ~runs 0 in
  Printf.printf
    "  conformance (SoA vs legacy): %d randomized coalitions, %d \
     divergence(s)%s\n%!"
    runs (List.length diverged)
    (match diverged with
    | [] -> ""
    | seeds ->
        " at seed(s) " ^ String.concat "," (List.map string_of_int seeds));
  if diverged <> [] then exit 1;
  (match e19_trace_out with
  | None -> ()
  | Some path ->
      let trace = Scenarios.Scale_family.Soa.random_trace ~salt:1919 ~seed:7 () in
      let oc = open_out path in
      output_string oc trace;
      close_out oc;
      Printf.printf "  fixed-seed trace: %d bytes written to %s\n%!"
        (String.length trace) path);
  Printf.printf "  %-9s %7s %10s %10s %10s %11s %9s %9s\n%!" "objects"
    "servers" "build" "run" "events" "events/s" "live" "peak";
  List.iter
    (fun objects ->
      if objects <= e19_max_objects then begin
        let servers = max 4 (objects / 2_500) in
        let config =
          {
            Naplet.World.default_config with
            Naplet.World.max_events = (objects * 64) + 4096;
          }
        in
        let t0 = Monotonic_clock.now () in
        let world =
          Scenarios.Scale_family.Soa.build_big ~config ~objects ~servers ()
        in
        let t1 = Monotonic_clock.now () in
        ignore (Naplet.World.run world);
        let t2 = Monotonic_clock.now () in
        (* stat while the world is still reachable, so live words count
           its state tables, not just the residue after collection *)
        Gc.full_major ();
        let stat = Gc.stat () in
        let events = Naplet.World.processed_events world in
        let run_s = Int64.to_float (Int64.sub t2 t1) /. 1e9 in
        Printf.printf
          "  %-9d %7d %8.2f s %8.2f s %10d %11.0f %7.1fMw %7.1fMw\n%!" objects
          servers
          (Int64.to_float (Int64.sub t1 t0) /. 1e9)
          run_s events
          (float_of_int events /. run_s)
          (float_of_int stat.Gc.live_words /. 1e6)
          (float_of_int stat.Gc.top_heap_words /. 1e6)
      end)
    [ 1_000; 10_000; 100_000; 1_000_000 ]

(* ------------------------------------------------------------------ *)
(* E20 — decision service: differential gate + saturation sweep.
   First the gate: the same seeded request scripts through the full
   stack (framing, the deterministic transport, the server core) and
   through an independent per-request drive straight on
   [Coordinated.System] must render byte-identical reply streams, and
   the simulated drive must be bit-reproducible.  Then the numbers: a
   closed-loop run fixes this host's per-request service rate, and an
   open-loop sweep at fractions and multiples of it shows the
   saturation knee — achieved rate tracks offered until the server
   sheds, with latency measured from each request's due time so
   queueing under overload is charged to the server, not hidden by a
   stalling client.

   Env knobs for CI: [E20_REQUESTS] sizes each measured run (default
   20_000); [E20_GATE_SEEDS] sizes the differential gate (default 5);
   [E20_RATES] overrides the offered-rate list (comma-separated,
   requests/s; default 1/4x, 1/2x, 1x, 3/2x the closed-loop rate). *)

let e20 () =
  let requests = e20_requests in
  let base = Service.Script.base_system () in
  let diverged = ref 0 in
  for seed = 1 to e20_gate_seeds do
    let script = Service.Script.generate ~conns:4 ~requests:200 ~seed () in
    let sim = Service.Script.render (Service.Script.run_sim ~base script) in
    let sim' = Service.Script.render (Service.Script.run_sim ~base script) in
    let direct =
      Service.Script.render (Service.Script.drive_direct ~base script)
    in
    if sim <> direct || sim <> sim' then incr diverged
  done;
  Printf.printf
    "  differential gate (sim vs direct, %d seed(s) x 200 requests): %d \
     divergence(s)\n%!"
    e20_gate_seeds !diverged;
  if !diverged > 0 then exit 1;
  let closed = Service.Load.closed ~base ~requests () in
  let rates =
    match e20_rates with
    | Some rates -> rates
    | None ->
        let c = closed.Service.Load.achieved in
        List.map (fun f -> Float.round (c *. f)) [ 0.25; 0.5; 1.0; 1.5 ]
  in
  let fmt = Format.std_formatter in
  Format.fprintf fmt "  %a@." Service.Load.pp_header ();
  Format.fprintf fmt "  %a@." Service.Load.pp_row closed;
  List.iter
    (fun r -> Format.fprintf fmt "  %a@." Service.Load.pp_row r)
    (Service.Load.sweep ~base ~requests ~rates ());
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* E21 — administrative safety: the symbolic reachability engine vs
   explicit op-sequence enumeration.  Three parts.  First the
   agreement gate the differential suite enforces: on the small-model
   families, verdict constructors must agree exactly and every Leak
   witness must replay to a grant — the numbers only count if the gate
   passes (divergence exits 1).  Then a timing table on the
   adversarial small models.  Then the scale table: SoD-free
   Safe instances (the hard case — a Safe answer requires exhausting
   the reachable deployments) where the symbolic engine's state dedup
   collapses the n!-sequence space to 2^n deployments while the
   enumeration baseline hits its node cap.

   Env knobs for CI: [E21_GATE_COUNT] sizes the gate per family
   (default 40); [E21_BRUTE_CAP] is the enumeration node cap on the
   scale rows (default 500_000). *)

let e21 () =
  let module Ad = Analysis.Admin in
  let module AF = Scenarios.Admin_family in
  let tag = function
    | Ad.Leak _ -> "leak"
    | Ad.Safe _ -> "safe"
    | Ad.Undetermined _ -> "undetermined"
  in
  (* 1. agreement gate *)
  let divergences = ref 0 and total = ref 0 and leaks = ref 0 in
  List.iter
    (fun fam ->
      for seed = 0 to e21_gate_count - 1 do
        let rng = Random.State.make [| 2121; seed |] in
        let inst = AF.generate fam rng in
        incr total;
        let sym = Ad.check inst in
        let brute = Ad.brute_force inst in
        if not (String.equal (tag sym.Ad.verdict) (tag brute.Ad.verdict))
        then begin
          incr divergences;
          Printf.printf "  divergence (%s seed %d): symbolic %s, brute %s\n%!"
            (AF.family_name fam) seed (tag sym.Ad.verdict)
            (tag brute.Ad.verdict)
        end;
        match sym.Ad.verdict with
        | Ad.Leak { ops; witness } ->
            incr leaks;
            let trace = List.map fst witness.Analysis.Safety.steps in
            if
              not
                (Coordinated.Decision.is_granted
                   (Ad.replay_witness inst ops ~trace))
            then begin
              incr divergences;
              Printf.printf "  witness replay failed (%s seed %d)\n%!"
                (AF.family_name fam) seed
            end
        | _ -> ()
      done)
    [ AF.Reachable; AF.Sabotaged; AF.Adversarial ];
  Printf.printf
    "  agreement: %d/%d (%d divergence(s)), %d leak witnesses replayed\n%!"
    (!total - !divergences) !total !divergences !leaks;
  if !divergences > 0 then exit 1;
  (* 2. small-model timing *)
  let insts =
    List.init 60 (fun seed ->
        AF.adversarial (Random.State.make [| 2123; seed |]))
  in
  Printf.printf "  %-28s %12s %12s %8s\n%!" "small models (60 adversarial)"
    "symbolic" "brute" "ratio";
  let sym_ms = time_ms ~repeats:3 (fun () -> List.map Ad.check insts) in
  let brute_ms = time_ms ~repeats:3 (fun () -> List.map Ad.brute_force insts) in
  Printf.printf "  %-28s %9.2f ms %9.2f ms %7.1fx\n%!" "" sym_ms brute_ms
    (brute_ms /. sym_ms);
  (* 3. the scale rows: Safe must exhaust the reachable deployments *)
  let safe_instance n =
    let p = Rbac.Policy.create () in
    List.iter (Rbac.Policy.add_user p) [ "u1"; "u2" ];
    let roles = List.init n (fun i -> Printf.sprintf "r%d" i) in
    List.iter (Rbac.Policy.add_role p) ("anchor" :: roles);
    (* the goal permission exists in the universe but is granted only
       to the never-assigned anchor role: provably Safe, and proving
       it requires visiting every reachable deployment *)
    Rbac.Policy.grant p "anchor"
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1");
    let base = { Coordinated.Policy_lang.policy = p; bindings = [] } in
    let world = Analysis.World.of_policy base in
    let pool =
      List.mapi
        (fun i r ->
          if i mod 2 = 0 then Ad.Assign ("u2", r)
          else
            Ad.Grant (r, Rbac.Perm.make ~operation:"read" ~target:"log@s1"))
        roles
    in
    Ad.make ~base ~world
      ~schedule:{ Ad.pool; budget = n; team = "coalition"; joined = true }
      ~user:"u1"
      ~perm:(Rbac.Perm.make ~operation:"read" ~target:"db@s1")
      ~server:"s1"
  in
  Printf.printf "  %-10s %12s %9s %10s %12s %14s\n%!" "pool ops" "symbolic"
    "explored" "leaf miss" "enumeration" "enum nodes";
  List.iter
    (fun n ->
      let inst = safe_instance n in
      let verdict_str o =
        match o.Ad.verdict with
        | Ad.Safe { explored } -> Printf.sprintf "safe:%d" explored
        | Ad.Leak _ -> "LEAK?!"
        | Ad.Undetermined _ -> "undet(cap)"
      in
      let brute () = Ad.brute_force ~max_nodes:e21_brute_cap inst in
      let sym = Ad.check inst in
      Printf.printf "  %-10d %9.2f ms %9s %10d %9.2f ms %11s\n%!" n
        (time_ms ~repeats:3 (fun () -> Ad.check inst))
        (verdict_str sym) sym.Ad.stats.Ad.leaf_calls
        (time_ms ~repeats:3 brute)
        (Printf.sprintf "%s/%d" (verdict_str (brute ())) e21_brute_cap);
      match sym.Ad.verdict with
      | Ad.Safe _ -> ()
      | v ->
          Format.printf "  scale row %d not safe: %a@." n Ad.pp_verdict v;
          exit 1)
    [ 8; 10; 12 ]

(* ------------------------------------------------------------------ *)
(* E22 — the lazy-derivative decision path, in four acts.

   First the differential gate, in the E18/E21 mould: a span of seeded
   randomized coalitions is interpreted under [Lazy] and [Naive]
   decision modes, and everything observable — the rendered verdicts
   (denial reasons included), the audit log, and the entire bus trace
   with its per-stage spans — must match byte for byte.  Any
   divergence exits 1; the latency rows below only count if the gate
   passes.

   Then three latency rows, both modes side by side, each timing
   blocks of [E22_CHECKS] checks:
   - warm hit: the E13 steady state — a Program-scope spatial
     constraint, history-independent;
   - warm miss: a Performed-scope constraint granted on every check,
     so every grant grows the history — the naive path re-runs trace
     satisfaction over the whole growing history, the lazy machine
     folds exactly one derivative step per recorded proof;
   - cold: the first decision on a fresh coalition — the eager paths
     pay subset construction for activation feasibility, the lazy
     machine interns a couple of residuals and answers from
     nullability.

   Last the allocation gate: a burst of direct, uninstrumented
   steady-state [Decision.decide_lazy] calls must allocate ~0 minor
   words per decision (exits 1 above 1.0 words/decision).

   Env knobs for CI: [E22_GATE_COUNT] sizes the differential gate
   (default 300); [E22_CHECKS] sizes each latency block (default
   4000); [E22_TRACE_OUT] writes the fixed-seed (salt 2222, seed 7)
   Lazy-mode rendered trace + log to a file so two runs can be
   [cmp]'d for byte determinism. *)

let e22 () =
  let gate_count = e22_gate_count and checks = e22_checks in
  let render outcome =
    String.concat "\n"
      (List.map
         (Format.asprintf "%a" Obs.Trace.pp)
         outcome.Parallel.Scenario.trace)
    ^ "\n--log--\n" ^ outcome.Parallel.Scenario.log
  in
  let run_seed ~mode seed =
    let rng = Random.State.make [| 2222; seed |] in
    Parallel.Scenario.run ~mode (Parallel.Workload.scenario rng)
  in
  (* 1. differential gate: verdicts + log + spans, byte for byte *)
  let divergences = ref 0 in
  for seed = 0 to gate_count - 1 do
    let l = run_seed ~mode:Coordinated.System.Lazy seed in
    let n = run_seed ~mode:Coordinated.System.Naive seed in
    if
      not
        (l.Parallel.Scenario.verdicts = n.Parallel.Scenario.verdicts
        && String.equal (render l) (render n))
    then begin
      incr divergences;
      Printf.printf "  divergence (verdicts/log/spans) at seed %d\n%!" seed
    end
  done;
  Printf.printf
    "  differential (lazy vs naive, verdicts+log+spans): %d/%d (%d \
     divergence(s))\n%!"
    (gate_count - !divergences) gate_count !divergences;
  if !divergences > 0 then exit 1;
  (match e22_trace_out with
  | None -> ()
  | Some path ->
      let body = render (run_seed ~mode:Coordinated.System.Lazy 7) in
      let oc = open_out path in
      output_string oc body;
      close_out oc;
      Printf.printf "  fixed-seed trace: %d bytes written to %s\n%!"
        (String.length body) path);
  (* 2. latency rows *)
  let access = Sral.Access.read "db" ~at:"s1" in
  let program = Sral.Parser.program "read cfg @ s1; read db @ s1" in
  let hit_bindings =
    (* Program-scope constraint: history-independent *)
    [
      Coordinated.Perm_binding.make
        ~spatial:
          (Srac.Formula.Ordered (Sral.Access.read "cfg" ~at:"s1", access))
        (Rbac.Perm.make ~operation:"read" ~target:"db@s1");
    ]
  in
  let miss_bindings =
    (* Performed-scope and granted on every check: each grant grows the
       history the constraint is checked against *)
    [
      Coordinated.Perm_binding.make
        ~spatial:(Srac.Formula.at_least 1 (Srac.Selector.Resource "db"))
        ~spatial_scope:Coordinated.Perm_binding.Performed
        (Rbac.Perm.make ~operation:"read" ~target:"db@s1");
    ]
  in
  let fresh ~mode ~bindings =
    let control =
      Coordinated.System.create ~mode ~bindings ~log_capacity:64 (policy ())
    in
    let session = Coordinated.System.new_session control ~user:"u" in
    Rbac.Session.activate session "r";
    Coordinated.System.join_team control ~object_id:"o0" ~team:"t0";
    Coordinated.System.arrive control ~object_id:"o0" ~server:"s1"
      ~time:Q.zero;
    let t = ref 0 in
    fun () ->
      incr t;
      Coordinated.System.check control ~session ~object_id:"o0" ~program
        ~time:(Q.of_int !t) access
  in
  (* ns per call of [f] over blocks of [rounds] calls *)
  let per_call rounds f =
    1e6
    *. time_ms ~repeats:1 (fun () ->
           for _ = 1 to rounds do
             ignore (f ())
           done)
    /. float_of_int rounds
  in
  let row name per_mode =
    let naive = per_mode Coordinated.System.Naive in
    let lzy = per_mode Coordinated.System.Lazy in
    Printf.printf "  %-22s %9.0f ns %9.0f ns %10.2fx\n%!" name naive lzy
      (naive /. lzy)
  in
  Printf.printf "  %-22s %12s %12s %10s   (%d checks/block)\n%!" "" "naive"
    "lazy" "naive/lazy" checks;
  row "warm hit" (fun mode ->
    let check = fresh ~mode ~bindings:hit_bindings in
    for _ = 1 to 64 do
      ignore (check ())
    done;
    per_call checks check);
  row "warm miss (history)" (fun mode ->
    let check = fresh ~mode ~bindings:miss_bindings in
    ignore (check ());
    per_call checks check);
  row "cold (first decision)" (fun mode ->
    per_call (min checks 400) (fun () -> fresh ~mode ~bindings:hit_bindings ()));
  (* 3. allocation gate: the direct steady-state path, no bus, no
     recording — two warm calls settle the residual arena, then the
     burst must stay out of the minor heap *)
  let session = Rbac.Session.create (policy ()) ~user:"u" in
  Rbac.Session.activate session "r";
  let monitor = Coordinated.Monitor.create ~object_id:"o0" in
  Coordinated.Monitor.record_arrival monitor ~server:"s1" ~time:Q.zero;
  let decide () =
    Coordinated.Decision.decide_lazy ~session ~monitor ~applicable:hit_bindings
      ~team_version:0 ~program ~time:Q.one access
  in
  ignore (decide ());
  ignore (decide ());
  let burst = 100_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to burst do
    ignore (decide ())
  done;
  let per_decision = (Gc.minor_words () -. w0) /. float_of_int burst in
  Printf.printf "  allocation: %.4f minor words/decision over %d calls\n%!"
    per_decision burst;
  if per_decision > 1.0 then begin
    Printf.printf "  allocation gate FAILED (budget: 1.0 words/decision)\n%!";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Runner                                                               *)

let experiments =
  [
    ("E1", "E1 (Figure 1) — coalition integrity audit, Section 6", e1);
    ("E2", "E2 (Theorem 3.2) — spatial checking scales in m and n", e2);
    ("E3", "E3 (Theorem 3.1) — regular completeness roundtrip", e3);
    ("E4", "E4 (Theorem 4.1) — duration-calculus checking", e4);
    ("E5", "E5 (Eq. 4.1) — the two base-time schemes disagree", e5);
    ("E6", "E6 (ablation) — decision cost: plain RBAC vs coordinated", e6);
    ("E7", "E7 (baseline) — naive enumeration vs the symbolic checker", e7);
    ("E8", "E8 (Section 5) — emulation throughput", e8);
    ("E9", "E9 — interleaving (||) trace-model growth", e9);
    ("E10", "E10 — license guard across sites (intro example)", e10);
    ( "E11",
      "E11 (Section 4's argument) — TRBAC-style periodic windows vs validity \
       durations",
      e11 );
    ("E12", "E12 — teamwork proofs and ApplAgentProg cloning (Section 5.2)", e12);
    ("E13", "E13 — decision fast path: check latency vs coalition size", e13);
    ("E14", "E14 — per-stage decision latency through the trace bus", e14);
    ("E15", "E15 — resilience under deterministic chaos", e15);
    ("E16", "E16 — static analyzer cost, phase by phase", e16);
    ("E17", "E17 — sharded parallel decision engine", e17);
    ("E18", "E18 — workflow satisfiability: checker vs brute force", e18);
    ("E19", "E19 — big-coalition scaling on the SoA engine", e19);
    ("E20", "E20 — decision service: differential gate + saturation sweep", e20);
    ("E21", "E21 — administrative safety: symbolic vs enumeration", e21);
    ("E22", "E22 — the lazy-derivative decision path", e22);
  ]

let () =
  let known = List.map (fun (id, _, _) -> id) experiments in
  let selected =
    match List.tl (Array.to_list Sys.argv) with [] -> known | ids -> ids
  in
  (match List.filter (fun id -> not (List.mem id known)) selected with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown experiment id(s) %s (known: %s)\n"
        (String.concat ", " unknown)
        (String.concat ", " known);
      exit 2);
  List.iter
    (fun id ->
      let _, title, run = List.find (fun (k, _, _) -> k = id) experiments in
      Printf.printf "\n==============================================\n";
      Printf.printf "%s\n" title;
      Printf.printf "==============================================\n%!";
      run ())
    selected
