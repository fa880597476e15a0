(* The temporal-workflow scenario family and its satisfiability
   checker.

   The headline property is the differential: over 300+ seeded small
   workflows the checker must agree with the brute-force assignment
   enumerator with *zero* divergences — and agreement is stricter than
   sat/unsat: both searches run in the same lexicographic order with
   only sound pruning on the checker's side, so a satisfiable instance
   must yield the *identical* witness, and every witness must replay to
   completion through Core.System.  Failures shrink to a minimized
   workflow before reporting (Gen.shrink_workflow). *)

module W = Scenarios.Workflow_family
module Sat = Scenarios.Workflow_sat
module Q = Temporal.Q

let counts = [ (W.Satisfiable, 120); (W.Unsatisfiable, 90); (W.Adversarial, 100) ]
let () = assert (List.fold_left (fun n (_, c) -> n + c) 0 counts >= 300)

(* What is wrong with this workflow, if anything — [None] means the
   differential holds and the family promise is kept.  Total, so it
   doubles as the shrinking predicate. *)
let defect fam (wf : W.t) =
  match (Sat.against_brute_force wf, fam) with
  | exception e -> Some ("raised " ^ Printexc.to_string e)
  | Sat.Divergent d, _ -> Some ("divergence: " ^ d)
  | Sat.Agree_unsat _, W.Satisfiable ->
      Some "satisfiable-family instance is unsat"
  | Sat.Agree_sat asg, W.Unsatisfiable ->
      Some
        ("unsatisfiable-family instance completed by "
        ^ String.concat "," (List.map (fun (t, p) -> t ^ "=" ^ p) asg))
  | Sat.Agree_sat asg, _ ->
      (* the witness must replay to completion through Core.System *)
      let outcome = W.run wf asg in
      if not outcome.W.completed then Some "witness does not replay"
      else if
        not
          (List.for_all
             (fun (r : W.task_result) ->
               Coordinated.Decision.is_granted r.W.verdict && r.W.in_window)
             outcome.W.results)
      then Some "witness replay has a denied or out-of-window task"
      else None
  | Sat.Agree_unsat imp, _ ->
      (* the impossibility explanation must render *)
      if String.length (Sat.explain imp) = 0 then Some "empty explanation"
      else None

let fail_minimized ~fam ~salt ~seed wf msg =
  let fails wf = defect fam wf <> None in
  let small = Gen.shrink_workflow ~fails wf in
  Gen.report_minimized ~seed ~what:"workflow" W.pp small;
  Alcotest.failf
    "family %s salt %d seed %d: %s (minimized to %d task(s), %d performer(s))"
    (W.family_name fam) salt seed msg (List.length small.W.tasks)
    (List.length small.W.performers)

let test_differential () =
  let checked = ref 0 in
  List.iter
    (fun (fam, count) ->
      let salt = 6600 + Hashtbl.hash (W.family_name fam) mod 97 in
      Array.iteri
        (fun i wf ->
          incr checked;
          match defect fam wf with
          | None -> ()
          | Some msg -> fail_minimized ~fam ~salt ~seed:(Gen.offset + i) wf msg)
        (Gen.workflows fam ~salt ~count Gen.offset))
    counts;
  Alcotest.(check bool) "at least 300 workflows checked" true (!checked >= 300)

(* The planted witness of the satisfiable family really is the
   lexicographic minimum or later — i.e. the checker's witness always
   completes, and checking is deterministic across calls. *)
let test_checker_deterministic () =
  Gen.each_seed ~salt:6610 ~count:40 (fun ~seed:_ rng ->
      let wf = W.generate W.Adversarial rng in
      let v1 = Sat.check wf and v2 = Sat.check wf in
      Alcotest.(check string)
        "same verdict twice"
        (Format.asprintf "%a" Sat.pp_verdict v1)
        (Format.asprintf "%a" Sat.pp_verdict v2))

let test_generator_deterministic () =
  List.iter
    (fun fam ->
      let a = Gen.workflows fam ~salt:6611 ~count:10 Gen.offset in
      let b = Gen.workflows fam ~salt:6611 ~count:10 Gen.offset in
      Alcotest.(check bool)
        (Printf.sprintf "family %s reproducible" (W.family_name fam))
        true (a = b);
      (* growing the batch never changes existing instances *)
      let c = Gen.workflows fam ~salt:6611 ~count:20 Gen.offset in
      Alcotest.(check bool)
        (Printf.sprintf "family %s prefix-stable" (W.family_name fam))
        true
        (Array.to_list a = Array.to_list (Array.sub c 0 10)))
    [ W.Satisfiable; W.Unsatisfiable; W.Adversarial ]

(* Canonical order and slots: declaration order is kept for ready
   tasks, prerequisites always run earlier, slots are 2k+2. *)
let mk_task ?(window = None) ?(after = []) name =
  { W.name; access = Sral.Access.read "r1" ~at:"s1"; window; after }

let base_perm = Rbac.Perm.make ~operation:"read" ~target:"r1@s1"

let tiny ?duties ?plan ?(tasks = [ mk_task "a" ]) ?(performers = 1) () =
  W.make
    ~users:[ "u1"; "u2" ]
    ~roles:[ "ra" ]
    ~grants:[ ("ra", base_perm) ]
    ~assignments:[ ("u1", "ra"); ("u2", "ra") ]
    ?duties ?plan
    ~performers:
      (List.init performers (fun i ->
           {
             W.id = Printf.sprintf "p%d" (i + 1);
             owner = (if i mod 2 = 0 then "u1" else "u2");
             roles = [ "ra" ];
           }))
    ~tasks ()

let test_canonical_schedule () =
  let wf =
    tiny
      ~tasks:
        [
          mk_task "c" ~after:[ "a" ];
          mk_task "a";
          mk_task "b" ~after:[ "a"; "c" ];
        ]
      ()
  in
  Alcotest.(check (list string))
    "topological, declaration-stable order" [ "a"; "c"; "b" ]
    (List.map (fun (tk : W.task) -> tk.W.name) wf.W.tasks);
  Alcotest.(check string) "slot a" "2" (Q.to_string (W.task_slot wf "a"));
  Alcotest.(check string) "slot c" "4" (Q.to_string (W.task_slot wf "c"));
  Alcotest.(check string) "slot b" "6" (Q.to_string (W.task_slot wf "b"));
  Alcotest.check_raises "cycles rejected"
    (Invalid_argument "Workflow_family.make: task graph has a cycle")
    (fun () ->
      ignore
        (tiny ~tasks:[ mk_task "a" ~after:[ "b" ]; mk_task "b" ~after:[ "a" ] ]
           ()))

(* Point windows sit exactly on the decision slot and are satisfiable:
   Interval.contains is inclusive at both endpoints. *)
let test_point_window_on_slot () =
  let s = W.slot 0 in
  let wf = tiny ~tasks:[ mk_task "a" ~window:(Some (Temporal.Interval.make s s)) ] () in
  (match Sat.check wf with
  | Sat.Complete [ ("a", "p1") ] -> ()
  | v -> Alcotest.failf "expected sat via p1, got %a" Sat.pp_verdict v);
  (* nudge the window off the slot by 1/1000 and it becomes unsat *)
  let eps = Q.make 1 1000 in
  let off = Temporal.Interval.make (Q.add s eps) (Q.add s Q.one) in
  let wf' = tiny ~tasks:[ mk_task "a" ~window:(Some off) ] () in
  match Sat.check wf' with
  | Sat.Impossible (Sat.Window_missed { task = "a"; _ }) -> ()
  | v -> Alcotest.failf "expected window miss, got %a" Sat.pp_verdict v

(* Duty semantics end to end: separation forces two performers, binding
   forces one; with a single performer a separation pair is impossible
   and the checker says why. *)
let test_duties () =
  let tasks = [ mk_task "a"; mk_task "b" ~after:[ "a" ] ] in
  let sep = tiny ~tasks ~duties:[ W.Separation [ "a"; "b" ] ] ~performers:2 () in
  (match Sat.check sep with
  | Sat.Complete [ ("a", "p1"); ("b", "p2") ] -> ()
  | v -> Alcotest.failf "separation: expected p1/p2, got %a" Sat.pp_verdict v);
  let bound = tiny ~tasks ~duties:[ W.Binding [ "a"; "b" ] ] ~performers:2 () in
  (match Sat.check bound with
  | Sat.Complete [ ("a", "p1"); ("b", "p1") ] -> ()
  | v -> Alcotest.failf "binding: expected p1/p1, got %a" Sat.pp_verdict v);
  let starved = tiny ~tasks ~duties:[ W.Separation [ "a"; "b" ] ] ~performers:1 () in
  match Sat.check starved with
  | Sat.Impossible (Sat.Duty_unsatisfiable _) -> ()
  | v -> Alcotest.failf "pigeonhole: expected duty unsat, got %a" Sat.pp_verdict v

(* Crash windows: a plan that downs the task's server over its slot is
   a No_candidate impossibility; the brute force agrees because the
   interpreter denies fail-closed. *)
let test_fail_closed_slot () =
  let plan =
    Fault.Plan.make ~name:"wf-test"
      ~crashes:[ ("s1", [ { Fault.Plan.from_ = Q.of_int 1; until = Q.of_int 5 } ]) ]
      ()
  in
  let wf = tiny ~plan () in
  (match Sat.check wf with
  | Sat.Impossible (Sat.No_candidate { task = "a"; rejected }) ->
      Alcotest.(check bool) "rejection names the server" true
        (List.exists
           (fun (_, why) ->
             (* "server s1 is down at 2" *)
             String.length why >= 6 && String.sub why 0 6 = "server")
           rejected)
  | v -> Alcotest.failf "expected no candidate, got %a" Sat.pp_verdict v);
  Alcotest.(check bool) "brute force agrees" true (Sat.brute_force wf = None);
  (* the window [1,5) is half-open: a task whose slot is exactly 5+
     gets through once the server recovers *)
  let late =
    tiny
      ~plan
      ~tasks:[ mk_task "a"; mk_task "b" ~after:[ "a" ] ]
      ()
  in
  match Sat.check late with
  | Sat.Impossible (Sat.No_candidate { task = "a"; _ }) -> ()
  | v -> Alcotest.failf "slot 2 still inside the crash window: %a" Sat.pp_verdict v

(* to_scenario only accepts canonical prefixes. *)
let test_prefix_discipline () =
  let wf = tiny ~tasks:[ mk_task "a"; mk_task "b" ~after:[ "a" ] ] () in
  ignore (W.to_scenario wf [ ("a", "p1") ]);
  Alcotest.check_raises "out-of-order assignment rejected"
    (Invalid_argument
       "Workflow_family.to_scenario: assignment is not a canonical prefix \
        (expected task \"a\", got \"b\")")
    (fun () -> ignore (W.to_scenario wf [ ("b", "p1") ]));
  Alcotest.check_raises "unknown performer rejected"
    (Invalid_argument "Workflow_family.to_scenario: unknown performer \"ghost\"")
    (fun () -> ignore (W.to_scenario wf [ ("a", "ghost") ]))

(* Deterministic JSONL: the report over a batch is byte-identical
   across two computations, and every line records agreement. *)
let test_report_lines () =
  let batch = Gen.workflows W.Adversarial ~salt:6612 ~count:15 Gen.offset in
  let render () =
    String.concat "\n"
      (Array.to_list
         (Array.mapi
            (fun i wf ->
              fst (Sat.report_line ~index:i ~family:W.Adversarial wf))
            batch))
  in
  let a = render () in
  Alcotest.(check string) "byte-deterministic" a (render ());
  String.split_on_char '\n' a
  |> List.iter (fun line ->
         Alcotest.(check bool)
           (Printf.sprintf "line records agreement: %s" line)
           true
           (let needle = "\"agree\":true" in
            let rec has i =
              i + String.length needle <= String.length line
              && (String.sub line i (String.length needle) = needle || has (i + 1))
            in
            has 0))

(* Satellite: the greedy shrinkers reach 1-minimal counterexamples. *)
let test_shrink_list () =
  let fails xs = List.mem 7 xs && List.length xs > 0 in
  Alcotest.(check (list int))
    "shrinks to the single blamed element" [ 7 ]
    (Gen.shrink_list ~fails [ 1; 2; 7; 3; 4; 5 ]);
  Alcotest.(check (list int))
    "non-failing input is untouched" [ 1; 2 ]
    (Gen.shrink_list ~fails:(fun _ -> false) [ 1; 2 ])

let test_shrink_coalition () =
  let rng = Random.State.make [| 6613; Gen.offset |] in
  let sc = Gen.coalition rng in
  let has_check (sc : Parallel.Scenario.t) =
    List.exists
      (function Parallel.Scenario.Check _ -> true | _ -> false)
      sc.Parallel.Scenario.events
  in
  Alcotest.(check bool) "generated coalition has checks" true (has_check sc);
  let small = Gen.shrink_coalition ~fails:has_check sc in
  Alcotest.(check int) "one event left"
    1
    (List.length small.Parallel.Scenario.events);
  Alcotest.(check int) "bindings dropped" 0
    (List.length small.Parallel.Scenario.bindings);
  Alcotest.(check int) "grants dropped" 0
    (List.length small.Parallel.Scenario.grants);
  Alcotest.(check bool) "still fails" true (has_check small)

let test_shrink_workflow () =
  let wf, _ = W.satisfiable ~tasks:5 ~performers:3 (Random.State.make [| 6614; Gen.offset |]) in
  (* ensure there is something to find: plant a separation duty *)
  let wf =
    match wf.W.duties with
    | _ :: _ when List.exists (function W.Separation _ -> true | _ -> false) wf.W.duties
      -> wf
    | _ ->
        let a = (List.nth wf.W.tasks 0).W.name
        and b = (List.nth wf.W.tasks 1).W.name in
        W.make ~users:wf.W.users ~roles:wf.W.roles ~grants:wf.W.grants
          ~assignments:wf.W.assignments ~bindings:wf.W.bindings
          ~duties:(W.Separation [ a; b ] :: wf.W.duties)
          ?plan:wf.W.plan ~performers:wf.W.performers ~tasks:wf.W.tasks ()
  in
  let has_sep (wf : W.t) =
    List.exists (function W.Separation _ -> true | _ -> false) wf.W.duties
  in
  let small = Gen.shrink_workflow ~fails:has_sep wf in
  Alcotest.(check bool) "still fails" true (has_sep small);
  Alcotest.(check int) "exactly the blamed duty" 1 (List.length small.W.duties);
  Alcotest.(check int) "tasks down to the duty pair" 2
    (List.length small.W.tasks);
  Alcotest.(check int) "performers dropped" 0 (List.length small.W.performers);
  Alcotest.(check int) "grants dropped" 0 (List.length small.W.grants)

(* [reproduces] converts raising properties into total predicates. *)
let test_reproduces () =
  Alcotest.(check bool) "raising reproduces" true
    (Gen.reproduces (fun _ -> failwith "boom") ());
  Alcotest.(check bool) "passing does not" false (Gen.reproduces ignore ())

let () =
  Alcotest.run "workflow"
    [
      ( "differential",
        [
          Alcotest.test_case "checker = brute force over 300+ workflows" `Slow
            test_differential;
          Alcotest.test_case "checker deterministic" `Quick
            test_checker_deterministic;
          Alcotest.test_case "generators reproducible" `Quick
            test_generator_deterministic;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "canonical schedule" `Quick test_canonical_schedule;
          Alcotest.test_case "point window on slot" `Quick
            test_point_window_on_slot;
          Alcotest.test_case "separation and binding duties" `Quick test_duties;
          Alcotest.test_case "fail-closed crash slots" `Quick
            test_fail_closed_slot;
          Alcotest.test_case "prefix discipline" `Quick test_prefix_discipline;
          Alcotest.test_case "deterministic report lines" `Quick
            test_report_lines;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "lists" `Quick test_shrink_list;
          Alcotest.test_case "coalitions" `Quick test_shrink_coalition;
          Alcotest.test_case "workflows" `Quick test_shrink_workflow;
          Alcotest.test_case "reproduces" `Quick test_reproduces;
        ] );
    ]
