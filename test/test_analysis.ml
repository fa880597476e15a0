(* Tests for the semantic policy analyzer (lib/analysis) and the
   Srac.Decide decision procedures it is built on.

   The heart of this file is the replay oracle: randomized coalitions
   where every analyzer claim is checked against the *runtime* — a
   finding that says "this binding can never grant" is refuted by
   replaying every performable walk of the world through the real
   decision pipeline and watching for a grant.  The analyzer is allowed
   to miss defects; it is never allowed to invent one. *)

module Q = Temporal.Q
module A = Sral.Access
module F = Srac.Formula
module PB = Coordinated.Perm_binding
module PL = Coordinated.Policy_lang
module W = Analysis.World
module An = Analysis.Analyzer
module Sf = Analysis.Safety
module PR = Scenarios.Policy_review

let granted = function
  | Coordinated.Decision.Granted -> true
  | Coordinated.Decision.Denied _ -> false

let last tr = List.nth tr (List.length tr - 1)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* cwd is test/ under `dune runtest` but the workspace root under
   `dune exec test/...` — accept either *)
let fixture name =
  let candidates =
    [ "../examples/policies/" ^ name; "examples/policies/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> read_file p
  | None -> Alcotest.failf "fixture %s not found" name

(* ------------------------------------------------------------------ *)
(* Srac.Decide: the closure-alphabet decision procedures               *)
(* ------------------------------------------------------------------ *)

let c s = F.of_string s

let test_decide_satisfiability () =
  Alcotest.(check bool)
    "semantic contradiction caught" false
    (Srac.Decide.satisfiable (c "done(read db @ s1) && !done(read db @ s1)"));
  Alcotest.(check bool)
    "empty cardinality window caught" false
    (Srac.Decide.satisfiable (c "count(2, 1, any)"));
  (* mentions no access at all, yet satisfiable over a larger
     alphabet — the reason the closure alphabet exists *)
  Alcotest.(check bool)
    "selector-only constraint satisfiable" true
    (Srac.Decide.satisfiable (c "count(1, inf, srv=s9)"));
  Alcotest.(check bool)
    "tautology valid" true
    (Srac.Decide.valid (c "done(read db @ s1) or !done(read db @ s1)"));
  Alcotest.(check bool)
    "atom not valid" false
    (Srac.Decide.valid (c "done(read db @ s1)"))

let test_decide_inclusion () =
  Alcotest.(check bool)
    "atom implies its count" true
    (Srac.Decide.included (c "done(read db @ s1)") (c "count(1, inf, res=db)"));
  Alcotest.(check bool)
    "count does not imply the atom" false
    (Srac.Decide.included (c "count(1, inf, res=db)") (c "done(read db @ s1)"));
  Alcotest.(check bool)
    "ordering implies both atoms" true
    (Srac.Decide.included
       (c "seq(read a @ s1, read b @ s1)")
       (c "done(read a @ s1) && done(read b @ s1)"));
  Alcotest.(check bool)
    "conjunction order matters" false
    (Srac.Decide.included
       (c "done(read a @ s1) && done(read b @ s1)")
       (c "seq(read a @ s1, read b @ s1)"))

let test_decide_witness () =
  (* every satisfiable formula's witness must actually satisfy it *)
  List.iter
    (fun text ->
      let f = c text in
      match Srac.Decide.witness f with
      | None -> Alcotest.failf "no witness for satisfiable %s" text
      | Some tr ->
          Alcotest.(check bool)
            (Printf.sprintf "witness satisfies %s" text)
            true
            (Srac.Trace_sat.sat ~proofs:Srac.Proof.always tr f))
    [
      "done(read db @ s1)";
      "seq(read a @ s1, read b @ s2)";
      "count(2, inf, res=db) && !done(read db @ s1)";
      "count(1, 1, srv=s9) or done(write log @ s2)";
    ];
  Alcotest.(check bool)
    "unsatisfiable has no witness" true
    (Srac.Decide.witness (c "count(3, 2, any)") = None)

(* ------------------------------------------------------------------ *)
(* World: itineraries, walks, performability                           *)
(* ------------------------------------------------------------------ *)

let test_world_walks_are_performable () =
  let universe =
    [ A.read "x" ~at:"s1"; A.read "y" ~at:"s2"; A.write "x" ~at:"s1" ]
  in
  (* one-way topology: s1 -> s2, enter only at s1 *)
  let w =
    W.make
      ~links:[ ("s1", "s2") ]
      ~entries:[ "s1" ] ~servers:[ "s1"; "s2" ] ~universe ()
  in
  let walks = W.walks w ~max_len:2 in
  List.iter
    (fun tr ->
      Alcotest.(check bool)
        (Printf.sprintf "walk performable: %s" (Sral.Trace.to_string tr))
        true (W.performable w tr))
    walks;
  (* exhaustive agreement: every universe trace of length <= 2 is in
     the walk list iff it is performable *)
  let mem tr = List.exists (Sral.Trace.equal tr) walks in
  List.iter
    (fun a ->
      Alcotest.(check bool) "len-1 agreement" (W.performable w [ a ]) (mem [ a ]);
      List.iter
        (fun b ->
          Alcotest.(check bool) "len-2 agreement"
            (W.performable w [ a; b ])
            (mem [ a; b ]))
        universe)
    universe;
  (* the one-way link forbids coming back *)
  Alcotest.(check bool)
    "s2 cannot reach s1" false
    (W.performable w [ A.read "y" ~at:"s2"; A.read "x" ~at:"s1" ])

let test_world_of_policy_defective () =
  let w = PR.defective_world () in
  Alcotest.(check (list string)) "servers" [ "s1"; "s2" ] w.W.servers;
  (* the constraint-only server s9 must NOT be deployed, and the
     access it hosts must not be performable *)
  Alcotest.(check bool)
    "vault@s9 not performable" false
    (W.performable w [ A.read "vault" ~at:"s9" ]);
  Alcotest.(check bool)
    "cfg@s1 performable" true
    (W.performable w [ A.read "cfg" ~at:"s1" ])

(* ------------------------------------------------------------------ *)
(* The committed fixtures: exact findings, exact bytes                 *)
(* ------------------------------------------------------------------ *)

let test_defective_findings () =
  let report = An.analyze ~world:(PR.defective_world ()) (PR.defective ()) in
  Alcotest.(check int) "bindings" 6 report.An.bindings;
  Alcotest.(check bool) "not truncated" false report.An.truncated;
  Alcotest.(check bool)
    "findings are exactly the expected five" true
    (report.An.findings = PR.defective_expected ())

let test_defective_jsonl_matches_committed () =
  let report = An.analyze ~world:(PR.defective_world ()) (PR.defective ()) in
  Alcotest.(check string) "defective.expected is the analyzer's output"
    (fixture "defective.expected")
    (Analysis.Report.to_jsonl report)

let test_fixture_files_match_generators () =
  (* the committed policy files are generated; drift between the file
     and the generator silently invalidates the CI smoke test *)
  Alcotest.(check string) "fig1.policy"
    (PR.fig1_text ())
    (fixture "fig1.policy");
  Alcotest.(check string) "defective.policy"
    (PR.defective_text ())
    (fixture "defective.policy")

let test_fig1_clean () =
  let report = An.analyze ~world:(PR.fig1_world ()) (PR.fig1 ()) in
  Alcotest.(check int) "bindings" 10 report.An.bindings;
  Alcotest.(check bool) "no findings" true (report.An.findings = [])

let test_fig1_witnesses_replay () =
  let parsed = PR.fig1 () in
  let world = PR.fig1_world () in
  let ws = An.witnesses ~world parsed in
  Alcotest.(check int) "every binding is exercisable" 10 (List.length ws);
  List.iter
    (fun (index, key, tr) ->
      let b = List.nth parsed.PL.bindings index in
      Alcotest.(check bool)
        (Printf.sprintf "witness %d ends with a covered access" index)
        true
        (PB.applies_to b (last tr));
      let v = Sf.replay ~world ~policy:parsed ~user:"auditor" ~trace:tr () in
      if not (granted v) then
        Alcotest.failf "witness for #%d (%s) denied: %s" index key
          (Sral.Trace.to_string tr))
    ws

(* ------------------------------------------------------------------ *)
(* Safety queries on the fixtures                                      *)
(* ------------------------------------------------------------------ *)

let test_can_acquire_defective () =
  let world = PR.defective_world () in
  let policy = PR.defective () in
  (* read:cfg@s1 is guarded by the healthy binding #0 (and the shadowed
     #3): acquirable, and the witness replays to a grant *)
  (match
     Sf.can_acquire ~world ~policy ~user:"carol"
       ~perm:(Rbac.Perm.make ~operation:"read" ~target:"cfg@s1")
       ~server:"s1"
   with
  | Sf.Acquirable w ->
      let tr = List.map fst w.Sf.steps in
      Alcotest.(check bool)
        "witness ends with the queried access" true
        (A.equal (last tr) (A.read "cfg" ~at:"s1"));
      Alcotest.(check bool)
        "witness replays to a grant" true
        (granted (Sf.replay ~world ~policy ~user:"carol" ~trace:tr ()))
  | v -> Alcotest.failf "read:cfg@s1: %a" Sf.pp_verdict v);
  (* read:db@s1 is guarded by the unsatisfiable binding #1: impossible,
     and the proof names the culprit *)
  (match
     Sf.can_acquire ~world ~policy ~user:"carol"
       ~perm:(Rbac.Perm.make ~operation:"read" ~target:"db@s1")
       ~server:"s1"
   with
  | Sf.Impossible (Sf.Unreachable { binding = Some b }) ->
      Alcotest.(check string) "culprit binding" "read:db@s1" b
  | v -> Alcotest.failf "read:db@s1: %a" Sf.pp_verdict v);
  (* an unknown principal is impossible before any automaton runs *)
  (match
     Sf.can_acquire ~world ~policy ~user:"mallory"
       ~perm:(Rbac.Perm.make ~operation:"read" ~target:"cfg@s1")
       ~server:"s1"
   with
  | Sf.Impossible (Sf.Not_authorized { user }) ->
      Alcotest.(check string) "names the user" "mallory" user
  | _ -> Alcotest.fail "mallory should be Not_authorized");
  (* wildcard queries are a caller bug *)
  Alcotest.check_raises "wildcard perm rejected"
    (Invalid_argument "Safety.can_acquire: operation and resource must be concrete")
    (fun () ->
      ignore
        (Sf.can_acquire ~world ~policy ~user:"carol"
           ~perm:(Rbac.Perm.make ~operation:"read" ~target:"*@s1")
           ~server:"s1"))

(* ------------------------------------------------------------------ *)
(* Lint: declaration indexes and stable finding order                  *)
(* ------------------------------------------------------------------ *)

let test_lint_indexed_stable_order () =
  let parsed =
    PL.parse
      (String.concat "\n"
         [
           "user u";
           "role maker";
           "role lonely";
           "assign u maker";
           "grant maker read:db@s1";
           (* #0: semantically unsatisfiable (no literal 'false'), and
              no role grants write — two findings on one binding *)
           "bind write:db@s1 spatial \"done(read db @ s1) && count(0,0,res=db)\"";
           "bind read:db@s1 dur 0";
           "bind read:db@s1 spatial \"count(0,inf,any)\"";
         ])
  in
  let expected =
    String.concat "\n"
      [
        "binding #0 (write:db@s1): spatial constraint is unsatisfiable — \
         the permission can never be granted";
        "binding #0 (write:db@s1): no role grants a matching permission — \
         binding never applies";
        "binding #1 (read:db@s1): validity duration is zero — permanently \
         expired";
        "binding #2 (read:db@s1): spatial constraint is trivially true — \
         dead weight";
        "role lonely: grants no permissions";
        "role lonely: assigned to no user";
      ]
  in
  Alcotest.(check string) "exact lint output, stable order" expected
    (Coordinated.Lint.to_string (Coordinated.Lint.check parsed))

(* ------------------------------------------------------------------ *)
(* The replay oracle: randomized coalitions                            *)
(* ------------------------------------------------------------------ *)

(* The randomized universe/world/formula/binding generators live in the
   shared [test/gen.ml] so every randomized suite draws from the same
   distributions (and honours STACC_TEST_SEED). *)
let pick = Gen.pick
let random_universe = Gen.universe
let random_world = Gen.world
let random_formula = Gen.formula
let random_binding = Gen.analysis_binding

(* user [u] holds *:*@* so RBAC never interferes: the oracle isolates
   the spatial/temporal layers the analyzer reasons about *)
let oracle_policy () =
  let p = Rbac.Policy.create () in
  Rbac.Policy.add_user p "u";
  Rbac.Policy.add_role p "worker";
  Rbac.Policy.assign_user p "u" "worker";
  Rbac.Policy.grant p "worker" (Rbac.Perm.make ~operation:"*" ~target:"*@*");
  p

let oracle_runs = 300

(* Soundness of the per-binding findings: a binding flagged
   Unsatisfiable / Unexercisable / Temporal_excluded must never grant
   on any performable walk; a Vacuous flag means deleting the spatial
   clause changes no outcome. *)
let test_oracle_soundness () =
  let negatives = ref 0 and vacuous = ref 0 in
  Gen.each_seed ~salt:9001 ~count:oracle_runs (fun ~seed rng ->
    let universe = random_universe rng in
    let world = random_world rng universe in
    let b = random_binding rng universe in
    let parsed = { PL.policy = oracle_policy (); bindings = [ b ] } in
    let report = An.analyze ~world parsed in
    let grid = lazy (W.walks world ~max_len:3) in
    let covered tr = PB.applies_to b (last tr) in
    let replay bindings tr =
      granted (Sf.replay ~bindings ~world ~policy:parsed ~user:"u" ~trace:tr ())
    in
    List.iter
      (fun f ->
        match f with
        | An.Unsatisfiable _ | An.Unexercisable _ | An.Temporal_excluded _ ->
            incr negatives;
            List.iter
              (fun tr ->
                if covered tr && replay [ b ] tr then
                  Alcotest.failf
                    "seed %d: binding flagged dead yet granted on %s@.%a" seed
                    (Sral.Trace.to_string tr) PB.pp b)
              (Lazy.force grid)
        | An.Vacuous _ ->
            incr vacuous;
            let stripped =
              PB.make ~spatial_modality:b.PB.spatial_modality
                ~spatial_scope:b.PB.spatial_scope ~proof_scope:b.PB.proof_scope
                ?dur:b.PB.dur ~scheme:b.PB.scheme b.PB.perm
            in
            List.iter
              (fun tr ->
                if
                  covered tr
                  && replay [ b ] tr <> replay [ stripped ] tr
                then
                  Alcotest.failf
                    "seed %d: vacuous spatial clause changed the verdict on %s"
                    seed
                    (Sral.Trace.to_string tr))
              (Lazy.force grid)
        | An.Shadowed _ ->
            Alcotest.failf "seed %d: shadow finding with a single binding" seed)
      report.An.findings);
  (* the oracle must actually have exercised the claims it guards *)
  Alcotest.(check bool)
    (Printf.sprintf "negative findings exercised (%d)" !negatives)
    true (!negatives > 50);
  Alcotest.(check bool)
    (Printf.sprintf "vacuity findings exercised (%d)" !vacuous)
    true (!vacuous > 5)

let shadow_runs = 150

(* Soundness of shadowing: removing the loser must not change any
   verdict, on any performable walk.  Returns the number of shadow
   findings the case produced. *)
let shadow_case ~seed rng =
  let shadows = ref 0 in
  let universe = random_universe rng in
  let world = random_world rng universe in
  let b0, b1 =
    if Random.State.bool rng then (
      (* shadow bait: a winner mentioning the pattern access and a
         strictly weaker loser on the same concrete pattern *)
      let a = pick rng universe in
      let base =
        match Random.State.int rng 3 with
        | 0 -> F.Atom a
        | 1 -> F.And (F.Atom a, random_formula rng universe 1)
        | _ -> F.Ordered (pick rng universe, a)
      in
      let concrete =
        Rbac.Perm.make
          ~operation:(A.operation_name a.A.op)
          ~target:(a.A.resource ^ "@" ^ a.A.server)
      in
      let scope =
        if Random.State.bool rng then PB.Performed else PB.Program
      in
      let same_key = Random.State.bool rng in
      let wperm =
        if same_key then concrete
        else
          Rbac.Perm.make ~operation:(A.operation_name a.A.op) ~target:"*@*"
      in
      let wdur =
        (* a duration on the winner spends only the winner's own
           activation history, whichever permission it carries *)
        if Random.State.int rng 3 = 0 then Some (Q.of_int 2) else None
      in
      ( PB.make ~spatial:base ~spatial_scope:scope ?dur:wdur wperm,
        PB.make
          ~spatial:(F.Or (base, random_formula rng universe 1))
          ~spatial_scope:scope concrete ))
    else (random_binding rng universe, random_binding rng universe)
  in
  let bindings = [ b0; b1 ] in
  let parsed = { PL.policy = oracle_policy (); bindings } in
  let report = An.analyze ~world parsed in
  List.iter
    (fun f ->
      match f with
      | An.Shadowed { index; _ } ->
          incr shadows;
          let keep = List.filteri (fun i _ -> i <> index) bindings in
          List.iter
            (fun tr ->
              let full =
                granted
                  (Sf.replay ~bindings ~world ~policy:parsed ~user:"u"
                     ~trace:tr ())
              in
              let reduced =
                granted
                  (Sf.replay ~bindings:keep ~world ~policy:parsed ~user:"u"
                     ~trace:tr ())
              in
              if full <> reduced then
                Alcotest.failf
                  "seed %d: dropping shadowed binding #%d changed the \
                   verdict on %s"
                  seed index
                  (Sral.Trace.to_string tr))
            (W.walks world ~max_len:3)
      | _ -> ())
    report.An.findings;
  !shadows

let test_oracle_shadowing () =
  let shadows = ref 0 in
  Gen.each_seed ~salt:9002 ~count:shadow_runs (fun ~seed rng ->
      shadows := !shadows + shadow_case ~seed rng);
  Alcotest.(check bool)
    (Printf.sprintf "shadow findings exercised (%d)" !shadows)
    true (!shadows > 10)

(* Salt 9002, effective seed 429 of the case above: a loser sharing
   its permission with the winner.  Each binding keeps its own
   activation history, so the finding is reported and dropping the
   loser changes no verdict. *)
let test_shadow_same_permission () =
  Alcotest.(check int) "shadow finding reported" 1
    (shadow_case ~seed:429 (Random.State.make [| 9002; 429 |]))

let query_runs = 100

(* Safety-query honesty: an Acquirable witness must replay to a grant;
   an Impossible verdict must deny on every performable walk ending
   with the queried access. *)
let test_oracle_queries () =
  let acquirable = ref 0 and impossible = ref 0 in
  Gen.each_seed ~salt:9003 ~count:query_runs (fun ~seed rng ->
    let universe = random_universe rng in
    let world = random_world rng universe in
    let bindings =
      if Random.State.bool rng then [ random_binding rng universe ]
      else [ random_binding rng universe; random_binding rng universe ]
    in
    let parsed = { PL.policy = oracle_policy (); bindings } in
    let a = pick rng universe in
    let user = if Random.State.int rng 10 = 0 then "ghost" else "u" in
    let perm =
      Rbac.Perm.make
        ~operation:(A.operation_name a.A.op)
        ~target:(a.A.resource ^ "@" ^ a.A.server)
    in
    match Sf.can_acquire ~world ~policy:parsed ~user ~perm ~server:a.A.server with
    | Sf.Acquirable w ->
        incr acquirable;
        if String.equal user "ghost" then
          Alcotest.failf "seed %d: unauthorized user acquired" seed;
        let tr = List.map fst w.Sf.steps in
        if not (A.equal (last tr) a) then
          Alcotest.failf "seed %d: witness ends with the wrong access" seed;
        if not (granted (Sf.replay ~world ~policy:parsed ~user ~trace:tr ()))
        then
          Alcotest.failf "seed %d: witness does not replay to a grant: %s"
            seed
            (Sral.Trace.to_string tr)
    | Sf.Impossible (Sf.Not_authorized { user = u }) ->
        if not (String.equal u "ghost" && String.equal user "ghost") then
          Alcotest.failf "seed %d: spurious Not_authorized for %s" seed u
    | Sf.Impossible _ ->
        incr impossible;
        List.iter
          (fun tr ->
            if
              A.equal (last tr) a
              && granted
                   (Sf.replay ~world ~policy:parsed ~user ~trace:tr ())
            then
              Alcotest.failf
                "seed %d: impossible verdict refuted by walk %s" seed
                (Sral.Trace.to_string tr))
          (W.walks world ~max_len:3)
    | Sf.Undetermined _ -> ());
  Alcotest.(check bool)
    (Printf.sprintf "acquirable verdicts exercised (%d)" !acquirable)
    true (!acquirable > 10);
  Alcotest.(check bool)
    (Printf.sprintf "impossible verdicts exercised (%d)" !impossible)
    true (!impossible > 10)

(* ------------------------------------------------------------------ *)
(* The workflow family through the analyzer                            *)
(* ------------------------------------------------------------------ *)

module WF = Scenarios.Workflow_family
module WSat = Scenarios.Workflow_sat

(* Analyzer ⇒ checker, cross-harness: plant a binding with a
   semantically contradictory spatial constraint over one task's
   access.  The analyzer must flag it Unsatisfiable on the deployed
   policy (same Policy_lang view the runtime uses), and because an
   unsatisfiable binding denies every access it applies to, the
   workflow satisfiability checker — and the brute-force oracle — must
   both find the workflow impossible. *)
let test_workflow_unsat_binding () =
  Gen.each_seed ~salt:6620 ~count:30 (fun ~seed rng ->
      let wf, _ = WF.satisfiable rng in
      let victim = List.hd wf.WF.tasks in
      let a = victim.WF.access in
      let contradiction = F.And (F.Atom a, F.Not (F.Atom a)) in
      let poison =
        PB.make ~spatial:contradiction
          ~spatial_scope:PB.Program
          (Rbac.Perm.make
             ~operation:(A.operation_name a.A.op)
             ~target:(a.A.resource ^ "@" ^ a.A.server))
      in
      let wf =
        WF.make ~users:wf.WF.users ~roles:wf.WF.roles ~grants:wf.WF.grants
          ~assignments:wf.WF.assignments
          ~bindings:(poison :: wf.WF.bindings)
          ~duties:wf.WF.duties ?plan:wf.WF.plan ~performers:wf.WF.performers
          ~tasks:wf.WF.tasks ()
      in
      let pl = { PL.policy = WF.policy_of wf; bindings = wf.WF.bindings } in
      let report = An.analyze pl in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: analyzer flags the poison binding" seed)
        true
        (List.exists
           (function An.Unsatisfiable { index = 0; _ } -> true | _ -> false)
           report.An.findings);
      (match WSat.check wf with
      | WSat.Impossible _ -> ()
      | WSat.Complete w ->
          Alcotest.failf
            "seed %d: unsatisfiable-binding workflow completed by %s" seed
            (String.concat "," (List.map (fun (t, p) -> t ^ "=" ^ p) w)));
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: brute force agrees" seed)
        true
        (WSat.brute_force wf = None))

(* Checker ⇒ safety, cross-harness: every access of a satisfiable
   workflow's witness is RBAC-granted for its performer's owner, so
   Safety.can_acquire in a fully-connected world must never call it
   Impossible — Impossible is a soundness claim ("no walk acquires")
   that a replayed runtime grant would refute. *)
let test_workflow_safety_cross_check () =
  Gen.each_seed ~salt:6621 ~count:10 (fun ~seed rng ->
      let wf, _ = WF.satisfiable rng in
      match WSat.check wf with
      | WSat.Impossible imp ->
          Alcotest.failf "seed %d: satisfiable family unsat: %s" seed
            (WSat.explain imp)
      | WSat.Complete witness ->
          let servers = [ "s1"; "s2" ] in
          let links =
            List.concat_map
              (fun x -> List.map (fun y -> (x, y)) servers)
              servers
          in
          let universe =
            List.sort_uniq A.compare
              (List.map (fun (tk : WF.task) -> tk.WF.access) wf.WF.tasks)
          in
          let world =
            W.make ~links ~entries:servers ~servers ~universe ()
          in
          let pl =
            { PL.policy = WF.policy_of wf; bindings = wf.WF.bindings }
          in
          List.iter
            (fun (task, pid) ->
              let tk =
                List.find
                  (fun (tk : WF.task) -> String.equal tk.WF.name task)
                  wf.WF.tasks
              in
              let p =
                List.find
                  (fun (p : WF.performer) -> String.equal p.WF.id pid)
                  wf.WF.performers
              in
              let perm =
                Rbac.Perm.make
                  ~operation:(A.operation_name tk.WF.access.A.op)
                  ~target:
                    (tk.WF.access.A.resource ^ "@" ^ tk.WF.access.A.server)
              in
              match
                Sf.can_acquire ~world ~policy:pl ~user:p.WF.owner ~perm
                  ~server:tk.WF.access.A.server
              with
              | Sf.Impossible _ ->
                  Alcotest.failf
                    "seed %d: runtime grants %s to %s but safety says \
                     impossible"
                    seed task pid
              | Sf.Acquirable _ | Sf.Undetermined _ -> ())
            witness)

(* ------------------------------------------------------------------ *)
(* Administrative safety: the symbolic reachability engine             *)
(* ------------------------------------------------------------------ *)

module Ad = Analysis.Admin
module AF = Scenarios.Admin_family

(* The committed fixture pair: a policy where nobody can read the
   database until an administrator fires the two ops in admin.ops.
   This is the exact scenario the CI smoke test runs through the
   binary. *)
let test_admin_fixture () =
  let base = PL.parse (fixture "admin.policy") in
  let schedule = Ad.parse_schedule (fixture "admin.ops") in
  let world = W.of_policy base in
  let perm = Rbac.Perm.make ~operation:"read" ~target:"db@s1" in
  let inst u = Ad.make ~base ~world ~schedule ~user:u ~perm ~server:"s1" in
  let o1 = Ad.check (inst "u1") in
  (match o1.Ad.verdict with
  | Ad.Leak { ops; witness } ->
      Alcotest.(check (list string))
        "minimal two-op escalation"
        [ "assign u1 clerk"; "grant clerk read:db@s1" ]
        (List.map Ad.op_to_string ops);
      let tr = List.map fst witness.Sf.steps in
      Alcotest.(check bool)
        "witness replays to a grant through the real system" true
        (granted (Ad.replay_witness (inst "u1") ops ~trace:tr))
  | v -> Alcotest.failf "u1 should leak: %a" Ad.pp_verdict v);
  (* no SSD/DSD anywhere, so the antichain engine must be engaged *)
  Alcotest.(check bool) "antichain enabled on SoD-free instance" true
    o1.Ad.stats.Ad.antichain;
  (match (Ad.check (inst "u2")).Ad.verdict with
  | Ad.Safe _ -> ()
  | v -> Alcotest.failf "u2 should be safe: %a" Ad.pp_verdict v);
  (* brute force agrees on both committed queries *)
  (match (Ad.brute_force (inst "u1")).Ad.verdict with
  | Ad.Leak _ -> ()
  | v -> Alcotest.failf "brute force misses the u1 leak: %a" Ad.pp_verdict v);
  match (Ad.brute_force (inst "u2")).Ad.verdict with
  | Ad.Safe _ -> ()
  | v -> Alcotest.failf "brute force flags u2: %a" Ad.pp_verdict v

let test_admin_schedule_roundtrip () =
  let s = Ad.parse_schedule (fixture "admin.ops") in
  let rendered = Ad.render_schedule s in
  Alcotest.(check string) "render is a parse fixed point" rendered
    (Ad.render_schedule (Ad.parse_schedule rendered));
  List.iter
    (fun op ->
      let line = Ad.op_to_string op in
      Alcotest.(check string) "op line round-trips" line
        (Ad.op_to_string (Ad.op_of_string line)))
    s.Ad.pool

let verdict_tag = function
  | Ad.Leak _ -> "leak"
  | Ad.Safe _ -> "safe"
  | Ad.Undetermined _ -> "undetermined"

(* The differential gate from the acceptance criteria: on the
   small-model corpus the symbolic engine and the explicit sequence
   enumeration must produce the same verdict constructor on every
   instance, every planted leak must be found, every planted
   sabotage must come back Safe, and every Leak witness must replay
   through the real Coordinated.System to a grant. *)
let test_admin_differential () =
  let leaks = ref 0 and safes = ref 0 in
  let run family ~salt ~count ~expect =
    Gen.each_seed ~salt ~count (fun ~seed rng ->
        let inst = AF.generate family rng in
        let sym = Ad.check inst in
        let brute = Ad.brute_force inst in
        if
          not
            (String.equal (verdict_tag sym.Ad.verdict)
               (verdict_tag brute.Ad.verdict))
        then
          Alcotest.failf "seed %d (%s): symbolic %a but brute force %a" seed
            (AF.family_name family) Ad.pp_verdict sym.Ad.verdict Ad.pp_verdict
            brute.Ad.verdict;
        (match expect with
        | Some tag when not (String.equal tag (verdict_tag sym.Ad.verdict)) ->
            Alcotest.failf "seed %d (%s): expected %s, got %a" seed
              (AF.family_name family) tag Ad.pp_verdict sym.Ad.verdict
        | _ -> ());
        match sym.Ad.verdict with
        | Ad.Leak { ops; witness } ->
            incr leaks;
            let tr = List.map fst witness.Sf.steps in
            if not (granted (Ad.replay_witness inst ops ~trace:tr)) then
              Alcotest.failf
                "seed %d (%s): leak witness does not replay to a grant" seed
                (AF.family_name family)
        | Ad.Safe _ -> incr safes
        | Ad.Undetermined _ -> ())
  in
  run AF.Reachable ~salt:9101 ~count:80 ~expect:(Some "leak");
  run AF.Sabotaged ~salt:9102 ~count:60 ~expect:(Some "safe");
  run AF.Adversarial ~salt:9103 ~count:120 ~expect:None;
  Alcotest.(check bool)
    (Printf.sprintf "leaks exercised (%d)" !leaks)
    true (!leaks >= 80);
  Alcotest.(check bool)
    (Printf.sprintf "safe verdicts exercised (%d)" !safes)
    true (!safes >= 60)

(* Replaying a leak witness emits one Policy_changed event per admin
   op on the system bus, each carrying the rendered op line and a
   strictly increasing policy version. *)
let test_admin_replay_emits_policy_changed () =
  let base = PL.parse (fixture "admin.policy") in
  let schedule = Ad.parse_schedule (fixture "admin.ops") in
  let world = W.of_policy base in
  let inst =
    Ad.make ~base ~world ~schedule ~user:"u1"
      ~perm:(Rbac.Perm.make ~operation:"read" ~target:"db@s1")
      ~server:"s1"
  in
  match (Ad.check inst).Ad.verdict with
  | Ad.Leak { ops; witness } ->
      let bus = Obs.Bus.create () in
      let seen = ref [] in
      Obs.Bus.subscribe bus
        (Obs.Sink.make ~name:"admin-test" (function
          | Obs.Trace.Policy_changed { op; version; _ } ->
              seen := (op, version) :: !seen
          | _ -> ()));
      let tr = List.map fst witness.Sf.steps in
      Alcotest.(check bool) "replay grants" true
        (granted (Ad.replay_witness ~bus inst ops ~trace:tr));
      let seen = List.rev !seen in
      Alcotest.(check (list string))
        "one event per op, in order"
        (List.map Ad.op_to_string ops)
        (List.map fst seen);
      let versions = List.map snd seen in
      Alcotest.(check bool) "versions strictly increase" true
        (List.for_all2 ( < ) versions (List.tl versions @ [ max_int ]))
  | v -> Alcotest.failf "fixture should leak: %a" Ad.pp_verdict v

let () =
  Alcotest.run "analysis"
    [
      ( "decide",
        [
          Alcotest.test_case "satisfiability and validity" `Quick
            test_decide_satisfiability;
          Alcotest.test_case "inclusion" `Quick test_decide_inclusion;
          Alcotest.test_case "witnesses satisfy" `Quick test_decide_witness;
        ] );
      ( "world",
        [
          Alcotest.test_case "walks are exactly the performable traces"
            `Quick test_world_walks_are_performable;
          Alcotest.test_case "of_policy excludes constraint-only servers"
            `Quick test_world_of_policy_defective;
        ] );
      ( "fixtures",
        [
          Alcotest.test_case "defective findings exact" `Quick
            test_defective_findings;
          Alcotest.test_case "defective JSONL matches committed expectation"
            `Quick test_defective_jsonl_matches_committed;
          Alcotest.test_case "policy files match their generators" `Quick
            test_fixture_files_match_generators;
          Alcotest.test_case "fig1 is clean" `Quick test_fig1_clean;
          Alcotest.test_case "fig1 witnesses replay to grants" `Quick
            test_fig1_witnesses_replay;
        ] );
      ( "safety",
        [
          Alcotest.test_case "can_acquire on the defective fixture" `Quick
            test_can_acquire_defective;
        ] );
      ( "lint",
        [
          Alcotest.test_case "indexed findings, stable order" `Quick
            test_lint_indexed_stable_order;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "flagged bindings never grant" `Quick
            test_oracle_soundness;
          Alcotest.test_case "shadowed bindings are redundant" `Quick
            test_oracle_shadowing;
          Alcotest.test_case "same-permission shadow (seed 429)" `Quick
            test_shadow_same_permission;
          Alcotest.test_case "safety verdicts are honest" `Quick
            test_oracle_queries;
        ] );
      ( "workflows",
        [
          Alcotest.test_case "unsatisfiable binding sinks the workflow" `Quick
            test_workflow_unsat_binding;
          Alcotest.test_case "safety agrees witnesses are acquirable" `Quick
            test_workflow_safety_cross_check;
        ] );
      ( "admin",
        [
          Alcotest.test_case "fixture pair: leak and safe, both oracles"
            `Quick test_admin_fixture;
          Alcotest.test_case "schedule render/parse fixed point" `Quick
            test_admin_schedule_roundtrip;
          Alcotest.test_case "symbolic = brute force on the small-model corpus"
            `Quick test_admin_differential;
          Alcotest.test_case "witness replay emits Policy_changed" `Quick
            test_admin_replay_emits_policy_changed;
        ] );
    ]
