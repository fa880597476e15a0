(* Tests for the coordinated model: permission bindings, the monitor,
   the Eq. 3.1 + Eq. 4.1 decision, the audit log, the policy language
   and the facade. *)

open Coordinated
module Q = Temporal.Q

let q = Q.of_int
let read_ r s = Sral.Access.read r ~at:s
let a_db = read_ "db" "s1"
let a_cfg = read_ "cfg" "s1"
let prog = Sral.Parser.program

let base_policy () =
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "u";
  Rbac.Policy.add_role policy "r";
  Rbac.Policy.assign_user policy "u" "r";
  Rbac.Policy.grant policy "r" (Rbac.Perm.make ~operation:"read" ~target:"*@*");
  policy

let session_of control =
  let s = System.new_session control ~user:"u" in
  Rbac.Session.activate s "r";
  s

(* --- perm bindings --- *)

let test_binding_applies () =
  let b = Perm_binding.make (Rbac.Perm.make ~operation:"read" ~target:"db@s1") in
  Alcotest.(check bool) "exact" true (Perm_binding.applies_to b a_db);
  Alcotest.(check bool) "other resource" false
    (Perm_binding.applies_to b a_cfg);
  let wild = Perm_binding.make (Rbac.Perm.make ~operation:"*" ~target:"*@s1") in
  Alcotest.(check bool) "wildcard" true (Perm_binding.applies_to wild a_cfg)

(* --- monitor --- *)

let test_monitor_arrivals_and_proofs () =
  let m = Monitor.create ~object_id:"o" in
  Alcotest.(check (option string)) "nowhere yet" None (Monitor.current_server m);
  Monitor.record_arrival m ~server:"s1" ~time:Q.zero;
  Monitor.record_arrival m ~server:"s2" ~time:(q 5);
  Alcotest.(check (option string)) "current" (Some "s2")
    (Monitor.current_server m);
  Alcotest.(check int) "arrival count" 2 (List.length (Monitor.arrivals m));
  Monitor.record_access m a_db ~time:(q 6);
  Alcotest.(check bool) "proof issued" true
    (Srac.Proof.holds (Monitor.proofs m) a_db);
  Alcotest.(check int) "performed" 1 (Sral.Trace.length (Monitor.performed m))

let test_monitor_clock_monotone () =
  let m = Monitor.create ~object_id:"o" in
  Monitor.record_arrival m ~server:"s1" ~time:(q 5);
  Alcotest.check_raises "backwards time"
    (Invalid_argument "Monitor: time went backwards (3 < 5)") (fun () ->
      Monitor.record_access m a_db ~time:(q 3))

let test_monitor_activation_fn () =
  let m = Monitor.create ~object_id:"o" in
  Monitor.set_active m ~key:"k" ~time:(q 1) true;
  Monitor.set_active m ~key:"k" ~time:(q 3) true (* no-op *);
  Monitor.set_active m ~key:"k" ~time:(q 5) false;
  let f = Monitor.activation_fn m ~key:"k" in
  Alcotest.(check bool) "before" false (Temporal.Step_fn.value_at f Q.zero);
  Alcotest.(check bool) "during" true (Temporal.Step_fn.value_at f (q 2));
  Alcotest.(check bool) "after" false (Temporal.Step_fn.value_at f (q 7));
  Alcotest.(check bool) "unknown key inactive" false
    (Monitor.is_active_at m ~key:"zz" (q 2))

(* --- decisions --- *)

let setup ?(bindings = []) () =
  let control = System.create ~bindings (base_policy ()) in
  let session = session_of control in
  System.arrive control ~object_id:"o" ~server:"s1" ~time:Q.zero;
  (control, session)

let test_decide_plain_rbac () =
  let control, session = setup () in
  let v =
    System.check control ~session ~object_id:"o" ~program:(prog "read db @ s1")
      ~time:(q 1) a_db
  in
  Alcotest.(check bool) "granted" true (Decision.is_granted v);
  (* unauthorized operation *)
  let v2 =
    System.check control ~session ~object_id:"o" ~program:(prog "write db @ s1")
      ~time:(q 2)
      (Sral.Access.write "db" ~at:"s1")
  in
  (match v2 with
  | Decision.Denied (Decision.Rbac_denied _) -> ()
  | _ -> Alcotest.fail "expected rbac denial")

let test_decide_spatial_program_scope () =
  (* reading db requires that cfg is read first on some execution *)
  let c = Srac.Formula.Ordered (a_cfg, a_db) in
  let binding =
    Perm_binding.make ~spatial:c
      ~spatial_modality:Srac.Program_sat.Exists
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control, session = setup ~bindings:[ binding ] () in
  let good = prog "read cfg @ s1; read db @ s1" in
  let bad = prog "read db @ s1" in
  Alcotest.(check bool) "feasible program" true
    (Decision.is_granted
       (System.check control ~session ~object_id:"o" ~program:good ~time:(q 1)
          a_db));
  match
    System.check control ~session ~object_id:"o" ~program:bad ~time:(q 2) a_db
  with
  | Decision.Denied (Decision.Spatial_violation _) -> ()
  | v ->
      Alcotest.fail
        (Format.asprintf "expected spatial denial, got %a" Decision.pp_verdict v)

let test_decide_spatial_performed_scope () =
  (* at most 2 db reads, judged on history *)
  let c = Srac.Formula.at_most 2 (Srac.Selector.Resource "db") in
  let binding =
    Perm_binding.make ~spatial:c ~spatial_scope:Perm_binding.Performed
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control, session = setup ~bindings:[ binding ] () in
  let program = prog "read db @ s1; read db @ s1; read db @ s1" in
  let decide t =
    System.check control ~session ~object_id:"o" ~program ~time:(q t) a_db
  in
  Alcotest.(check bool) "1st" true (Decision.is_granted (decide 1));
  Alcotest.(check bool) "2nd" true (Decision.is_granted (decide 2));
  (match decide 3 with
  | Decision.Denied (Decision.Spatial_violation _) -> ()
  | v ->
      Alcotest.fail
        (Format.asprintf "3rd should violate history: %a" Decision.pp_verdict v));
  (* and it stays denied *)
  Alcotest.(check bool) "4th still denied" false
    (Decision.is_granted (decide 4))

let test_decide_temporal_expiry () =
  let binding =
    Perm_binding.make ~dur:(q 5) ~scheme:Temporal.Validity.Whole_journey
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control, session = setup ~bindings:[ binding ] () in
  let program = prog "read db @ s1" in
  (* activation starts at the first decision (t=0 arrival refresh is
     not automatic here; the first check activates) *)
  let decide t =
    System.check control ~session ~object_id:"o" ~program ~time:(q t) a_db
  in
  Alcotest.(check bool) "fresh" true (Decision.is_granted (decide 0));
  Alcotest.(check bool) "within budget" true (Decision.is_granted (decide 4));
  match decide 6 with
  | Decision.Denied (Decision.Temporal_expired { spent; _ }) ->
      Alcotest.(check string) "spent equals dur" "5" (Q.to_string spent)
  | v ->
      Alcotest.fail
        (Format.asprintf "expected expiry, got %a" Decision.pp_verdict v)

let test_decide_per_server_scheme () =
  let binding =
    Perm_binding.make ~dur:(q 5) ~scheme:Temporal.Validity.Per_server
      (Rbac.Perm.make ~operation:"read" ~target:"*@*")
  in
  let control, session = setup ~bindings:[ binding ] () in
  let program = prog "read db @ s1; read db @ s2" in
  let decide t a =
    System.check control ~session ~object_id:"o" ~program ~time:(q t) a
  in
  Alcotest.(check bool) "t=0 s1" true (Decision.is_granted (decide 0 a_db));
  Alcotest.(check bool) "t=6 s1 expired" false
    (Decision.is_granted (decide 6 a_db));
  (* migrate: the per-server budget resets *)
  System.arrive control ~object_id:"o" ~server:"s2" ~time:(q 7);
  let a_db2 = read_ "db" "s2" in
  Alcotest.(check bool) "t=8 s2 fresh" true
    (Decision.is_granted (decide 8 a_db2))

let test_decide_not_arrived () =
  let binding =
    Perm_binding.make ~dur:(q 5)
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control = System.create ~bindings:[ binding ] (base_policy ()) in
  let session = session_of control in
  (* no System.arrive *)
  match
    System.check control ~session ~object_id:"ghost"
      ~program:(prog "read db @ s1") ~time:(q 1) a_db
  with
  | Decision.Denied Decision.Not_arrived -> ()
  | v ->
      Alcotest.fail
        (Format.asprintf "expected Not_arrived, got %a" Decision.pp_verdict v)

let test_granted_records_proof () =
  let control, session = setup () in
  let log = Audit_log.attach (System.bus control) in
  ignore
    (System.check control ~session ~object_id:"o"
       ~program:(prog "read db @ s1") ~time:(q 1) a_db);
  let m = System.monitor control ~object_id:"o" in
  Alcotest.(check bool) "proof recorded" true
    (Srac.Proof.holds (Monitor.proofs m) a_db);
  Alcotest.(check int) "log size" 1 (Audit_log.size log)

(* A system subscribes no sink of its own, and an unobserved check
   decides and records exactly as an observed one. *)
let test_unobserved_check () =
  let control, session = setup () in
  Alcotest.(check (list string))
    "no sinks" [] (Obs.Bus.sinks (System.bus control));
  let observed, observed_session = setup () in
  let capture, trace = Obs.Sink.memory () in
  Obs.Bus.subscribe (System.bus observed) capture;
  let check control session =
    System.check control ~session ~object_id:"o" ~program:(prog "read db @ s1")
      ~time:(q 1) a_db
  in
  let v = check control session in
  Alcotest.(check bool) "granted" true (Decision.is_granted v);
  let m = System.monitor control ~object_id:"o" in
  Alcotest.(check bool) "proof recorded" true
    (Srac.Proof.holds (Monitor.proofs m) a_db);
  Alcotest.(check int) "no event built" 0
    (Obs.Bus.emitted (System.bus control));
  Alcotest.(check bool) "same verdict observed" true
    (v = check observed observed_session);
  Alcotest.(check bool) "observed emitted" true (trace () <> [])

let test_denied_no_proof () =
  let c = Srac.Formula.at_most 0 (Srac.Selector.Resource "db") in
  let binding =
    Perm_binding.make ~spatial:c ~spatial_scope:Perm_binding.Performed
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control, session = setup ~bindings:[ binding ] () in
  ignore
    (System.check control ~session ~object_id:"o"
       ~program:(prog "read db @ s1") ~time:(q 1) a_db);
  let m = System.monitor control ~object_id:"o" in
  Alcotest.(check bool) "no proof for denied access" false
    (Srac.Proof.holds (Monitor.proofs m) a_db)

let test_dc_cross_validation () =
  (* the DC route of Theorem 4.1 agrees with the step-function route *)
  let binding =
    Perm_binding.make ~dur:(q 5)
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control, session = setup ~bindings:[ binding ] () in
  let program = prog "read db @ s1" in
  List.iter
    (fun t ->
      let verdict =
        System.check control ~session ~object_id:"o" ~program ~time:(q t) a_db
      in
      let m = System.monitor control ~object_id:"o" in
      let dc = Decision.validity_dc_check ~monitor:m ~binding ~time:(q t) in
      (* Granted implies DC-valid; Temporal_expired implies not *)
      match verdict with
      | Decision.Granted ->
          Alcotest.(check bool)
            (Printf.sprintf "dc agrees at %d (granted)" t)
            true dc
      | Decision.Denied (Decision.Temporal_expired _) ->
          Alcotest.(check bool)
            (Printf.sprintf "dc agrees at %d (expired)" t)
            false dc
      | Decision.Denied _ -> ())
    [ 0; 1; 3; 4; 6; 8 ]

(* --- aggregation (the paper's future work) --- *)

let perm_db = Rbac.Perm.make ~operation:"read" ~target:"db@s1"
let perm_cfg = Rbac.Perm.make ~operation:"read" ~target:"cfg@s1"

let test_classify () =
  let bindings =
    [
      Perm_binding.make perm_db;
      Perm_binding.make perm_cfg;
      Perm_binding.make ~dur:(q 5) perm_db;
    ]
  in
  let groups = Aggregate.classify bindings in
  Alcotest.(check int) "two groups" 2 (List.length groups);
  let db_group =
    List.find (fun g -> Rbac.Perm.equal g.Aggregate.perm perm_db) groups
  in
  Alcotest.(check int) "db group size" 2 (List.length db_group.Aggregate.members)

let test_aggregate_min_dur () =
  let bindings =
    [
      Perm_binding.make ~dur:(q 10) perm_db;
      Perm_binding.make ~dur:(q 4) perm_db;
      Perm_binding.make perm_db (* infinite *);
    ]
  in
  match Aggregate.aggregate bindings with
  | [ merged ] ->
      Alcotest.(check (option string)) "min duration" (Some "4")
        (Option.map Q.to_string merged.Perm_binding.dur)
  | other -> Alcotest.fail (Printf.sprintf "expected 1, got %d" (List.length other))

let test_aggregate_conjoins_history_constraints () =
  let c1 = Srac.Formula.at_most 5 (Srac.Selector.Resource "db") in
  let c2 = Srac.Formula.Atom a_cfg in
  let bindings =
    [
      Perm_binding.make ~spatial:c1 ~spatial_scope:Perm_binding.Performed perm_db;
      Perm_binding.make ~spatial:c2 ~spatial_scope:Perm_binding.Performed perm_db;
    ]
  in
  match Aggregate.aggregate bindings with
  | [ merged ] -> (
      match merged.Perm_binding.spatial with
      | Some (Srac.Formula.And _) -> ()
      | Some other ->
          Alcotest.fail
            (Format.asprintf "expected conjunction, got %a" Srac.Formula.pp
               other)
      | None -> Alcotest.fail "spatial lost")
  | other -> Alcotest.fail (Printf.sprintf "expected 1, got %d" (List.length other))

let test_aggregate_refuses_exists_program () =
  (* ∃-modality program-scope constraints must not merge *)
  let c1 = Srac.Formula.Atom a_db in
  let c2 = Srac.Formula.Atom a_cfg in
  let bindings =
    [
      Perm_binding.make ~spatial:c1 ~spatial_modality:Srac.Program_sat.Exists
        perm_db;
      Perm_binding.make ~spatial:c2 ~spatial_modality:Srac.Program_sat.Exists
        perm_db;
    ]
  in
  Alcotest.(check int) "kept apart" 2
    (List.length (Aggregate.aggregate bindings))

let test_aggregate_refuses_mixed_proof_scopes () =
  let c = Srac.Formula.at_most 2 (Srac.Selector.Resource "db") in
  let bindings =
    [
      Perm_binding.make ~spatial:c ~spatial_scope:Perm_binding.Performed
        ~proof_scope:Perm_binding.Own perm_db;
      Perm_binding.make ~spatial:c ~spatial_scope:Perm_binding.Performed
        ~proof_scope:Perm_binding.Team perm_db;
    ]
  in
  Alcotest.(check int) "kept apart" 2
    (List.length (Aggregate.aggregate bindings))

let test_aggregate_refuses_mixed_schemes () =
  let bindings =
    [
      Perm_binding.make ~dur:(q 5) ~scheme:Temporal.Validity.Whole_journey
        perm_db;
      Perm_binding.make ~dur:(q 5) ~scheme:Temporal.Validity.Per_server perm_db;
    ]
  in
  Alcotest.(check int) "kept apart" 2
    (List.length (Aggregate.aggregate bindings))

let aggregate_preserves_decisions =
  QCheck.Test.make
    ~name:"aggregated bindings decide like the originals" ~count:60
    (QCheck.make (fun rng -> Random.State.int rng 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      (* random bindings on perm_db: Forall program constraints,
         history counts, durations with one scheme *)
      let mk_binding () =
        match Random.State.int rng 3 with
        | 0 ->
            Perm_binding.make
              ~spatial:(Srac.Formula.Atom a_cfg)
              ~spatial_modality:Srac.Program_sat.Forall perm_db
        | 1 ->
            Perm_binding.make
              ~spatial:
                (Srac.Formula.at_most
                   (1 + Random.State.int rng 3)
                   (Srac.Selector.Resource "db"))
              ~spatial_scope:Perm_binding.Performed perm_db
        | _ -> Perm_binding.make ~dur:(q (2 + Random.State.int rng 6)) perm_db
      in
      let bindings = List.init (2 + Random.State.int rng 3) (fun _ -> mk_binding ()) in
      let aggregated = Aggregate.aggregate bindings in
      let run bindings =
        let control = System.create ~bindings (base_policy ()) in
        let session = session_of control in
        System.arrive control ~object_id:"o" ~server:"s1" ~time:Q.zero;
        let program = prog "read cfg @ s1; read db @ s1; read db @ s1; read db @ s1" in
        List.map
          (fun t ->
            Decision.is_granted
              (System.check control ~session ~object_id:"o" ~program
                 ~time:(q t) a_db))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      run bindings = run aggregated)

(* --- team proof scope --- *)

let test_team_history () =
  let binding =
    Perm_binding.make
      ~spatial:(Srac.Formula.Ordered (a_cfg, a_db))
      ~spatial_scope:Perm_binding.Performed
      ~proof_scope:Perm_binding.Team
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control = System.create ~bindings:[ binding ] (base_policy ()) in
  let session = session_of control in
  System.arrive control ~object_id:"worker" ~server:"s1" ~time:Q.zero;
  System.arrive control ~object_id:"scout" ~server:"s1" ~time:Q.zero;
  System.join_team control ~object_id:"worker" ~team:"t1";
  System.join_team control ~object_id:"scout" ~team:"t1";
  Alcotest.(check (list string)) "teammates" [ "scout" ]
    (System.teammates control ~object_id:"worker");
  (* the scout reads cfg; the worker's db read then passes via the
     teammate's proof *)
  let scout_session = session_of control in
  ignore
    (System.check control ~session:scout_session ~object_id:"scout"
       ~program:(prog "read cfg @ s1") ~time:(q 1) a_cfg);
  let verdict =
    System.check control ~session ~object_id:"worker"
      ~program:(prog "read db @ s1") ~time:(q 2) a_db
  in
  Alcotest.(check bool) "worker granted via teammate" true
    (Decision.is_granted verdict)

let test_own_scope_ignores_teammates () =
  let binding =
    Perm_binding.make
      ~spatial:(Srac.Formula.Ordered (a_cfg, a_db))
      ~spatial_scope:Perm_binding.Performed
      ~proof_scope:Perm_binding.Own
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control = System.create ~bindings:[ binding ] (base_policy ()) in
  let session = session_of control in
  System.arrive control ~object_id:"worker" ~server:"s1" ~time:Q.zero;
  System.arrive control ~object_id:"scout" ~server:"s1" ~time:Q.zero;
  System.join_team control ~object_id:"worker" ~team:"t1";
  System.join_team control ~object_id:"scout" ~team:"t1";
  let scout_session = session_of control in
  ignore
    (System.check control ~session:scout_session ~object_id:"scout"
       ~program:(prog "read cfg @ s1") ~time:(q 1) a_cfg);
  match
    System.check control ~session ~object_id:"worker"
      ~program:(prog "read db @ s1") ~time:(q 2) a_db
  with
  | Decision.Denied (Decision.Spatial_violation _) -> ()
  | v ->
      Alcotest.fail
        (Format.asprintf "own scope should deny: %a" Decision.pp_verdict v)

(* --- cache invalidation (the fast path's residual and RBAC caches
   must never serve a stale grant) --- *)

let test_cache_hit_is_taken () =
  (* program-scope binding: a repeated identical check (different
     time) is answered from the binding slot's cached program-scope
     result and still matches the naive outcome *)
  let binding =
    Perm_binding.make
      ~spatial:(Srac.Formula.Ordered (a_cfg, a_db))
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control, session = setup ~bindings:[ binding ] () in
  let program = prog "read cfg @ s1; read db @ s1" in
  let check t =
    System.check control ~session ~object_id:"o" ~program ~time:(q t) a_db
  in
  Alcotest.(check bool) "first granted" true (Decision.is_granted (check 1));
  let m = System.monitor control ~object_id:"o" in
  Alcotest.(check bool) "repeat granted (cache hit)" true
    (Decision.is_granted (check 2));
  Alcotest.(check bool) "clock advanced on the hit path" true
    (Q.equal (Monitor.now m) (q 2))

let test_cache_invalidated_by_arrival () =
  (* a cached Granted must flip once record_arrival moves the object
     off the server whose per-server budget the grant was living on *)
  let binding =
    Perm_binding.make ~dur:(q 5) ~scheme:Temporal.Validity.Per_server
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control, session = setup ~bindings:[ binding ] () in
  let program = prog "read db @ s1; read db @ s1" in
  let check t =
    System.check control ~session ~object_id:"o" ~program ~time:(q t) a_db
  in
  Alcotest.(check bool) "granted on s1" true (Decision.is_granted (check 1));
  System.arrive control ~object_id:"o" ~server:"s2" ~time:(q 2);
  (* budget rebased at t=2; by t=8 it is exhausted — a stale cache
     would keep granting *)
  match check 8 with
  | Decision.Denied (Decision.Temporal_expired _) -> ()
  | v ->
      Alcotest.fail
        (Format.asprintf "expected expiry after migration, got %a"
           Decision.pp_verdict v)

let test_cache_invalidated_by_companion_history () =
  (* Team proof scope, at most 2 db reads for the whole team: the
     worker's second check is identical to its first (same access, same
     program) but a companion's grant in between changes the
     coordinated outcome *)
  let binding =
    Perm_binding.make
      ~spatial:(Srac.Formula.at_most 2 (Srac.Selector.Resource "db"))
      ~spatial_scope:Perm_binding.Performed ~proof_scope:Perm_binding.Team
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control = System.create ~bindings:[ binding ] (base_policy ()) in
  let worker_session = session_of control in
  let helper_session = session_of control in
  System.arrive control ~object_id:"worker" ~server:"s1" ~time:Q.zero;
  System.arrive control ~object_id:"helper" ~server:"s1" ~time:Q.zero;
  System.join_team control ~object_id:"worker" ~team:"t1";
  System.join_team control ~object_id:"helper" ~team:"t1";
  let program = prog "read db @ s1; read db @ s1" in
  let check session object_id t =
    System.check control ~session ~object_id ~program ~time:(q t) a_db
  in
  Alcotest.(check bool) "worker 1st" true
    (Decision.is_granted (check worker_session "worker" 1));
  Alcotest.(check bool) "helper consumes the team budget" true
    (Decision.is_granted (check helper_session "helper" 2));
  (* team history now holds 2 db reads; the worker's identical recheck
     would make 3 — must be denied, not served from cache *)
  match check worker_session "worker" 3 with
  | Decision.Denied (Decision.Spatial_violation _) -> ()
  | v ->
      Alcotest.fail
        (Format.asprintf "expected team-budget denial, got %a"
           Decision.pp_verdict v)

let test_cache_invalidated_by_session_change () =
  (* deactivating the role between two identical checks must flip the
     cached Granted to an RBAC denial *)
  let binding =
    Perm_binding.make (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control, session = setup ~bindings:[ binding ] () in
  let program = prog "read db @ s1" in
  let check t =
    System.check control ~session ~object_id:"o" ~program ~time:(q t) a_db
  in
  Alcotest.(check bool) "granted while active" true
    (Decision.is_granted (check 1));
  Alcotest.(check bool) "still granted (cache hit)" true
    (Decision.is_granted (check 2));
  Rbac.Session.deactivate session "r";
  (match check 3 with
  | Decision.Denied (Decision.Rbac_denied _) -> ()
  | v ->
      Alcotest.fail
        (Format.asprintf "expected rbac denial after deactivation, got %a"
           Decision.pp_verdict v));
  (* and reactivation restores the grant *)
  Rbac.Session.activate session "r";
  Alcotest.(check bool) "granted again" true (Decision.is_granted (check 4))

(* --- binding index --- *)

let index_agrees_with_linear_scan =
  QCheck.Test.make ~name:"Binding_index.applicable = linear filter" ~count:200
    (QCheck.make (fun rng -> Random.State.int rng 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
      let operation () = pick [ "read"; "write"; "execute"; "*" ] in
      let target () =
        match Random.State.int rng 5 with
        | 0 -> "*"
        | 1 -> pick [ "db"; "cfg" ]  (* unstructured: matches nothing *)
        | _ ->
            pick [ "db"; "cfg"; "*" ] ^ "@" ^ pick [ "s1"; "s2"; "*" ]
      in
      let bindings =
        List.init
          (Random.State.int rng 12)
          (fun _ ->
            Perm_binding.make
              (Rbac.Perm.make ~operation:(operation ()) ~target:(target ())))
      in
      let index = Binding_index.of_list bindings in
      let accesses =
        List.init 6 (fun _ ->
            Sral.Generate.access ~resources:[ "db"; "cfg"; "log" ]
              ~servers:[ "s1"; "s2"; "s3" ] rng)
      in
      List.for_all
        (fun a ->
          let via_index = Binding_index.applicable index a in
          let via_scan =
            List.filter (fun b -> Perm_binding.applies_to b a) bindings
          in
          via_index = via_scan)
        accesses)

let test_index_append_and_order () =
  let b1 = Perm_binding.make (Rbac.Perm.make ~operation:"read" ~target:"*@*") in
  let b2 = Perm_binding.make ~dur:(q 5) perm_db in
  let b3 = Perm_binding.make (Rbac.Perm.make ~operation:"*" ~target:"db@s1") in
  let index = Binding_index.of_list [ b1; b2 ] in
  Alcotest.(check int) "length counts" 2 (Binding_index.length index);
  Binding_index.add index b3;
  Alcotest.(check int) "length bumps" 3 (Binding_index.length index);
  Alcotest.(check bool) "insertion order preserved" true
    (Binding_index.to_list index == [ b1; b2; b3 ]
    || Binding_index.to_list index = [ b1; b2; b3 ]);
  Alcotest.(check bool) "applicable in insertion order" true
    (Binding_index.applicable index a_db = [ b1; b2; b3 ])

(* --- audit log --- *)

let test_audit_log () =
  let log = Audit_log.create () in
  Audit_log.record log
    { Audit_log.time = q 1; object_id = "o1"; access = a_db; verdict = Decision.Granted };
  Audit_log.record log
    {
      Audit_log.time = q 2;
      object_id = "o2";
      access = a_cfg;
      verdict = Decision.Denied (Decision.Rbac_denied "no");
    };
  Alcotest.(check int) "size" 2 (Audit_log.size log);
  Alcotest.(check int) "granted" 1 (List.length (Audit_log.granted log));
  Alcotest.(check int) "denied" 1 (List.length (Audit_log.denied log));
  Alcotest.(check (float 0.01)) "rate" 0.5 (Audit_log.grant_rate log);
  Alcotest.(check int) "by object" 1
    (List.length (Audit_log.by_object log "o1"));
  Alcotest.(check int) "by server" 2
    (List.length (Audit_log.by_server log "s1"))

let random_entry rng t =
  let object_id = Printf.sprintf "o%d" (Random.State.int rng 7) in
  let access =
    Sral.Generate.access ~resources:[ "db"; "cfg" ]
      ~servers:[ "s1"; "s2"; "s3" ] rng
  in
  let verdict =
    if Random.State.bool rng then Decision.Granted
    else Decision.Denied (Decision.Rbac_denied "no")
  in
  { Audit_log.time = q t; object_id; access; verdict }

let test_audit_counters_agree_with_entries () =
  (* 10k mixed records: every O(1) counter equals the O(n)
     recomputation from the entries *)
  let rng = Random.State.make [| 2025; 8 |] in
  let log = Audit_log.create () in
  for t = 1 to 10_000 do
    Audit_log.record log (random_entry rng t)
  done;
  let entries = Audit_log.entries log in
  Alcotest.(check int) "size" (List.length entries) (Audit_log.size log);
  Alcotest.(check int) "granted"
    (List.length
       (List.filter
          (fun (e : Audit_log.entry) -> Decision.is_granted e.verdict)
          entries))
    (Audit_log.granted_count log);
  Alcotest.(check int) "denied"
    (List.length
       (List.filter
          (fun (e : Audit_log.entry) -> not (Decision.is_granted e.verdict))
          entries))
    (Audit_log.denied_count log);
  Alcotest.(check (float 1e-9)) "grant rate"
    (float_of_int (Audit_log.granted_count log)
    /. float_of_int (Audit_log.size log))
    (Audit_log.grant_rate log)

let test_audit_empty_log_conventions () =
  let log = Audit_log.create () in
  Alcotest.(check (float 0.0)) "empty rate is 1.0" 1.0
    (Audit_log.grant_rate log);
  Alcotest.(check int) "empty size" 0 (Audit_log.size log);
  Alcotest.(check int) "unknown object" 0
    (List.length (Audit_log.by_object log "ghost"))

(* --- export: the one JSON escaper every emitter shares --- *)

let test_export_json_escaping () =
  List.iter
    (fun (name, raw, escaped) ->
      Alcotest.(check string) name escaped (Obs.Export.escape raw))
    [
      ("quote", "a\"b", "a\\\"b");
      ("backslash", "a\\b", "a\\\\b");
      ("newline", "a\nb", "a\\nb");
      ("carriage return", "a\rb", "a\\rb");
      ("tab", "a\tb", "a\\tb");
      ("other control byte", "a\x01b", "a\\u0001b");
    ]

(* --- lint --- *)

let lint_policy text = Lint.check (Policy_lang.parse text)

let test_lint_clean_policy () =
  let findings =
    lint_policy
      {|
user a
role worker
assign a worker
grant worker read:db@s1
bind read:db@s1 dur 5
|}
  in
  Alcotest.(check int) "no findings" 0 (List.length findings)

let test_lint_unsatisfiable () =
  let findings =
    lint_policy
      {|
user a
role worker
assign a worker
grant worker read:db@s1
bind read:db@s1 spatial "done(read x @ s1) && false"
|}
  in
  Alcotest.(check bool) "unsatisfiable reported" true
    (List.exists
       (function Lint.Unsatisfiable_spatial _ -> true | _ -> false)
       findings)

let test_lint_dead_binding () =
  let findings =
    lint_policy
      {|
user a
role worker
assign a worker
grant worker read:db@s1
bind write:other@s9 dur 5
|}
  in
  Alcotest.(check bool) "dead binding" true
    (List.exists (function Lint.Dead_binding _ -> true | _ -> false) findings)

let test_lint_wildcard_grant_not_dead () =
  (* a wildcard grant covers concrete binding patterns *)
  let findings =
    lint_policy
      {|
user a
role worker
assign a worker
grant worker *:*@*
bind write:other@s9 dur 5
|}
  in
  Alcotest.(check bool) "not dead under wildcard" false
    (List.exists (function Lint.Dead_binding _ -> true | _ -> false) findings)

let test_lint_role_findings () =
  let findings = lint_policy {|
user a
role lonely
|} in
  Alcotest.(check bool) "no perms" true
    (List.exists
       (function Lint.Role_without_permissions "lonely" -> true | _ -> false)
       findings);
  Alcotest.(check bool) "unassigned" true
    (List.exists
       (function Lint.Role_unassigned "lonely" -> true | _ -> false)
       findings)

let test_lint_zero_duration () =
  let findings =
    lint_policy
      {|
user a
role worker
assign a worker
grant worker read:db@s1
bind read:db@s1 dur 0
|}
  in
  Alcotest.(check bool) "zero duration" true
    (List.exists (function Lint.Zero_duration _ -> true | _ -> false) findings)

(* --- timeline --- *)

let test_timeline_render () =
  let log = Audit_log.create () in
  Audit_log.record log
    { Audit_log.time = Q.zero; object_id = "a"; access = a_db; verdict = Decision.Granted };
  Audit_log.record log
    { Audit_log.time = q 10; object_id = "a"; access = a_db;
      verdict = Decision.Denied (Decision.Rbac_denied "no") };
  Audit_log.record log
    { Audit_log.time = q 5; object_id = "bb"; access = a_cfg; verdict = Decision.Granted };
  let out = Timeline.render ~width:21 log in
  let lines = String.split_on_char '
' (String.trim out) in
  Alcotest.(check int) "header + two lanes" 3 (List.length lines);
  let lane_a = List.nth lines 1 in
  Alcotest.(check bool) "grant at left edge" true (String.contains lane_a 'G');
  Alcotest.(check bool) "denial at right edge" true (String.contains lane_a 'x');
  let lane_b = List.nth lines 2 in
  Alcotest.(check bool) "b has one grant" true (String.contains lane_b 'G');
  Alcotest.(check bool) "b has no denial" false (String.contains lane_b 'x')

let test_timeline_empty () =
  Alcotest.(check string) "empty" "(no events)"
    (Timeline.render (Audit_log.create ()))

(* --- policy language --- *)

let policy_text =
  {|
# the audit coalition
user alice
role chief
role auditor
inherit chief auditor
assign alice chief
grant auditor read:db@s1
grant chief write:report@s1
ssd conflict chief external max 1
bind read:db@s1 spatial "done(read cfg @ s1) -> seq(read cfg @ s1, read db @ s1)" modality forall scope program dur 10 scheme journey
bind write:report@s1 dur 5/2 scheme server
|}

let policy_text_fixed =
  (* "ssd" above references an undeclared role: fine for Sod itself;
     also declare it to exercise parsing *)
  String.concat "\n"
    (List.filter
       (fun l -> not (String.length l >= 3 && String.sub l 0 3 = "ssd"))
       (String.split_on_char '\n' policy_text))

let test_policy_lang_parse () =
  let parsed = Policy_lang.parse policy_text_fixed in
  Alcotest.(check (list string)) "users" [ "alice" ]
    (Rbac.Policy.users parsed.Policy_lang.policy);
  Alcotest.(check (list string)) "roles" [ "auditor"; "chief" ]
    (Rbac.Policy.roles parsed.Policy_lang.policy);
  Alcotest.(check int) "bindings" 2 (List.length parsed.Policy_lang.bindings);
  let b = List.hd parsed.Policy_lang.bindings in
  Alcotest.(check bool) "spatial present" true
    (b.Perm_binding.spatial <> None);
  Alcotest.(check bool) "forall" true
    (b.Perm_binding.spatial_modality = Srac.Program_sat.Forall);
  Alcotest.(check (option string)) "dur" (Some "10")
    (Option.map Q.to_string b.Perm_binding.dur);
  let b2 = List.nth parsed.Policy_lang.bindings 1 in
  Alcotest.(check (option string)) "fractional dur" (Some "5/2")
    (Option.map Q.to_string b2.Perm_binding.dur);
  Alcotest.(check bool) "per-server" true
    (b2.Perm_binding.scheme = Temporal.Validity.Per_server)

let test_policy_lang_roundtrip () =
  let parsed = Policy_lang.parse policy_text_fixed in
  let reparsed = Policy_lang.parse (Policy_lang.render parsed) in
  Alcotest.(check int) "bindings preserved"
    (List.length parsed.Policy_lang.bindings)
    (List.length reparsed.Policy_lang.bindings);
  Alcotest.(check (list string)) "roles preserved"
    (Rbac.Policy.roles parsed.Policy_lang.policy)
    (Rbac.Policy.roles reparsed.Policy_lang.policy)

(* The render/parse fixed point, as a seeded property over full random
   deployments (hierarchy edges, SSD/DSD constraints, binding mixes):
   rendering is canonical, so one render/parse cycle must reach a
   fixed point — [render (parse (render t))] is byte-identical to
   [render t].  A failing deployment is shrunk by dropping bindings
   before being reported. *)
let test_policy_lang_render_fixed_point () =
  Gen.each_seed ~salt:5150 ~count:200 (fun ~seed rng ->
      let t = Gen.policy_lang rng in
      let rendered = Policy_lang.render t in
      let again = Policy_lang.render (Policy_lang.parse rendered) in
      if not (String.equal rendered again) then begin
        let fails bindings =
          let t = { t with Policy_lang.bindings } in
          let r = Policy_lang.render t in
          not (String.equal r (Policy_lang.render (Policy_lang.parse r)))
        in
        let small =
          if fails t.Policy_lang.bindings then
            { t with
              Policy_lang.bindings =
                Gen.shrink_list ~fails t.Policy_lang.bindings }
          else t
        in
        let r = Policy_lang.render small in
        Alcotest.failf
          "seed %d: render is not a parse fixed point@.rendered:@.%s@.@.\
           reparsed-rendered:@.%s"
          seed r
          (Policy_lang.render (Policy_lang.parse r))
      end)

(* Single bindings round-trip through the line-level entry points the
   admin-op syntax reuses. *)
let test_policy_lang_binding_roundtrip () =
  Gen.each_seed ~salt:5151 ~count:200 (fun ~seed rng ->
      let u = Gen.universe rng in
      let b = Gen.analysis_binding rng u in
      let line = Policy_lang.render_binding b in
      let b' = Policy_lang.parse_binding line in
      if not (String.equal line (Policy_lang.render_binding b')) then
        Alcotest.failf "seed %d: binding line %S does not round-trip" seed
          line)

let test_policy_lang_errors () =
  let check_error src expected_line =
    match Policy_lang.parse src with
    | exception Policy_lang.Error (line, _) ->
        Alcotest.(check int) "line number" expected_line line
    | _ -> Alcotest.fail (Printf.sprintf "%S should fail" src)
  in
  check_error "frobnicate x" 1;
  check_error "user a\nassign a ghost" 2;
  check_error "bind read:x@y dur notanumber" 1;
  check_error "bind read:x@y spatial \"%%%\"" 1;
  check_error "bind read:x@y modality maybe" 1

let test_of_policy_text_end_to_end () =
  let control = System.of_policy_text policy_text_fixed in
  let session = System.new_session control ~user:"alice" in
  Rbac.Session.activate session "chief";
  System.arrive control ~object_id:"o" ~server:"s1" ~time:Q.zero;
  (* program violates the forall constraint: reads cfg after db *)
  let bad = prog "read db @ s1; read cfg @ s1" in
  (match
     System.check control ~session ~object_id:"o" ~program:bad ~time:(q 1) a_db
   with
  | Decision.Denied (Decision.Spatial_violation _) -> ()
  | v ->
      Alcotest.fail
        (Format.asprintf "expected spatial denial: %a" Decision.pp_verdict v));
  let good = prog "read cfg @ s1; read db @ s1" in
  Alcotest.(check bool) "compliant program granted" true
    (Decision.is_granted
       (System.check control ~session ~object_id:"o" ~program:good ~time:(q 2)
          a_db))

(* --- the lazy path's team fold and state valve --- *)

(* Team scope, "db before cfg" over the team's time-merged history.
   The worker's own db read at t=5 is folded first; the helper's clock
   lags, so its cfg read at t=2 lands *earlier* in the merged history
   than the entry the worker's slot folded last.  Appending it would
   read db-then-cfg and grant; the refold reads cfg-then-db and denies.
   The helper's second cfg read, at t=8, sorts last and is appended:
   now db precedes a cfg and the check is granted.  Every verdict must
   match the naive oracle's. *)
let test_team_fold_refolds_late_entry () =
  let a_out = Sral.Access.write "out" ~at:"s1" in
  let binding =
    Perm_binding.make
      ~spatial:(Srac.Formula.Ordered (a_db, a_cfg))
      ~spatial_scope:Perm_binding.Performed ~proof_scope:Perm_binding.Team
      (Rbac.Perm.make ~operation:"write" ~target:"out@s1")
  in
  let run mode =
    let policy = base_policy () in
    Rbac.Policy.grant policy "r"
      (Rbac.Perm.make ~operation:"write" ~target:"*@*");
    let control = System.create ~mode ~bindings:[ binding ] policy in
    let program = prog "read db @ s1; read cfg @ s1; write out @ s1" in
    List.iter
      (fun object_id ->
        System.arrive control ~object_id ~server:"s1" ~time:Q.zero;
        System.join_team control ~object_id ~team:"t1")
      [ "worker"; "helper" ];
    let worker = session_of control and helper = session_of control in
    List.map
      (fun (session, object_id, t, access) ->
        Format.asprintf "%a" Decision.pp_verdict
          (System.check control ~session ~object_id ~program ~time:(q t)
             access))
      [
        (worker, "worker", 5, a_db);
        (worker, "worker", 6, a_out);
        (helper, "helper", 2, a_cfg);
        (worker, "worker", 7, a_out);
        (helper, "helper", 8, a_cfg);
        (worker, "worker", 9, a_out);
      ]
  in
  let lazy_ = run System.Lazy in
  Alcotest.(check (list string)) "lazy = naive" (run System.Naive) lazy_;
  Alcotest.(check (list bool))
    "granted only once a cfg read follows the db read"
    [ true; false; true; false; true; true ]
    (List.map (String.equal "granted") lazy_)

(* cwd is test/ under `dune runtest` but the workspace root under
   `dune exec test/...` — accept either *)
let fixture name =
  let path =
    List.find Sys.file_exists
      [ "../examples/policies/" ^ name; "examples/policies/" ^ name ]
  in
  In_channel.with_open_bin path In_channel.input_all

(* The explode fixture's execute binding needs more than 2^16 residual
   states once a read and a write are performed.  The lazy path drops
   that binding's machine and answers it eagerly, with the naive
   path's verdicts, audit log and trace. *)
let test_valve_matches_naive () =
  let run mode =
    let control = System.of_policy_text ~mode (fixture "explode.policy") in
    let log = Audit_log.attach (System.bus control) in
    let capture, trace = Obs.Sink.memory () in
    Obs.Bus.subscribe (System.bus control) capture;
    let world = Naplet.World.create control in
    Naplet.World.add_server world (Naplet.Server.create "s1");
    Naplet.World.spawn world ~id:"agent-1" ~owner:"olive" ~roles:[ "worker" ]
      ~home:"s1"
      (prog (fixture "explode.sral"));
    ignore (Naplet.World.run world);
    (control, log, trace ())
  in
  let lazy_, lazy_log, lazy_trace = run System.Lazy in
  let _, naive_log, naive_trace = run System.Naive in
  let render = Format.asprintf "%a" Audit_log.pp in
  Alcotest.(check string) "audit log" (render naive_log) (render lazy_log);
  Alcotest.(check bool) "trace" true
    (List.equal Obs.Trace.equal naive_trace lazy_trace);
  Alcotest.(check (pair int int)) "two grants, one denial" (2, 1)
    (Audit_log.granted_count lazy_log, Audit_log.denied_count lazy_log);
  let slots =
    (Monitor.residuals (System.monitor lazy_ ~object_id:"agent-1"))
      .Residual.slots
  in
  Alcotest.(check bool) "machine dropped" true
    (Residual.Binding_tbl.fold
       (fun (b : Perm_binding.t) slot dropped ->
         dropped || (b.spatial <> None && Option.is_none slot.Residual.machine))
       slots false)

let () =
  Alcotest.run "coordinated"
    [
      ("binding", [ Alcotest.test_case "applies_to" `Quick test_binding_applies ]);
      ( "monitor",
        [
          Alcotest.test_case "arrivals/proofs" `Quick
            test_monitor_arrivals_and_proofs;
          Alcotest.test_case "clock monotone" `Quick test_monitor_clock_monotone;
          Alcotest.test_case "activation fn" `Quick test_monitor_activation_fn;
        ] );
      ( "decision",
        [
          Alcotest.test_case "plain rbac" `Quick test_decide_plain_rbac;
          Alcotest.test_case "spatial program scope" `Quick
            test_decide_spatial_program_scope;
          Alcotest.test_case "spatial performed scope" `Quick
            test_decide_spatial_performed_scope;
          Alcotest.test_case "temporal expiry" `Quick test_decide_temporal_expiry;
          Alcotest.test_case "per-server scheme" `Quick
            test_decide_per_server_scheme;
          Alcotest.test_case "not arrived" `Quick test_decide_not_arrived;
          Alcotest.test_case "grant records proof" `Quick
            test_granted_records_proof;
          Alcotest.test_case "unobserved check decides alike" `Quick
            test_unobserved_check;
          Alcotest.test_case "denial records no proof" `Quick
            test_denied_no_proof;
          Alcotest.test_case "dc cross validation" `Quick
            test_dc_cross_validation;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "min duration" `Quick test_aggregate_min_dur;
          Alcotest.test_case "conjoins history constraints" `Quick
            test_aggregate_conjoins_history_constraints;
          Alcotest.test_case "refuses exists-program" `Quick
            test_aggregate_refuses_exists_program;
          Alcotest.test_case "refuses mixed schemes" `Quick
            test_aggregate_refuses_mixed_schemes;
          Alcotest.test_case "refuses mixed proof scopes" `Quick
            test_aggregate_refuses_mixed_proof_scopes;
          QCheck_alcotest.to_alcotest aggregate_preserves_decisions;
        ] );
      ( "team",
        [
          Alcotest.test_case "team history" `Quick test_team_history;
          Alcotest.test_case "own scope" `Quick test_own_scope_ignores_teammates;
        ] );
      ( "verdict-cache",
        [
          Alcotest.test_case "hit is taken" `Quick test_cache_hit_is_taken;
          Alcotest.test_case "invalidated by arrival" `Quick
            test_cache_invalidated_by_arrival;
          Alcotest.test_case "invalidated by companion history" `Quick
            test_cache_invalidated_by_companion_history;
          Alcotest.test_case "invalidated by session change" `Quick
            test_cache_invalidated_by_session_change;
        ] );
      ( "team-fold",
        [
          Alcotest.test_case "late companion entry refolds" `Quick
            test_team_fold_refolds_late_entry;
        ] );
      ( "lazy-valve",
        [
          Alcotest.test_case "exploding binding = naive" `Quick
            test_valve_matches_naive;
        ] );
      ( "binding-index",
        [
          QCheck_alcotest.to_alcotest index_agrees_with_linear_scan;
          Alcotest.test_case "append and order" `Quick
            test_index_append_and_order;
        ] );
      ( "audit",
        [
          Alcotest.test_case "log" `Quick test_audit_log;
          Alcotest.test_case "counters agree with entries" `Quick
            test_audit_counters_agree_with_entries;
          Alcotest.test_case "empty-log conventions" `Quick
            test_audit_empty_log_conventions;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean policy" `Quick test_lint_clean_policy;
          Alcotest.test_case "unsatisfiable" `Quick test_lint_unsatisfiable;
          Alcotest.test_case "dead binding" `Quick test_lint_dead_binding;
          Alcotest.test_case "wildcard grant" `Quick
            test_lint_wildcard_grant_not_dead;
          Alcotest.test_case "role findings" `Quick test_lint_role_findings;
          Alcotest.test_case "zero duration" `Quick test_lint_zero_duration;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "render" `Quick test_timeline_render;
          Alcotest.test_case "empty" `Quick test_timeline_empty;
        ] );
      ( "export",
        [
          Alcotest.test_case "json escaping" `Quick test_export_json_escaping;
        ] );
      ( "policy-lang",
        [
          Alcotest.test_case "parse" `Quick test_policy_lang_parse;
          Alcotest.test_case "roundtrip" `Quick test_policy_lang_roundtrip;
          Alcotest.test_case "render fixed point (seeded property)" `Quick
            test_policy_lang_render_fixed_point;
          Alcotest.test_case "binding line roundtrip" `Quick
            test_policy_lang_binding_roundtrip;
          Alcotest.test_case "errors" `Quick test_policy_lang_errors;
          Alcotest.test_case "end to end" `Quick test_of_policy_text_end_to_end;
        ] );
    ]
