module Q = Temporal.Q

(* Figure 1: 11 modules; x -> y means x depends on y. *)
let dependency_edges =
  [
    ("a", "d");
    ("a", "e");
    ("b", "d");
    ("c", "f");
    ("d", "g");
    ("e", "h");
    ("f", "g");
    ("f", "i");
    ("g", "j");
    ("h", "k");
    ("i", "k");
    ("j", "k");
  ]

let module_graph () = Digraph.of_edges dependency_edges

let placement =
  [
    ("a", "s1");
    ("b", "s1");
    ("c", "s1");
    ("d", "s1");
    ("e", "s2");
    ("f", "s2");
    ("g", "s2");
    ("h", "s3");
    ("i", "s3");
    ("j", "s3");
    ("k", "s3");
  ]

let server_of m =
  match List.assoc_opt m placement with
  | Some s -> s
  | None -> invalid_arg ("Integrity_audit: unknown module " ^ m)

let hash_access m = Sral.Access.custom "hash" m ~at:(server_of m)

let pristine_contents m =
  Printf.sprintf "module %s v1.0 — licensed component of the suite\n" m

let modules () = List.map fst placement

(* dependencies-first order: reverse of a topological order of the
   dependency digraph (which points from dependent to dependency) *)
let audit_order () =
  match Digraph.topological_sort (module_graph ()) with
  | Some order -> List.rev order
  | None -> invalid_arg "Integrity_audit: dependency graph has a cycle"

let audit_program () =
  Sral.Ast.seq (List.map (fun m -> Sral.Ast.Access (hash_access m)) (audit_order ()))

let tampered_program () =
  (* hash dependents before dependencies: plain topological order, so
     e.g. [a] is hashed before [d] and [e] *)
  match Digraph.topological_sort (module_graph ()) with
  | Some order ->
      Sral.Ast.seq (List.map (fun m -> Sral.Ast.Access (hash_access m)) order)
  | None -> assert false

let dependency_constraints () =
  let g = module_graph () in
  List.filter_map
    (fun m ->
      match Digraph.successors g m with
      | [] -> None
      | deps ->
          let conjuncts =
            List.map
              (fun d -> Srac.Formula.Ordered (hash_access d, hash_access m))
              deps
          in
          let formula =
            List.fold_left
              (fun acc c -> Srac.Formula.And (acc, c))
              (List.hd conjuncts) (List.tl conjuncts)
          in
          Some (m, formula))
    (modules ())

type report = {
  metrics : Naplet.Metrics.t;
  hashes : (string * string) list;
  granted : int;
  denied : int;
  all_verified : bool;
  deadline_hit : bool;
  trace : Obs.Trace.event list;
}

let expected_hashes () =
  List.map (fun m -> (m, Crypto.Sha1.hex_of_string (pristine_contents m))) (modules ())

let build_control ~deadline =
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "auditor";
  Rbac.Policy.add_role policy "system_auditor";
  Rbac.Policy.assign_user policy "auditor" "system_auditor";
  Rbac.Policy.grant policy "system_auditor"
    (Rbac.Perm.make ~operation:"hash" ~target:"*@*");
  let control = Coordinated.System.create policy in
  (* one binding per module with dependencies: every dependency must be
     hashed (with proof) before the module itself — history scope *)
  List.iter
    (fun (m, formula) ->
      Coordinated.System.add_binding control
        (Coordinated.Perm_binding.make ~spatial:formula
           ~spatial_scope:Coordinated.Perm_binding.Performed
           ?dur:deadline
           ~scheme:Temporal.Validity.Whole_journey
           (Rbac.Perm.make ~operation:"hash" ~target:(m ^ "@" ^ server_of m))))
    (dependency_constraints ());
  (* modules without dependencies still get the deadline *)
  (match deadline with
  | Some _ ->
      List.iter
        (fun m ->
          if not (List.mem_assoc m (dependency_constraints ())) then
            Coordinated.System.add_binding control
              (Coordinated.Perm_binding.make ?dur:deadline
                 ~scheme:Temporal.Validity.Whole_journey
                 (Rbac.Perm.make ~operation:"hash"
                    ~target:(m ^ "@" ^ server_of m))))
        (modules ())
  | None -> ());
  control

type parallel_report = {
  base : report;
  clones_used : int;
  reports_collected : int;
}

let install_contents world =
  List.iter
    (fun (m, s) ->
      match Naplet.World.server world s with
      | Some srv ->
          Naplet.Server.put_resource srv ~name:m ~contents:(pristine_contents m)
      | None -> assert false)
    placement

let report_of world log metrics trace =
  let granted_accesses =
    List.map
      (fun (e : Coordinated.Audit_log.entry) -> e.Coordinated.Audit_log.access)
      (Coordinated.Audit_log.granted log)
  in
  let hashes =
    List.filter_map
      (fun (a : Sral.Access.t) ->
        match Naplet.World.server world a.Sral.Access.server with
        | Some srv -> (
            match Naplet.Server.get_resource srv ~name:a.Sral.Access.resource with
            | Some contents ->
                Some (a.Sral.Access.resource, Crypto.Sha1.hex_of_string contents)
            | None -> None)
        | None -> None)
      granted_accesses
  in
  let deadline_hit =
    List.exists
      (fun (e : Coordinated.Audit_log.entry) ->
        match e.Coordinated.Audit_log.verdict with
        | Coordinated.Decision.Denied (Coordinated.Decision.Temporal_expired _)
          ->
            true
        | _ -> false)
      (Coordinated.Audit_log.entries log)
  in
  {
    metrics;
    hashes;
    granted = metrics.Naplet.Metrics.granted;
    denied = metrics.Naplet.Metrics.denied;
    all_verified = List.for_all (fun m -> List.mem_assoc m hashes) (modules ());
    deadline_hit;
    trace = trace ();
  }

let run_parallel ?deadline ~clones () =
  if clones < 1 then invalid_arg "Integrity_audit.run_parallel: clones < 1";
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "auditor";
  Rbac.Policy.add_role policy "system_auditor";
  Rbac.Policy.assign_user policy "auditor" "system_auditor";
  Rbac.Policy.grant policy "system_auditor"
    (Rbac.Perm.make ~operation:"hash" ~target:"*@*");
  let control = Coordinated.System.create policy in
  (match deadline with
  | Some _ ->
      Coordinated.System.add_binding control
        (Coordinated.Perm_binding.make ?dur:deadline
           ~scheme:Temporal.Validity.Whole_journey
           (Rbac.Perm.make ~operation:"hash" ~target:"*@*"))
  | None -> ());
  let capture, trace = Obs.Sink.memory () in
  Obs.Bus.subscribe (Coordinated.System.bus control) capture;
  let log = Coordinated.Audit_log.attach (Coordinated.System.bus control) in
  let world = Naplet.World.create control in
  List.iter
    (fun s -> Naplet.World.add_server world (Naplet.Server.create s))
    [ "s1"; "s2"; "s3" ];
  install_contents world;
  let accesses = List.map hash_access (audit_order ()) in
  let clone_plans = Naplet.Clone.plan ~team:"audit" ~clones accesses in
  Naplet.Clone.spawn_all world ~owner:"auditor" ~roles:[ "system_auditor" ]
    ~home:"s1" clone_plans;
  Naplet.World.spawn world ~team:"audit" ~id:"audit-home" ~owner:"auditor"
    ~roles:[] ~home:"s1"
    (Naplet.Clone.collector_program ~team:"audit" (List.length clone_plans));
  let metrics = Naplet.World.run world in
  let reports_collected =
    match Naplet.World.agent world "audit-home" with
    | Some agent -> (
        match Naplet.Machine.env_value agent.Naplet.Agent.machine "total" with
        | Some (Sral.Value.Int _) -> List.length clone_plans
        | _ -> 0)
    | None -> 0
  in
  {
    base = report_of world log metrics trace;
    clones_used = List.length clone_plans;
    reports_collected;
  }

let run ?deadline ?(respect_order = true) ?(tamper_contents = []) () =
  let control = build_control ~deadline in
  let capture, trace = Obs.Sink.memory () in
  Obs.Bus.subscribe (Coordinated.System.bus control) capture;
  let log = Coordinated.Audit_log.attach (Coordinated.System.bus control) in
  let world = Naplet.World.create control in
  List.iter
    (fun s -> Naplet.World.add_server world (Naplet.Server.create s))
    [ "s1"; "s2"; "s3" ];
  (* install module contents on their servers *)
  List.iter
    (fun (m, s) ->
      match Naplet.World.server world s with
      | Some srv ->
          let contents =
            if List.mem m tamper_contents then
              pristine_contents m ^ "INJECTED PAYLOAD\n"
            else pristine_contents m
          in
          Naplet.Server.put_resource srv ~name:m ~contents
      | None -> assert false)
    placement;
  let program = if respect_order then audit_program () else tampered_program () in
  Naplet.World.spawn world ~id:"audit-naplet" ~owner:"auditor"
    ~roles:[ "system_auditor" ] ~home:"s1" program;
  let metrics = Naplet.World.run world in
  (* hash every module whose access was granted, reading contents from
     its server — the mobile code's computation, replayed *)
  let granted_accesses =
    List.map
      (fun (e : Coordinated.Audit_log.entry) -> e.Coordinated.Audit_log.access)
      (Coordinated.Audit_log.granted log)
  in
  let hashes =
    List.filter_map
      (fun (a : Sral.Access.t) ->
        match Naplet.World.server world a.Sral.Access.server with
        | Some srv -> (
            match Naplet.Server.get_resource srv ~name:a.Sral.Access.resource with
            | Some contents ->
                Some (a.Sral.Access.resource, Crypto.Sha1.hex_of_string contents)
            | None -> None)
        | None -> None)
      granted_accesses
  in
  let deadline_hit =
    List.exists
      (fun (e : Coordinated.Audit_log.entry) ->
        match e.Coordinated.Audit_log.verdict with
        | Coordinated.Decision.Denied (Coordinated.Decision.Temporal_expired _)
          ->
            true
        | _ -> false)
      (Coordinated.Audit_log.entries log)
  in
  let all_verified =
    List.for_all (fun m -> List.mem_assoc m hashes) (modules ())
  in
  {
    metrics;
    hashes;
    granted = metrics.Naplet.Metrics.granted;
    denied = metrics.Naplet.Metrics.denied;
    all_verified;
    deadline_hit;
    trace = trace ();
  }
