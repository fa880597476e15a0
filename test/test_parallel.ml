(* Differential conformance harness for the sharded decision engine:
   the parallel engine must be *observationally identical* to the
   sequential interpreter — same rendered verdicts, same lifetime audit
   counters, same rendered audit log, byte-for-byte the same exported
   trace — over hundreds of generated coalitions, under both sharding
   strategies, with and without fault plans.

   Shard counts honour STACC_SHARDS (comma-separated, default "2,4");
   CI runs the suite under 2 and 8.  Seeds honour STACC_TEST_SEED via
   Gen. *)

module P = Parallel
module Scenario = Parallel.Scenario
module Engine = Parallel.Engine

let shard_counts =
  match Sys.getenv_opt "STACC_SHARDS" with
  | None | Some "" -> [ 2; 4 ]
  | Some s -> (
      match List.filter_map int_of_string_opt (String.split_on_char ',' s) with
      | [] -> failwith (Printf.sprintf "STACC_SHARDS unparsable: %S" s)
      | counts -> counts)

(* The conformance corpus: 300+ coalitions in three families —
   team-heavy (cross-object coupling stresses the team-closed
   partition), fault-planned (crash windows must replay fail-closed and
   identically), and team-free with a larger population (every object
   its own component — the embarrassingly-parallel shape). *)
let corpus =
  let module W = Scenarios.Workflow_family in
  (* A workflow as coalition data: round-robin the performers over the
     tasks — conformance does not care whether the run completes, only
     that sharded and sequential interpretations agree on it. *)
  let wf_family fam salt =
    Array.map
      (fun (wf : W.t) ->
        let ids = Array.of_list (List.map (fun (p : W.performer) -> p.W.id) wf.W.performers) in
        W.to_scenario wf
          (List.mapi
             (fun k (tk : W.task) ->
               (tk.W.name, ids.(k mod Array.length ids)))
             wf.W.tasks))
      (Gen.workflows fam ~salt ~count:20 Gen.offset)
  in
  Array.concat
    [
      Gen.coalitions ~salt:6060 ~count:150 Gen.offset;
      Gen.coalitions ~salt:6061 ~faults:true ~count:100 Gen.offset;
      Gen.coalitions ~salt:6062 ~teams:false ~objects:6 ~events:30 ~count:50
        Gen.offset;
      (* workflow-derived coalitions: straight-line scripts, canonical
         schedules, optional fault plans — a qualitatively different
         event shape (arrive/check lockstep) for the sharded engine *)
      wf_family W.Satisfiable 6065;
      wf_family W.Adversarial 6066;
    ]

let () = assert (Array.length corpus >= 300)

let check_report shards (r : Engine.report) =
  match r.Engine.divergences with
  | [] -> ()
  | (i, d) :: _ ->
      Alcotest.failf
        "%d divergence(s); first: coalition %d diverged on %s; reproduce \
         with: STACC_TEST_SEED=%d STACC_SHARDS=%d dune exec \
         test/test_parallel.exe"
        (List.length r.Engine.divergences)
        i d Gen.offset shards

(* 1. The headline property: both sharding strategies conform over the
   whole corpus, at every configured shard count. *)
let test_conformance () =
  List.iter
    (fun shards ->
      let report = Engine.verify ~shards corpus in
      Alcotest.(check int)
        (Printf.sprintf "corpus size (shards=%d)" shards)
        (Array.length corpus) report.Engine.coalitions;
      Alcotest.(check bool)
        (Printf.sprintf "corpus exercises checks (shards=%d)" shards)
        true
        (report.Engine.checks > 1000);
      check_report shards report)
    shard_counts

(* 2. Naive mode too: sharding must be orthogonal to the decision-path
   strategy, not an artifact of the indexed cache. *)
let test_conformance_naive_mode () =
  let slice = Array.sub corpus 0 60 in
  List.iter
    (fun shards ->
      check_report shards
        (Engine.verify ~mode:Coordinated.System.Naive ~shards slice))
    shard_counts

(* 3. One shard is literally the sequential engine — and on OCaml 4.14
   (Backend.domains = false) every shard count degrades to this, so
   this is the single-shard-fallback conformance test. *)
let test_single_shard_is_sequential () =
  let expected = Engine.sequential corpus in
  let actual = Engine.sharded ~shards:1 corpus in
  Array.iteri
    (fun i e ->
      match Engine.diff ~expected:e ~actual:actual.(i) with
      | None -> ()
      | Some d ->
          Alcotest.failf "STACC_TEST_SEED=%d coalition %d: shards=1 %s"
            Gen.offset i d)
    expected;
  Array.iteri
    (fun i e ->
      match
        Engine.diff ~expected:e ~actual:(Engine.object_sharded ~shards:1 corpus.(i))
      with
      | None -> ()
      | Some d ->
          Alcotest.failf
            "STACC_TEST_SEED=%d coalition %d: object-sharded shards=1 %s"
            Gen.offset i d)
    expected

(* 4. Sharded runs are deterministic: two executions export
   byte-identical traces (domains introduce scheduling nondeterminism;
   the merge must erase it). *)
let test_sharded_determinism () =
  let shards = List.fold_left max 2 shard_counts in
  let bytes () =
    let outcomes = Engine.sharded ~shards corpus in
    String.concat ""
      (Array.to_list
         (Array.map (fun o -> Obs.Export.to_string o.Scenario.trace) outcomes))
  in
  Alcotest.(check bool) "coalition-sharded bytes stable" true
    (String.equal (bytes ()) (bytes ()));
  let obytes () =
    Obs.Export.to_string (Engine.object_sharded ~shards corpus.(0)).Scenario.trace
  in
  Alcotest.(check bool) "object-sharded bytes stable" true
    (String.equal (obytes ()) (obytes ()))

(* 5. Partition soundness: objects that ever share a team land on the
   same shard; the assignment is deterministic and total. *)
let test_partition_team_closed () =
  Gen.each_seed ~salt:6063 ~count:100 (fun ~seed rng ->
      let sc = Gen.coalition rng in
      List.iter
        (fun shards ->
          let p = P.Partition.assign ~shards sc in
          (* total over declared objects *)
          List.iter
            (fun (o : Scenario.obj) -> ignore (P.Partition.shard_of p o.id))
            sc.Scenario.objects;
          (* team-closed: co-membership forces co-location *)
          let home = Hashtbl.create 8 in
          List.iter
            (function
              | Scenario.Join (id, team) -> (
                  let s = P.Partition.shard_of p id in
                  match Hashtbl.find_opt home team with
                  | None -> Hashtbl.add home team s
                  | Some s' ->
                      if s <> s' then
                        Alcotest.failf
                          "seed %d shards=%d: team %S split across shards %d \
                           and %d"
                          seed shards team s' s)
              | _ -> ())
            sc.Scenario.events;
          (* deterministic *)
          let p' = P.Partition.assign ~shards sc in
          List.iter
            (fun (o : Scenario.obj) ->
              Alcotest.(check int)
                (Printf.sprintf "seed %d: stable shard for %s" seed o.id)
                (P.Partition.shard_of p o.id)
                (P.Partition.shard_of p' o.id))
            sc.Scenario.objects)
        shard_counts;
      let p = P.Partition.assign ~shards:2 sc in
      Alcotest.check_raises
        (Printf.sprintf "seed %d: unknown object rejected" seed)
        (Invalid_argument "Partition.shard_of: unknown object \"ghost\"")
        (fun () -> ignore (P.Partition.shard_of p "ghost")))

(* 6. The merge is exactly a stable sort by step index. *)
let test_merge_by_index () =
  let ev t =
    Obs.Trace.Fault_injected
      {
        time = Temporal.Q.of_int t;
        agent = Printf.sprintf "a%d" t;
        fault = Obs.Trace.Server_unreachable;
        target = "s1";
      }
  in
  let shard0 = [ (0, [ ev 0 ]); (2, [ ev 2; ev 20 ]); (5, []) ] in
  let shard1 = [ (1, [ ev 1 ]); (3, []); (4, [ ev 4 ]) ] in
  Alcotest.(check bool) "shard slices are monotone" true
    (Obs.Merge.monotone_indices shard0 && Obs.Merge.monotone_indices shard1);
  Alcotest.(check bool) "non-monotone detected" false
    (Obs.Merge.monotone_indices [ (3, []); (3, []) ]);
  let merged = Obs.Merge.by_index [| shard0; shard1 |] in
  Alcotest.(check string) "interleaved into step order"
    (Obs.Export.to_string [ ev 0; ev 1; ev 2; ev 20; ev 4 ])
    (Obs.Export.to_string merged)

(* 7. Backend contract: results in task order; exceptions join all
   domains and re-raise the first (in task order). *)
let test_backend_contract () =
  let results =
    P.Backend.parallel (Array.init 9 (fun i () -> i * i))
  in
  Alcotest.(check (list int)) "task order"
    (List.init 9 (fun i -> i * i))
    (Array.to_list results);
  Alcotest.(check (list int)) "empty and singleton" [ 7 ]
    (Array.to_list (P.Backend.parallel [| (fun () -> 7) |]));
  Alcotest.(check int) "empty" 0
    (Array.length (P.Backend.parallel [||]));
  Alcotest.check_raises "first failure re-raised" (Failure "task-1")
    (fun () ->
      ignore
        (P.Backend.parallel
           [|
             (fun () -> ());
             (fun () -> failwith "task-1");
             (fun () -> failwith "task-2");
           |]))

(* 8. Clones of one base share its Program-scope outcome table across
   domains.  Each shard's clone checks every program (registered as a
   physically distinct copy, starting at a different offset so the
   domains race on the same entries) while the others extend the same
   table: verdicts must equal a sequential run on an unshared base, and
   the table must end with one entry per (binding, distinct program). *)
let test_shared_outcomes_across_domains () =
  let module System = Coordinated.System in
  let module PB = Coordinated.Perm_binding in
  let rng = Random.State.make [| 1919; Gen.offset |] in
  let resources = [ "r1"; "r2"; "r3" ] and servers = [ "s1"; "s2" ] in
  let perm = Rbac.Perm.make ~operation:"read" ~target:"*@*" in
  let bindings =
    [
      PB.make
        ~spatial:(Srac.Formula.at_most 1 (Srac.Selector.Resource "r1"))
        ~spatial_modality:Srac.Program_sat.Forall perm;
      PB.make
        ~spatial:(Srac.Formula.at_most 2 (Srac.Selector.Server "s2"))
        ~spatial_scope:PB.Both perm;
    ]
  in
  let programs =
    Array.init 200 (fun _ ->
        Sral.Generate.program ~allow_io:false ~resources ~servers
          ~size:(3 + Random.State.int rng 8)
          rng)
  in
  let distinct =
    Array.to_list programs
    |> List.sort_uniq Sral.Ast.compare
    |> List.length
  in
  let n = Array.length programs in
  let base_of () =
    let policy = Rbac.Policy.create () in
    Rbac.Policy.add_user policy "u";
    Rbac.Policy.add_role policy "r";
    Rbac.Policy.assign_user policy "u" "r";
    Rbac.Policy.grant policy "r" perm;
    System.create ~bindings policy
  in
  let access = Sral.Access.read "r1" ~at:"s1" in
  let run system ~offset =
    let session = System.new_session system ~user:"u" in
    Rbac.Session.activate session "r";
    let verdicts = Array.make n "" in
    for k = 0 to n - 1 do
      let i = (k + offset) mod n in
      let object_id = Printf.sprintf "o%d" i in
      let program : Sral.Ast.t =
        Marshal.from_string (Marshal.to_string programs.(i) []) 0
      in
      System.arrive system ~object_id ~server:"s1" ~time:Temporal.Q.zero;
      verdicts.(i) <-
        Format.asprintf "%a" Coordinated.Decision.pp_verdict
          (System.check system ~session ~object_id ~program
             ~time:Temporal.Q.one access)
    done;
    verdicts
  in
  let expected = run (base_of ()) ~offset:0 in
  Alcotest.(check bool) "programs give both verdicts" true
    (Array.exists (String.equal "granted") expected
    && not (Array.for_all (String.equal "granted") expected));
  List.iter
    (fun shards ->
      let base = base_of () in
      let results =
        P.Backend.parallel
          (Array.init shards (fun d () ->
               run (System.clone base) ~offset:(d * n / shards)))
      in
      Array.iteri
        (fun d verdicts ->
          Alcotest.(check (array string))
            (Printf.sprintf "shards=%d clone %d = sequential" shards d)
            expected verdicts)
        results;
      Alcotest.(check int)
        (Printf.sprintf "shards=%d: one entry per (binding, program)" shards)
        (2 * distinct)
        (System.program_outcomes base))
    shard_counts

(* 9. Clones of one base share its policy, and with it the policy's
   compiled RBAC table.  The base decides once, so a table exists for
   the old version; a grant then moves the version, and each shard's
   clone checks every access from a different offset, so the domains
   race to build the new table: verdicts must equal a sequential run
   on an unshared base. *)
let test_shared_rbac_table_across_domains () =
  let module System = Coordinated.System in
  let accesses =
    Array.of_list
      (List.concat_map
         (fun op ->
           List.concat_map
             (fun resource ->
               List.map
                 (fun server -> Sral.Access.make ~op ~resource ~server)
                 [ "s1"; "s2"; "b@s1" ])
             [ "r1"; "r2"; "db"; "a@b" ])
         Sral.Access.[ Read; Write; Custom "hash" ])
  in
  let n = Array.length accesses in
  let base_of () =
    let policy = Rbac.Policy.create () in
    Rbac.Policy.add_user policy "u";
    List.iter (Rbac.Policy.add_role policy) [ "junior"; "senior" ];
    Rbac.Policy.add_inheritance policy ~senior:"senior" ~junior:"junior";
    Rbac.Policy.assign_user policy "u" "senior";
    Rbac.Policy.grant policy "junior"
      (Rbac.Perm.make ~operation:"read" ~target:"*@s1");
    Rbac.Policy.grant policy "senior"
      (Rbac.Perm.make ~operation:"write" ~target:"r1@*");
    let base = System.create ~bindings:[] policy in
    let session = System.new_session base ~user:"u" in
    Rbac.Session.activate session "senior";
    System.arrive base ~object_id:"w" ~server:"s1" ~time:Temporal.Q.zero;
    ignore
      (System.check base ~session ~object_id:"w"
         ~program:(Sral.Parser.program "read r1 @ s1")
         ~time:Temporal.Q.one accesses.(0));
    Rbac.Policy.grant policy "junior"
      (Rbac.Perm.make ~operation:"hash" ~target:"*@b@s1");
    base
  in
  let run system ~offset =
    let session = System.new_session system ~user:"u" in
    Rbac.Session.activate session "senior";
    System.arrive system ~object_id:"o" ~server:"s1" ~time:Temporal.Q.zero;
    let program = Sral.Parser.program "read r1 @ s1" in
    let verdicts = Array.make n "" in
    for k = 0 to n - 1 do
      let i = (k + offset) mod n in
      verdicts.(i) <-
        Format.asprintf "%a" Coordinated.Decision.pp_verdict
          (System.check system ~session ~object_id:"o" ~program
             ~time:Temporal.Q.one accesses.(i))
    done;
    verdicts
  in
  let expected = run (base_of ()) ~offset:0 in
  Alcotest.(check bool) "the bump's grant is seen" true
    (Array.exists2
       (fun (a : Sral.Access.t) v ->
         a.op = Sral.Access.Custom "hash"
         && (not (String.contains a.resource '@'))
         && String.equal v "granted")
       accesses expected);
  List.iter
    (fun shards ->
      let base = base_of () in
      let results =
        P.Backend.parallel
          (Array.init shards (fun d () ->
               run (System.clone base) ~offset:(d * n / shards)))
      in
      Array.iteri
        (fun d verdicts ->
          Alcotest.(check (array string))
            (Printf.sprintf "shards=%d clone %d = sequential" shards d)
            expected verdicts)
        results)
    shard_counts

(* 10. The big-coalition generator — the [stacc bench-parallel --big]
   workload and the ROADMAP's 10^4+-object shard sweeps: one
   2000-object coalition in team-closed blocks, replayed object-sharded
   at every configured shard count, must conform to the sequential
   interpreter observation for observation. *)
let test_big_coalition_conformance () =
  let rng = Random.State.make [| 1717; Gen.offset |] in
  let sc = Parallel.Workload.big_coalition ~objects:2_000 rng in
  let expected = (Engine.sequential [| sc |]).(0) in
  List.iter
    (fun shards ->
      match
        Engine.diff ~expected ~actual:(Engine.object_sharded ~shards sc)
      with
      | None -> ()
      | Some d ->
          Alcotest.failf "STACC_TEST_SEED=%d STACC_SHARDS=%d big coalition: %s"
            Gen.offset shards d)
    shard_counts

let () =
  Alcotest.run "parallel"
    [
      ( "conformance",
        [
          Alcotest.test_case
            (Printf.sprintf "parallel = sequential over %d coalitions"
               (Array.length corpus))
            `Slow test_conformance;
          Alcotest.test_case "naive mode conforms too" `Quick
            test_conformance_naive_mode;
          Alcotest.test_case "one shard is the sequential engine" `Quick
            test_single_shard_is_sequential;
          Alcotest.test_case "sharded runs are byte-deterministic" `Quick
            test_sharded_determinism;
          Alcotest.test_case "big team-closed coalition conforms" `Slow
            test_big_coalition_conformance;
        ] );
      ( "partition",
        [
          Alcotest.test_case "team-closed, total, deterministic" `Quick
            test_partition_team_closed;
        ] );
      ( "merge",
        [ Alcotest.test_case "by-index interleave" `Quick test_merge_by_index ]
      );
      ( "backend",
        [
          Alcotest.test_case "task order and errors" `Quick
            test_backend_contract;
          Alcotest.test_case "clones share program outcomes across domains"
            `Quick test_shared_outcomes_across_domains;
          Alcotest.test_case "clones share the compiled RBAC table" `Quick
            test_shared_rbac_table_across_domains;
        ] );
    ]
