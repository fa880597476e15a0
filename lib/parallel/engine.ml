let sequential ?mode scenarios = Array.map (Scenario.run ?mode) scenarios

(* Round-robin coalitions across shards.  Each coalition is a closed
   world (own policy, own system), so any fixed assignment is sound;
   round-robin is deterministic and keeps the merge trivial — results
   land back in coalition order, so the concatenation of traces is
   byte-identical to the sequential run's. *)
let sharded ?mode ~shards scenarios =
  if shards < 1 then invalid_arg "Engine.sharded: shards must be >= 1";
  let n = Array.length scenarios in
  if n = 0 then [||]
  else begin
    let shard_count = min shards n in
    let buckets = Array.make shard_count [] in
    for i = n - 1 downto 0 do
      buckets.(i mod shard_count) <- i :: buckets.(i mod shard_count)
    done;
    let tasks =
      Array.map
        (fun indices () ->
          List.map (fun i -> (i, Scenario.run ?mode scenarios.(i))) indices)
        buckets
    in
    let results = Backend.parallel tasks in
    let out = Array.make n None in
    Array.iter (List.iter (fun (i, o) -> out.(i) <- Some o)) results;
    Array.map (function Some o -> o | None -> assert false) out
  end

let object_sharded ?mode ~shards sc =
  if shards < 1 then invalid_arg "Engine.object_sharded: shards must be >= 1";
  let partition = Partition.assign ~shards sc in
  let base = Scenario.system ?mode sc in
  (* replicas are built on the calling domain; spawned domains only ever
     touch their own replica (plus read-only scenario data) *)
  let replicas = Array.init shards (fun _ -> Coordinated.System.clone base) in
  let tasks =
    Array.init shards (fun s () ->
        Scenario.replay ~control:replicas.(s)
          ~owns:(fun id -> Partition.shard_of partition id = s)
          sc)
  in
  let slices = Backend.parallel tasks in
  let trace =
    Obs.Merge.by_index
      (Array.map
         (fun (sl : Scenario.slice) ->
           List.map (fun (st : Scenario.step) -> (st.index, st.trace)) sl.steps)
         slices)
  in
  let verdicts =
    Array.to_list slices
    |> List.concat_map (fun (sl : Scenario.slice) ->
           List.filter_map
             (fun (st : Scenario.step) ->
               Option.map (fun v -> (st.index, v)) st.verdict)
             sl.steps)
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
    |> List.map snd
  in
  (* The canonical audit log is rebuilt by replaying the merged trace
     through a fresh log sink — same mechanism the live system uses, so
     rendering and counters come out byte-identical to the
     sequential run's. *)
  let log = Coordinated.Audit_log.create () in
  let sink = Coordinated.Audit_log.sink log in
  List.iter (Obs.Sink.handle sink) trace;
  {
    Scenario.verdicts;
    granted = Coordinated.Audit_log.granted_count log;
    denied = Coordinated.Audit_log.denied_count log;
    log = Format.asprintf "%a" Coordinated.Audit_log.pp log;
    trace;
  }

let first_list_diff expected actual =
  let rec go i = function
    | [], [] -> None
    | e :: _, [] -> Some (Printf.sprintf "index %d: %S vs <missing>" i e)
    | [], a :: _ -> Some (Printf.sprintf "index %d: <missing> vs %S" i a)
    | e :: es, a :: as_ ->
        if String.equal e a then go (i + 1) (es, as_)
        else Some (Printf.sprintf "index %d: %S vs %S" i e a)
  in
  go 0 (expected, actual)

let diff ~(expected : Scenario.outcome) ~(actual : Scenario.outcome) =
  if expected.verdicts <> actual.verdicts then
    let detail =
      match first_list_diff expected.verdicts actual.verdicts with
      | Some d -> d
      | None -> "order"
    in
    Some (Printf.sprintf "verdicts: %s" detail)
  else if expected.granted <> actual.granted then
    Some
      (Printf.sprintf "granted counter: %d vs %d" expected.granted
         actual.granted)
  else if expected.denied <> actual.denied then
    Some
      (Printf.sprintf "denied counter: %d vs %d" expected.denied actual.denied)
  else if not (String.equal expected.log actual.log) then
    Some "audit log rendering"
  else if
    not
      (String.equal
         (Obs.Export.to_string expected.trace)
         (Obs.Export.to_string actual.trace))
  then Some "merged trace bytes"
  else None

type report = {
  coalitions : int;
  checks : int;
  shards : int;
  domains : bool;
  divergences : (int * string) list;
}

let pp_report ppf r =
  Format.fprintf ppf
    "conformance: %d coalition%s, %d checks, %d shard%s (%s backend): %s"
    r.coalitions
    (if r.coalitions = 1 then "" else "s")
    r.checks r.shards
    (if r.shards = 1 then "" else "s")
    (if r.domains then "domains" else "single")
    (match r.divergences with
    | [] -> "OK"
    | ds ->
        String.concat "; "
          (List.map
             (fun (i, d) -> Printf.sprintf "coalition %d diverged on %s" i d)
             ds))

let verify ?mode ~shards scenarios =
  let oracle = sequential ?mode scenarios in
  let coalition_level = sharded ?mode ~shards scenarios in
  let divergences = ref [] in
  Array.iteri
    (fun i expected ->
      (match diff ~expected ~actual:coalition_level.(i) with
      | Some d -> divergences := (i, "coalition-sharded " ^ d) :: !divergences
      | None -> ());
      match
        diff ~expected ~actual:(object_sharded ?mode ~shards scenarios.(i))
      with
      | Some d -> divergences := (i, "object-sharded " ^ d) :: !divergences
      | None -> ())
    oracle;
  {
    coalitions = Array.length scenarios;
    checks = Array.fold_left (fun acc sc -> acc + Scenario.checks sc) 0 scenarios;
    shards;
    domains = Backend.domains;
    divergences = List.rev !divergences;
  }
