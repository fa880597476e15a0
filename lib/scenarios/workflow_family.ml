module Q = Temporal.Q
module Scenario = Parallel.Scenario

type task = {
  name : string;
  access : Sral.Access.t;
  window : Temporal.Interval.t option;
  after : string list;
}

type duty = Separation of string list | Binding of string list
type performer = { id : string; owner : string; roles : string list }

type t = {
  users : string list;
  roles : string list;
  grants : (string * Rbac.Perm.t) list;
  assignments : (string * string) list;
  bindings : Coordinated.Perm_binding.t list;
  performers : performer list;
  tasks : task list;
  duties : duty list;
  plan : Fault.Plan.t option;
}

let invalid fmt = Format.kasprintf invalid_arg ("Workflow_family.make: " ^^ fmt)

(* Kahn's algorithm; among ready tasks the least declaration index goes
   first, so the canonical order is total and deterministic. *)
let canonical_order tasks =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  let index = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i tk ->
      if Hashtbl.mem index tk.name then invalid "duplicate task %S" tk.name;
      Hashtbl.add index tk.name i)
    arr;
  let indeg = Array.make n 0 in
  let succs = Array.make n [] in
  Array.iteri
    (fun i tk ->
      List.iter
        (fun pre ->
          match Hashtbl.find_opt index pre with
          | None -> invalid "task %S: unknown prerequisite %S" tk.name pre
          | Some j ->
              succs.(j) <- i :: succs.(j);
              indeg.(i) <- indeg.(i) + 1)
        (List.sort_uniq String.compare tk.after))
    arr;
  let out = ref [] and placed = ref 0 in
  let ready = ref [] in
  for i = n - 1 downto 0 do
    if indeg.(i) = 0 then ready := i :: !ready
  done;
  while !ready <> [] do
    let i = List.fold_left min (List.hd !ready) !ready in
    ready := List.filter (fun j -> j <> i) !ready;
    out := arr.(i) :: !out;
    incr placed;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then ready := s :: !ready)
      succs.(i)
  done;
  if !placed <> n then invalid "task graph has a cycle";
  List.rev !out

let policy_of t =
  let p = Rbac.Policy.create () in
  List.iter (Rbac.Policy.add_user p) t.users;
  List.iter (Rbac.Policy.add_role p) t.roles;
  List.iter (fun (r, perm) -> Rbac.Policy.grant p r perm) t.grants;
  List.iter (fun (u, r) -> Rbac.Policy.assign_user p u r) t.assignments;
  p

let make ?(users = []) ?(roles = []) ?(grants = []) ?(assignments = [])
    ?(bindings = []) ?(duties = []) ?plan ~performers ~tasks () =
  let tasks = canonical_order tasks in
  let known name = List.exists (fun tk -> String.equal tk.name name) tasks in
  List.iter
    (fun duty ->
      let names =
        match duty with Separation ns -> ns | Binding ns -> ns
      in
      if List.length names < 2 then invalid "duty needs at least 2 tasks";
      if List.length (List.sort_uniq String.compare names) <> List.length names
      then invalid "duty names a task twice";
      List.iter
        (fun name -> if not (known name) then invalid "duty over unknown task %S" name)
        names)
    duties;
  let seen = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if Hashtbl.mem seen p.id then invalid "duplicate performer %S" p.id;
      Hashtbl.add seen p.id ();
      if not (List.mem p.owner users) then
        invalid "performer %S: owner %S is not a declared user" p.id p.owner)
    performers;
  let t =
    { users; roles; grants; assignments; bindings; performers; tasks; duties;
      plan }
  in
  (* materialize the policy once so ill-formed RBAC fields fail here,
     not in the middle of a run *)
  (try ignore (policy_of t) with
  | Rbac.Policy.Unknown (kind, name) -> invalid "unknown %s %S" kind name
  | Rbac.Policy.Ssd_violation (sod, u, r) ->
      invalid "assignment %S -> %S violates ssd %S" u r sod.Rbac.Sod.name);
  t

(* Task k's arrival is event 2k, its check event 2k+1; Scenario's clock
   runs event i at time i+1, so the decision lands at 2k+2. *)
let slot k = Q.of_int ((2 * k) + 2)

let position t name =
  let rec go k = function
    | [] -> raise Not_found
    | tk :: _ when String.equal tk.name name -> k
    | _ :: rest -> go (k + 1) rest
  in
  go 0 t.tasks

let task_slot t name = slot (position t name)

let in_window t k =
  match (List.nth t.tasks k).window with
  | None -> true
  | Some w -> Temporal.Interval.contains w (slot k)


let script t = Sral.Ast.seq (List.map (fun tk -> Sral.Ast.access tk.access) t.tasks)

type assignment = (string * string) list

let duties_ok t asg =
  let lookup name = List.assoc_opt name asg in
  List.for_all
    (function
      | Separation names ->
          let ps = List.filter_map lookup names in
          List.length ps = List.length (List.sort_uniq String.compare ps)
      | Binding names -> (
          match List.filter_map lookup names with
          | [] -> true
          | p :: rest -> List.for_all (String.equal p) rest))
    t.duties

let to_scenario t asg =
  let rec zip tasks asg acc =
    match (tasks, asg) with
    | _, [] -> List.rev acc
    | [], _ :: _ -> invalid_arg "Workflow_family.to_scenario: assignment too long"
    | tk :: ts, (name, pid) :: rest ->
        if not (String.equal tk.name name) then
          invalid_arg
            (Printf.sprintf
               "Workflow_family.to_scenario: assignment is not a canonical \
                prefix (expected task %S, got %S)"
               tk.name name);
        if not (List.exists (fun p -> String.equal p.id pid) t.performers) then
          invalid_arg
            (Printf.sprintf "Workflow_family.to_scenario: unknown performer %S"
               pid);
        zip ts rest ((tk, pid) :: acc)
  in
  let covered = zip t.tasks asg [] in
  let prog = script t in
  {
    Scenario.users = t.users;
    roles = t.roles;
    grants = t.grants;
    assignments = t.assignments;
    bindings = t.bindings;
    objects =
      List.map
        (fun p -> { Scenario.id = p.id; owner = p.owner; roles = p.roles; program = prog })
        t.performers;
    events =
      List.concat_map
        (fun (tk, pid) ->
          [
            Scenario.Arrive (pid, tk.access.Sral.Access.server);
            Scenario.Check (pid, tk.access);
          ])
        covered;
    plan = t.plan;
  }

type task_result = {
  task : string;
  performer : string;
  verdict : Coordinated.Decision.verdict;
  in_window : bool;
}

type outcome = {
  results : task_result list;
  completed : bool;
  raw : Scenario.outcome;
}

let run ?mode t asg =
  let raw = Scenario.run ?mode (to_scenario t asg) in
  let decision_at time =
    List.find_map
      (function
        | Obs.Trace.Decision d when Q.equal d.time time -> Some d.verdict
        | _ -> None)
      raw.Scenario.trace
  in
  let results =
    List.mapi
      (fun k (name, pid) ->
        let verdict =
          match decision_at (slot k) with
          | Some v -> v
          | None ->
              (* every Check emits exactly one Decision event (the
                 fail-closed path mints its own), so this is a harness
                 bug, not a workflow outcome *)
              failwith
                (Printf.sprintf
                   "Workflow_family.run: no decision recorded for task %S" name)
        in
        { task = name; performer = pid; verdict; in_window = in_window t k })
      asg
  in
  let completed =
    List.length asg = List.length t.tasks
    && duties_ok t asg
    && List.for_all
         (fun r -> r.in_window && Coordinated.Decision.is_granted r.verdict)
         results
  in
  { results; completed; raw }

(* ------------------------------------------------------------------ *)
(* Seeded generator families                                           *)
(* ------------------------------------------------------------------ *)

type family = Satisfiable | Unsatisfiable | Adversarial

let family_name = function
  | Satisfiable -> "satisfiable"
  | Unsatisfiable -> "unsatisfiable"
  | Adversarial -> "adversarial"

let family_of_name = function
  | "satisfiable" -> Some Satisfiable
  | "unsatisfiable" -> Some Unsatisfiable
  | "adversarial" -> Some Adversarial
  | _ -> None

let pick = Parallel.Workload.pick
let gen_servers = [ "s1"; "s2" ]
let gen_resources = [ "r1"; "r2"; "r3" ]

let gen_access rng =
  Sral.Access.make
    ~op:(pick rng [ Sral.Access.Read; Sral.Access.Write; Sral.Access.Execute ])
    ~resource:(pick rng gen_resources)
    ~server:(pick rng gen_servers)

(* Random forward-edge DAG over t1..tn: prerequisites point at earlier
   declarations only, so the canonical order is the declaration order
   and slot positions are known while generating. *)
let gen_tasks rng n =
  List.init n (fun k ->
      let name = Printf.sprintf "t%d" (k + 1) in
      let after =
        List.filteri
          (fun _ _ -> Random.State.int rng 4 = 0)
          (List.init k (fun j -> Printf.sprintf "t%d" (j + 1)))
      in
      let after = List.filteri (fun i _ -> i < 2) after in
      { name; access = gen_access rng; window = None; after })

let target_of (a : Sral.Access.t) = a.Sral.Access.resource ^ "@" ^ a.Sral.Access.server

let perm_of (a : Sral.Access.t) =
  Rbac.Perm.make
    ~operation:(Sral.Access.operation_name a.Sral.Access.op)
    ~target:(target_of a)

let covers perm (a : Sral.Access.t) =
  Rbac.Perm.matches perm
    ~operation:(Sral.Access.operation_name a.Sral.Access.op)
    ~target:(target_of a)

let satisfiable ?tasks:n_tasks ?performers:n_perf rng =
  let n = match n_tasks with Some n -> n | None -> 2 + Random.State.int rng 4 in
  let m = match n_perf with Some m -> m | None -> 2 + Random.State.int rng 2 in
  let users = Parallel.Workload.users in
  let roles = Parallel.Workload.roles in
  let assignments =
    [ ("u1", "ra"); ("u2", "rb") ]
    @ List.concat_map
        (fun u ->
          if Random.State.int rng 4 = 0 then [ (u, "rc") ] else [])
        users
  in
  let roles_of owner =
    List.filter_map
      (fun (u, r) -> if String.equal u owner then Some r else None)
      assignments
  in
  let performers =
    List.init m (fun i ->
        let owner = pick rng users in
        { id = Printf.sprintf "p%d" (i + 1); owner; roles = roles_of owner })
  in
  let tasks = gen_tasks rng n in
  let planted = List.map (fun tk -> (tk.name, pick rng performers)) tasks in
  let grants =
    List.map2
      (fun tk ((_, p) : string * performer) -> (List.hd p.roles, perm_of tk.access))
      tasks planted
  in
  let tasks =
    List.mapi
      (fun k tk ->
        let s = slot k in
        let window =
          match Random.State.int rng 4 with
          | 0 | 1 -> None
          | 2 ->
              Some
                (Temporal.Interval.make
                   (Q.sub s (Q.make 1 2))
                   (Q.add s (Q.of_int (1 + Random.State.int rng 3))))
          | _ -> Some (Temporal.Interval.make s s) (* point window on the slot *)
        in
        { tk with window })
      tasks
  in
  let performer_at name =
    snd (List.find (fun (n', _) -> String.equal n' name) planted)
  in
  let distinct_pair =
    List.find_opt
      (fun (a, b) -> not (String.equal (performer_at a).id (performer_at b).id))
      (List.concat_map
         (fun a -> List.filter_map (fun b ->
              if String.equal a.name b.name then None else Some (a.name, b.name)) tasks)
         tasks)
  in
  let same_pair =
    List.find_opt
      (fun (a, b) -> String.equal (performer_at a).id (performer_at b).id)
      (List.concat_map
         (fun a -> List.filter_map (fun b ->
              if a.name >= b.name then None else Some (a.name, b.name)) tasks)
         tasks)
  in
  let duties =
    (match distinct_pair with
    | Some (a, b) when Random.State.bool rng -> [ Separation [ a; b ] ]
    | _ -> [])
    @
    match same_pair with
    | Some (a, b) when Random.State.bool rng -> [ Binding [ a; b ] ]
    | _ -> []
  in
  (* a harmless temporal binding: it constrains one planted permission
     with a validity duration far beyond the run's horizon, so it is
     active (the grant covers its pattern) and never expires *)
  let bindings =
    if Random.State.bool rng then
      [
        Coordinated.Perm_binding.make
          ~dur:(Q.of_int (100 + Random.State.int rng 100))
          (perm_of (List.hd tasks).access);
      ]
    else []
  in
  let wf =
    make ~users ~roles ~grants ~assignments ~bindings ~duties ~performers
      ~tasks ()
  in
  (wf, List.map (fun (name, p) -> (name, p.id)) planted)

let unsatisfiable ?tasks:n_tasks ?performers:n_perf rng =
  let wf, _ = satisfiable ?tasks:n_tasks ?performers:n_perf rng in
  let rebuild ?(grants = wf.grants) ?(assignments = wf.assignments)
      ?(performers = wf.performers) ?(tasks = wf.tasks) ?(duties = wf.duties)
      () =
    make ~users:wf.users ~roles:wf.roles ~grants ~assignments
      ~bindings:wf.bindings ~duties ~performers ~tasks ()
  in
  let n = List.length wf.tasks and m = List.length wf.performers in
  let revoke_all_for k =
    let victim = List.nth wf.tasks k in
    rebuild
      ~grants:
        (List.filter (fun (_, perm) -> not (covers perm victim.access)) wf.grants)
      ()
  in
  match Random.State.int rng 4 with
  | 0 -> revoke_all_for (Random.State.int rng n)
  | 1 ->
      (* move one window strictly past its slot (rational endpoints) *)
      let k = Random.State.int rng n in
      let s = slot k in
      let tasks =
        List.mapi
          (fun i tk ->
            if i = k then
              { tk with
                window =
                  Some
                    (Temporal.Interval.make
                       (Q.add s (Q.make 1 2))
                       (Q.add s (Q.make 3 2)));
              }
            else tk)
          wf.tasks
      in
      rebuild ~tasks ()
  | 2 when n > m ->
      (* pigeonhole: more mutually-separated tasks than performers *)
      let names = List.filteri (fun i _ -> i <= m) (List.map (fun tk -> tk.name) wf.tasks) in
      rebuild ~duties:(Separation names :: wf.duties) ()
  | 3 -> (
      (* binding-of-duty over two tasks whose permissions no single
         performer can hold together: each user keeps exactly one role,
         and each of the two permissions is granted to only one of them *)
      let pairs =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b ->
                if a.name < b.name && not (Sral.Access.equal a.access b.access)
                then Some (a, b)
                else None)
              wf.tasks)
          wf.tasks
      in
      match pairs with
      | [] -> revoke_all_for (Random.State.int rng n)
      | _ ->
          let ta, tb = pick rng pairs in
          let assignments = [ ("u1", "ra"); ("u2", "rb") ] in
          let roles_of owner = if String.equal owner "u1" then [ "ra" ] else [ "rb" ] in
          let performers =
            List.map
              (fun (p : performer) -> { p with roles = roles_of p.owner })
              wf.performers
          in
          let grants =
            List.filter
              (fun (_, perm) ->
                not (covers perm ta.access || covers perm tb.access))
              wf.grants
            @ [ ("ra", perm_of ta.access); ("rb", perm_of tb.access) ]
          in
          rebuild ~assignments ~performers ~grants
            ~duties:(Binding [ ta.name; tb.name ] :: wf.duties)
            ())
  | _ -> revoke_all_for (Random.State.int rng n)

let adversarial ?tasks:n_tasks ?performers:n_perf ?faults rng =
  let n = match n_tasks with Some n -> n | None -> 2 + Random.State.int rng 3 in
  let m = match n_perf with Some m -> m | None -> 2 + Random.State.int rng 2 in
  let users = Parallel.Workload.users in
  let roles = Parallel.Workload.roles in
  let grants = Parallel.Workload.grants ~resources:gen_resources ~servers:gen_servers rng in
  let assignments = Parallel.Workload.assignments rng in
  let performers =
    List.init m (fun i ->
        {
          id = Printf.sprintf "p%d" (i + 1);
          owner = pick rng users;
          roles = List.filter (fun _ -> Random.State.bool rng) roles;
        })
  in
  let tasks =
    List.mapi
      (fun k tk ->
        let s = slot k in
        let window =
          match Random.State.int rng 7 with
          | 0 | 1 -> None
          | 2 -> Some (Temporal.Interval.make (Q.sub s Q.one) (Q.add s Q.one))
          | 3 -> Some (Temporal.Interval.make s (Q.add s (Q.of_int 2)))
              (* touching at the slot from below *)
          | 4 -> Some (Temporal.Interval.make (Q.max Q.zero (Q.sub s (Q.of_int 2))) s)
              (* touching at the slot from above *)
          | 5 -> Some (Temporal.Interval.make s s) (* point on the slot *)
          | _ ->
              (* rational-endpoint window missing the slot *)
              Some
                (Temporal.Interval.make (Q.add s (Q.make 1 3)) (Q.add s (Q.make 4 3)))
        in
        { tk with window })
      (gen_tasks rng n)
  in
  let duties =
    if n < 2 || Random.State.bool rng then []
    else
      let size = Stdlib.min n (2 + Random.State.int rng 2) in
      let names = List.filteri (fun i _ -> i < size) (List.map (fun tk -> tk.name) tasks) in
      [ (if Random.State.bool rng then Separation names else Binding names) ]
  in
  let bindings = Parallel.Workload.bindings ~resources:gen_resources rng in
  let with_plan =
    match faults with Some b -> b | None -> Random.State.int rng 3 = 0
  in
  let plan =
    if not with_plan then None
    else
      Some
        (Fault.Plan.of_name
           (pick rng [ "light"; "moderate"; "heavy" ])
           ~seed:(Random.State.int rng 1_000_000)
           ~servers:gen_servers
           ~horizon:((2 * n) + 4))
  in
  make ~users ~roles ~grants ~assignments ~bindings ~duties ?plan ~performers
    ~tasks ()

let generate ?tasks ?performers family rng =
  match family with
  | Satisfiable -> fst (satisfiable ?tasks ?performers rng)
  | Unsatisfiable -> unsatisfiable ?tasks ?performers rng
  | Adversarial -> adversarial ?tasks ?performers rng

let workflows ?tasks ?performers family ~salt ~count seed =
  Array.init count (fun i ->
      generate ?tasks ?performers family (Random.State.make [| salt; seed; i |]))

let pp_task ppf tk =
  Format.fprintf ppf "%s: %a%a%s" tk.name Sral.Access.pp tk.access
    (fun ppf -> function
      | None -> ()
      | Some w -> Format.fprintf ppf " in %a" Temporal.Interval.pp w)
    tk.window
    (match tk.after with
    | [] -> ""
    | deps -> " after " ^ String.concat "," deps)

let pp ppf t =
  Format.fprintf ppf "workflow: %d task(s), %d performer(s), %d duty(ies)%s@."
    (List.length t.tasks)
    (List.length t.performers)
    (List.length t.duties)
    (match t.plan with
    | None -> ""
    | Some p -> Printf.sprintf ", fault plan %s" p.Fault.Plan.name);
  List.iter (fun tk -> Format.fprintf ppf "  %a@." pp_task tk) t.tasks;
  List.iter
    (fun d ->
      match d with
      | Separation names ->
          Format.fprintf ppf "  sod: %s@." (String.concat "," names)
      | Binding names ->
          Format.fprintf ppf "  bod: %s@." (String.concat "," names))
    t.duties
