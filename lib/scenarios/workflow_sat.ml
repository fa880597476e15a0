module Q = Temporal.Q
module W = Workflow_family

type impossibility =
  | Window_missed of {
      task : string;
      window : Temporal.Interval.t;
      slot : Temporal.Q.t;
    }
  | No_candidate of { task : string; rejected : (string * string) list }
  | Duty_unsatisfiable of { duty : W.duty; detail : string }
  | Exhausted of { task : string; attempts : (string * string) list }

type verdict = Complete of W.assignment | Impossible of impossibility

let render_verdict v = Format.asprintf "%a" Coordinated.Decision.pp_verdict v

(* Static candidacy, shared by the checker's filters and the duty
   prechecks.  Exactly mirrors the interpreter: sessions are created
   once per performer with best-effort role activation, and the RBAC
   stage of the decision pipeline is Rbac.Engine.decide_access on that
   session.  A [`Rbac] or [`Down] rejection therefore holds in every
   run, whatever the rest of the assignment does. *)
let candidate_table (wf : W.t) =
  let policy = W.policy_of wf in
  let sessions =
    List.map
      (fun (p : W.performer) ->
        let s = Rbac.Session.create policy ~user:p.owner in
        List.iter
          (fun r ->
            try Rbac.Session.activate s r with
            | Rbac.Session.Not_authorized _ | Rbac.Session.Dsd_violation _ ->
                ())
          p.roles;
        (p.id, s))
      wf.W.performers
  in
  let tasks = Array.of_list wf.W.tasks in
  Array.mapi
    (fun k (tk : W.task) ->
      let server = tk.W.access.Sral.Access.server in
      let down =
        match wf.W.plan with
        | None -> false
        | Some plan -> Fault.Plan.server_down plan ~server ~time:(W.slot k)
      in
      List.map
        (fun (id, session) ->
          if down then
            ( id,
              Error
                (Printf.sprintf "server %s is down at %s" server
                   (Q.to_string (W.slot k))) )
          else
            match Rbac.Engine.decide_access session tk.W.access with
            | Rbac.Engine.Granted -> (id, Ok ())
            | Rbac.Engine.Denied why -> (id, Error ("rbac: " ^ why)))
        sessions)
    tasks

let ok_ids row = List.filter_map (fun (id, r) -> if Result.is_ok r then Some id else None) row

let candidates wf k = ok_ids (candidate_table wf).(k)

let duty_names = function W.Separation ns -> ns | W.Binding ns -> ns

(* Assignment-independent prechecks, in a fixed order so the checker's
   unsat explanations are deterministic. *)
let precheck (wf : W.t) table =
  let tasks = Array.of_list wf.W.tasks in
  let n = Array.length tasks in
  let missed =
    List.find_map
      (fun k ->
        if W.in_window wf k then None
        else
          match tasks.(k).W.window with
          | None -> None
          | Some w ->
              Some
                (Window_missed
                   { task = tasks.(k).W.name; window = w; slot = W.slot k }))
      (List.init n Fun.id)
  in
  match missed with
  | Some imp -> Some imp
  | None -> (
      let no_candidate =
        List.find_map
          (fun k ->
            if ok_ids table.(k) = [] then
              Some
                (No_candidate
                   {
                     task = tasks.(k).W.name;
                     rejected =
                       List.map
                         (fun (id, r) ->
                           (id, match r with Ok () -> "ok" | Error e -> e))
                         table.(k);
                   })
            else None)
          (List.init n Fun.id)
      in
      match no_candidate with
      | Some imp -> Some imp
      | None ->
          let m = List.length wf.W.performers in
          let position name =
            let rec go k = function
              | [] -> assert false
              | (tk : W.task) :: _ when String.equal tk.W.name name -> k
              | _ :: rest -> go (k + 1) rest
            in
            go 0 wf.W.tasks
          in
          List.find_map
            (fun duty ->
              match duty with
              | W.Separation names when List.length names > m ->
                  Some
                    (Duty_unsatisfiable
                       {
                         duty;
                         detail =
                           Printf.sprintf
                             "%d mutually-separated tasks, %d performers"
                             (List.length names) m;
                       })
              | W.Separation _ -> None
              | W.Binding names ->
                  let shared =
                    List.fold_left
                      (fun acc name ->
                        let ids = ok_ids table.(position name) in
                        List.filter (fun id -> List.mem id ids) acc)
                      (List.map (fun (p : W.performer) -> p.W.id) wf.W.performers)
                      names
                  in
                  if shared = [] then
                    Some
                      (Duty_unsatisfiable
                         {
                           duty;
                           detail = "no performer qualifies for every bound task";
                         })
                  else None)
            wf.W.duties)

(* Depth-first search in lexicographic order.  The verdict of task [k]
   in any run is determined by the assignment prefix covering tasks
   0..k (every performer carries the same full script, and the
   interpreter's state at slot k only reads events of earlier tasks),
   so replaying the prefix after each extension is an *exact* test:
   a denial prunes a subtree that provably contains no witness, and a
   grant means the prefix is a real partial completion.  Hence the
   first full assignment reached is the lexicographic minimum among
   all completing assignments — the same one brute force finds. *)
let check ?mode (wf : W.t) =
  let table = candidate_table wf in
  match precheck wf table with
  | Some imp -> Impossible imp
  | None ->
      let tasks = Array.of_list wf.W.tasks in
      let n = Array.length tasks in
      let deepest = ref (-1) and deepest_attempts = ref [] in
      let rec go k prefix_rev =
        if k = n then Some (List.rev prefix_rev)
        else begin
          let attempts = ref [] in
          let found =
            List.find_map
              (fun (id, sr) ->
                match sr with
                | Error why ->
                    attempts := (id, why) :: !attempts;
                    None
                | Ok () -> (
                    let prefix =
                      List.rev ((tasks.(k).W.name, id) :: prefix_rev)
                    in
                    if not (W.duties_ok wf prefix) then begin
                      attempts := (id, "duty violated") :: !attempts;
                      None
                    end
                    else
                      let outcome = W.run ?mode wf prefix in
                      let last =
                        List.nth outcome.W.results
                          (List.length outcome.W.results - 1)
                      in
                      match last.W.verdict with
                      | Coordinated.Decision.Granted ->
                          go (k + 1) ((tasks.(k).W.name, id) :: prefix_rev)
                      | Coordinated.Decision.Denied _ as v ->
                          attempts := (id, render_verdict v) :: !attempts;
                          None))
              table.(k)
          in
          (if found = None && k > !deepest then begin
             deepest := k;
             deepest_attempts := List.rev !attempts
           end);
          found
        end
      in
      (match go 0 [] with
      | Some witness -> Complete witness
      | None ->
          Impossible
            (Exhausted
               {
                 task = tasks.(!deepest).W.name;
                 attempts = !deepest_attempts;
               }))

(* The oracle: every full assignment, lexicographic order, full replay,
   no pruning and no shared search code. *)
let brute_force ?mode (wf : W.t) =
  let ids = List.map (fun (p : W.performer) -> p.W.id) wf.W.performers in
  let names = List.map (fun (tk : W.task) -> tk.W.name) wf.W.tasks in
  let rec enum = function
    | [] -> [ [] ]
    | name :: rest ->
        let tails = enum rest in
        List.concat_map
          (fun id -> List.map (fun tl -> (name, id) :: tl) tails)
          ids
  in
  List.find_opt (fun asg -> (W.run ?mode wf asg).W.completed) (enum names)

type comparison =
  | Agree_sat of W.assignment
  | Agree_unsat of impossibility
  | Divergent of string

let render_assignment asg =
  String.concat "," (List.map (fun (t, p) -> t ^ "=" ^ p) asg)

let explain = function
  | Window_missed { task; window; slot } ->
      Format.asprintf "task %s: window %a misses slot %a" task
        Temporal.Interval.pp window Q.pp slot
  | No_candidate { task; rejected } ->
      Printf.sprintf "task %s: no candidate (%s)" task
        (String.concat "; "
           (List.map (fun (id, why) -> id ^ ": " ^ why) rejected))
  | Duty_unsatisfiable { duty; detail } ->
      Printf.sprintf "%s duty over %s: %s"
        (match duty with W.Separation _ -> "separation" | W.Binding _ -> "binding")
        (String.concat "," (duty_names duty))
        detail
  | Exhausted { task; attempts } ->
      Printf.sprintf "search exhausted at task %s (%s)" task
        (String.concat "; "
           (List.map (fun (id, why) -> id ^ ": " ^ why) attempts))

let verdict_name = function Complete _ -> "sat" | Impossible _ -> "unsat"

let pp_verdict ppf = function
  | Complete asg -> Format.fprintf ppf "sat: %s" (render_assignment asg)
  | Impossible imp -> Format.fprintf ppf "unsat: %s" (explain imp)

(* One checker run, one brute-force run and one replay of the
   checker's witness (if any), shared by the comparison and the JSONL
   report line. *)
let run_both ?mode wf =
  let verdict = check ?mode wf in
  let brute = brute_force ?mode wf in
  let replayed =
    match verdict with
    | Complete w -> Some (W.run ?mode wf w).W.completed
    | Impossible _ -> None
  in
  (verdict, brute, replayed)

let compare_runs (verdict, brute, replayed) =
  match (verdict, brute) with
  | Complete w, Some w' when w = w' ->
      if replayed = Some true then Agree_sat w
      else Divergent ("witness does not replay: " ^ render_assignment w)
  | Complete w, Some w' ->
      Divergent
        (Printf.sprintf "witness mismatch: checker %s, brute force %s"
           (render_assignment w) (render_assignment w'))
  | Complete w, None ->
      Divergent ("checker sat (" ^ render_assignment w ^ "), brute force unsat")
  | Impossible imp, None -> Agree_unsat imp
  | Impossible imp, Some w ->
      Divergent
        (Printf.sprintf "checker unsat (%s), brute force found %s" (explain imp)
           (render_assignment w))

let against_brute_force ?mode wf = compare_runs (run_both ?mode wf)

(* Deterministic JSONL through Obs.Export's writer: fixed key order,
   canonical escaping — so two runs of the same corpus byte-compare. *)
let report_line ~index ~family (wf : W.t) =
  let ((verdict, brute, replayed) as runs) = run_both wf in
  let agree =
    match (verdict, brute) with
    | Complete w, Some w' -> w = w'
    | Impossible _, None -> true
    | _ -> false
  in
  let replay =
    match replayed with
    | None -> "n/a"
    | Some true -> "completed"
    | Some false -> "FAILED"
  in
  let outcome =
    match verdict with
    | Complete w -> ("witness", Obs.Export.jstr (render_assignment w))
    | Impossible imp -> ("impossible", Obs.Export.jstr (explain imp))
  in
  let b = Buffer.create 256 in
  Obs.Export.(
    obj b
      [
        ("index", jint index);
        ("family", jstr (W.family_name family));
        ("tasks", jint (List.length wf.W.tasks));
        ("performers", jint (List.length wf.W.performers));
        ("duties", jint (List.length wf.W.duties));
        ("faults", jbool (Option.is_some wf.W.plan));
        ("verdict", jstr (verdict_name verdict));
        outcome;
        ("brute", jstr (match brute with Some _ -> "sat" | None -> "unsat"));
        ("agree", jbool agree);
        ("replay", jstr replay);
      ]);
  (Buffer.contents b, compare_runs runs)
