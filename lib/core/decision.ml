module Q = Temporal.Q

type reason = Verdict.reason =
  | Rbac_denied of string
  | Spatial_violation of { binding : string; detail : string }
  | Temporal_expired of { binding : string; spent : Temporal.Q.t }
  | Not_active of string
  | Not_arrived
  | Server_unavailable of string

type verdict = Verdict.t = Granted | Denied of reason

let is_granted = Verdict.is_granted
let pp_reason = Verdict.pp_reason
let pp_verdict = Verdict.pp

(* Feasibility semantics: can the program (still) satisfy the
   constraint?  Future accesses *will* carry execution proofs once
   performed, so Definition 3.6's Pr_x conjunct is vacuously true here;
   proofs bite in the history-based scope below. *)
let program_scope_ok ~monitor ~program (binding : Perm_binding.t) c =
  (* the check depends only on (program, constraint), both fixed for the
     object's lifetime — memoized per binding in the monitor *)
  Monitor.memo_spatial monitor ~key:(Perm_binding.key binding) ~program
    (fun () ->
      let outcome =
        Srac.Program_sat.check ~proofs:Srac.Proof.always
          ~modality:binding.spatial_modality program c
      in
      if outcome.holds then Ok ()
      else
        let detail =
          match (binding.spatial_modality, outcome.witness) with
          | Srac.Program_sat.Forall, Some t ->
              Format.asprintf "violating trace %a" Sral.Trace.pp t
          | _ ->
              Format.asprintf "no execution can satisfy %a" Srac.Formula.pp c
        in
        Error detail)

(* The history a binding consults: the object's own proofs, or —
   for Team proof scope — the time-merged proofs of the whole team
   ("the previous access actions of the device and even of its
   companions"). *)
let history ~monitor ~companions (b : Perm_binding.t) =
  match b.Perm_binding.proof_scope with
  | Perm_binding.Own -> Monitor.performed monitor
  | Perm_binding.Team ->
      let entries =
        List.concat_map
          (fun m -> Srac.Proof.entries (Monitor.proofs m))
          (monitor :: companions)
      in
      let by_time =
        List.stable_sort
          (fun (e1 : Srac.Proof.entry) e2 ->
            Temporal.Q.compare e1.Srac.Proof.time e2.Srac.Proof.time)
          entries
      in
      List.map (fun (e : Srac.Proof.entry) -> e.Srac.Proof.access) by_time

(* History-based half: the performed trace extended with the requested
   access must satisfy the constraint.  Every access in that trace
   either has a proof already or is about to get one, so Definition
   3.6's Pr_x conjunct is vacuous here. *)
let performed_scope_ok ~monitor ~companions ~access b c =
  let hypothetical = history ~monitor ~companions b @ [ access ] in
  if Srac.Trace_sat.sat ~proofs:Srac.Proof.always hypothetical c then Ok ()
  else
    match Srac.Trace_sat.explain ~proofs:Srac.Proof.always hypothetical c with
    | Ok () -> Ok ()
    | Error detail -> Error ("history: " ^ detail)

let spatial_ok ~monitor ~companions ~program ~access
    (binding : Perm_binding.t) =
  match binding.spatial with
  | None -> Ok ()
  | Some c -> (
      let program_side () = program_scope_ok ~monitor ~program binding c in
      let performed_side () =
        performed_scope_ok ~monitor ~companions ~access binding c
      in
      match binding.spatial_scope with
      | Perm_binding.Program -> program_side ()
      | Perm_binding.Performed -> performed_side ()
      | Perm_binding.Both -> (
          match program_side () with
          | Ok () -> performed_side ()
          | Error _ as failure -> failure))

let temporal_state ~monitor ~time (binding : Perm_binding.t) =
  let key = Perm_binding.key binding in
  let active = Monitor.activation_fn monitor ~key in
  match Monitor.arrivals monitor with
  | [] -> `Not_arrived
  | arrivals ->
      let valid_now =
        Temporal.Validity.is_valid_at ~scheme:binding.scheme ~arrivals
          ~dur:binding.dur active time
      in
      let spent =
        Temporal.Validity.spent ~scheme:binding.scheme ~arrivals
          ~dur:binding.dur active ~at:time
      in
      if valid_now then `Valid
      else if Temporal.Step_fn.value_at active time then `Expired spent
      else `Inactive

(* Eq. 3.1: active(perm) = role-held ∧ check(P, C).  The activation
   state is always computed with the *program-level* check — the
   permission is active while the program can (still) satisfy the
   constraint — so validity time accrues from the start of the journey,
   not from the first request.  The grant decision may additionally use
   the history-based scope. *)
let refresh_one ~session ~monitor ~companions ~program ~time
    (b : Perm_binding.t) =
  let rbac_ok =
    Rbac.Session.may session ~operation:b.perm.Rbac.Perm.operation
      ~target:b.perm.Rbac.Perm.target
  in
  let spatial_active =
    match b.spatial with
    | None -> true
    | Some c -> (
        match b.spatial_scope with
        | Perm_binding.Program | Perm_binding.Both ->
            Result.is_ok (program_scope_ok ~monitor ~program b c)
        | Perm_binding.Performed ->
            (* history scope: active while what actually happened can
               still be extended into a satisfying trace — prohibitions
               deactivate once violated, obligations stay active *)
            Srac.Program_sat.prefix_feasible
              ~performed:(history ~monitor ~companions b) c)
  in
  Monitor.set_active monitor ~key:(Perm_binding.key b) ~time
    (rbac_ok && spatial_active)

let refresh_activation ?(companions = []) ~session ~monitor ~bindings
    ~program ~time () =
  List.iter (refresh_one ~session ~monitor ~companions ~program ~time) bindings

(* The temporal tail of the decision, in binding order.  It reads the
   query time, so it is recomputed on every decision. *)
let first_temporal_failure ~monitor ~time applicable =
  List.find_map
    (fun b ->
      match temporal_state ~monitor ~time b with
      | `Valid -> None
      | `Inactive -> Some (Not_active (Perm_binding.key b))
      | `Not_arrived -> Some Not_arrived
      | `Expired spent ->
          Some (Temporal_expired { binding = Perm_binding.key b; spent }))
    applicable

(* Stage spans, shared by both decision paths.  [stage_start] emits
   Stage_start and returns the bus clock reading; [stage_end] emits the
   matching Stage_end with the elapsed host-clock nanoseconds (zero
   under the default null clock, keeping traces deterministic).  On a
   bus with no sink each is one branch: no event is built and no clock
   is read. *)
let stage_start bus ~monitor ~time stage =
  if Obs.Bus.observed bus then begin
    Obs.Bus.emit bus
      (Obs.Trace.Stage_start
         { time; object_id = Monitor.object_id monitor; stage });
    Obs.Bus.now_ns bus
  end
  else 0L

let stage_end bus ~monitor ~time stage t0 ok =
  if Obs.Bus.observed bus then
    let elapsed_ns = Int64.sub (Obs.Bus.now_ns bus) t0 in
    Obs.Bus.emit bus
      (Obs.Trace.Stage_end
         { time; object_id = Monitor.object_id monitor; stage; ok; elapsed_ns })

(* Full recomputation: every applicable binding is refreshed and
   spatially checked before the verdict is read. *)
let decide_naive ?(companions = []) ~bus ~session ~monitor ~bindings ~program
    ~time access =
  let applicable =
    List.filter (fun b -> Perm_binding.applies_to b access) bindings
  in
  let t0 = stage_start bus ~monitor ~time Obs.Trace.Rbac in
  let rbac = Rbac.Engine.decide_access session access in
  stage_end bus ~monitor ~time Obs.Trace.Rbac t0 (Rbac.Engine.is_granted rbac);
  let t0 = stage_start bus ~monitor ~time Obs.Trace.Spatial in
  List.iter
    (refresh_one ~session ~monitor ~companions ~program ~time)
    applicable;
  let spatial_results =
    List.map
      (fun b -> (b, spatial_ok ~monitor ~companions ~program ~access b))
      applicable
  in
  stage_end bus ~monitor ~time Obs.Trace.Spatial t0
    (List.for_all (fun (_, r) -> Result.is_ok r) spatial_results);
  match rbac with
  | Rbac.Engine.Denied why -> Denied (Rbac_denied why)
  | Rbac.Engine.Granted -> (
      let spatial_failure =
        List.find_map
          (fun (b, spatial) ->
            match spatial with
            | Ok () -> None
            | Error detail ->
                Some
                  (Spatial_violation
                     { binding = Perm_binding.key b; detail }))
          spatial_results
      in
      match spatial_failure with
      | Some reason -> Denied reason
      | None -> (
          let t0 = stage_start bus ~monitor ~time Obs.Trace.Temporal in
          let temporal = first_temporal_failure ~monitor ~time applicable in
          stage_end bus ~monitor ~time Obs.Trace.Temporal t0
            (Option.is_none temporal);
          match temporal with Some reason -> Denied reason | None -> Granted))

(* ------------------------------------------------------------------ *)
(* Lazy-derivative decision path.

   [decide_lazy] mirrors [decide_naive]'s observable behavior —
   verdicts, denial strings, Obs trace spans, monitor clock and
   activation movement — while replacing the per-decision spatial
   recomputation with incremental Brzozowski-derivative residuals
   ({!Srac.Lazy_dfa}) and version-stamped RBAC caches, so a warm
   decision allocates nothing.  Per binding, the monitor keeps a
   {!Residual.slot} holding the binding's lazy machine and a cursor
   into the object's performed history; each decision folds only the
   not-yet-seen proof entries into the residual state, then answers
   grant (residual nullability after the access) and activation
   (residual feasibility) from memoized per-state bits.  Denial
   details fall back to the eager oracle so messages stay
   byte-identical. *)

let get_slot ~session ~monitor (b : Perm_binding.t) =
  let store = Monitor.residuals monitor in
  match Residual.Binding_tbl.find store.Residual.slots b with
  | slot -> slot
  | exception Not_found ->
      let machine =
        match (b.spatial, b.spatial_scope) with
        | Some c, (Perm_binding.Performed | Perm_binding.Both) ->
            Some (Srac.Lazy_dfa.create c)
        | _ -> None
      in
      let slot =
        {
          Residual.machine;
          cell = Monitor.activation_cell monitor ~key:(Perm_binding.key b);
          own_state = 0;
          own_consumed = 0;
          team_state = -1;
          team_version = -1;
          team_consumed = [||];
          team_last_time = Q.zero;
          team_last_member = -1;
          may_session = session;
          may_version = Rbac.Session.version session;
          may_ok =
            Rbac.Session.may session ~operation:b.perm.Rbac.Perm.operation
              ~target:b.perm.Rbac.Perm.target;
          prog_program = None;
          prog_result = Ok ();
        }
      in
      Residual.Binding_tbl.add store.Residual.slots b slot;
      slot

(* [Session.may] rebuilds the active permission set on every call; its
   result is fully determined by the session object and its version
   (which bumps on every role activation change and policy edit), so
   one cached bit per (binding, session, version) suffices. *)
let slot_may_ok ~session slot (b : Perm_binding.t) =
  let v = Rbac.Session.version session in
  if slot.Residual.may_session == session && slot.Residual.may_version = v then
    slot.Residual.may_ok
  else begin
    let ok =
      Rbac.Session.may session ~operation:b.perm.Rbac.Perm.operation
        ~target:b.perm.Rbac.Perm.target
    in
    slot.Residual.may_session <- session;
    slot.Residual.may_version <- v;
    slot.Residual.may_ok <- ok;
    ok
  end

(* The Program-scope outcome is fixed by (program, constraint,
   modality).  [program_scope_ok]'s monitor memo already exploits
   that, but its key is a formatted permission string rebuilt on every
   probe; the slot re-caches the result against the program's physical
   identity so the warm path touches no allocator.  A
   structurally-equal-but-distinct program falls through to the memo,
   which compares with [Ast.equal] — slower, never wrong. *)
let program_ok_cached ~monitor ~program slot (b : Perm_binding.t) c =
  match slot.Residual.prog_program with
  | Some p when p == program -> slot.Residual.prog_result
  | _ ->
      let r = program_scope_ok ~monitor ~program b c in
      slot.Residual.prog_program <- Some program;
      slot.Residual.prog_result <- r;
      r

(* Same caching argument for the full per-access RBAC verdict. *)
let rbac_cached ~session ~monitor access =
  let store = Monitor.residuals monitor in
  let v = Rbac.Session.version session in
  match Residual.Access_tbl.find store.Residual.rbac access with
  | e when e.Residual.r_session == session && e.Residual.r_version = v ->
      e.Residual.r_verdict
  | e ->
      let verdict = Rbac.Engine.decide_access session access in
      e.Residual.r_session <- session;
      e.Residual.r_version <- v;
      e.Residual.r_verdict <- verdict;
      verdict
  | exception Not_found ->
      let verdict = Rbac.Engine.decide_access session access in
      Residual.Access_tbl.add store.Residual.rbac access
        { Residual.r_session = session; r_version = v; r_verdict = verdict };
      verdict

(* Fold the [k] newest proof entries (given newest-first) into the
   slot's own-residual cursor, oldest first.  [k] is 1 in steady state
   — the access granted by the previous decision. *)
let rec fold_newest machine slot k (entries : Srac.Proof.entry list) =
  if k > 0 then
    match entries with
    | [] -> ()
    | e :: older ->
        fold_newest machine slot (k - 1) older;
        slot.Residual.own_state <-
          Srac.Lazy_dfa.step_access machine slot.Residual.own_state
            e.Srac.Proof.access

(* The monitor clock forces non-decreasing proof times, so insertion
   order is execution-time order and the cursor fold visits entries
   exactly as [Monitor.performed] would list them; [history_epoch]
   counts proofs, so it doubles as the entry count. *)
let own_state ~monitor machine slot =
  let total = Monitor.history_epoch monitor in
  if slot.Residual.own_consumed < total then begin
    fold_newest machine slot
      (total - slot.Residual.own_consumed)
      (Srac.Proof.rev_entries (Monitor.proofs monitor));
    slot.Residual.own_consumed <- total
  end;
  slot.Residual.own_state

(* Team-scope residuals.  [history] merges the team's proofs with a
   stable sort by time over [monitor :: companions], so its order is
   (time, member position, issue order).  While membership holds still
   ([team_version]) the slot folds incrementally: it keeps how many
   entries of each member it has consumed and the (time, member) key
   of the last entry it folded.  New entries that all sort at or after
   that key extend the sorted history at its end, so stepping them in
   key order continues the same fold.  An entry that sorts earlier (a
   companion whose clock lags) lands mid-history: refold from
   scratch. *)

let team_refold ~monitor ~companions ~team_version machine slot b =
  let members = monitor :: companions in
  slot.Residual.team_state <-
    List.fold_left
      (fun q a -> Srac.Lazy_dfa.step_access machine q a)
      (Srac.Lazy_dfa.start machine)
      (history ~monitor ~companions b);
  slot.Residual.team_version <- team_version;
  slot.Residual.team_consumed <-
    Array.of_list (List.map Monitor.history_epoch members);
  (* the last entry in key order: the latest newest-entry, the later
     member on a tie *)
  slot.Residual.team_last_member <- -1;
  List.iteri
    (fun i m ->
      match Srac.Proof.rev_entries (Monitor.proofs m) with
      | [] -> ()
      | e :: _ ->
          if
            slot.Residual.team_last_member < 0
            || Q.compare e.Srac.Proof.time slot.Residual.team_last_time >= 0
          then begin
            slot.Residual.team_last_time <- e.Srac.Proof.time;
            slot.Residual.team_last_member <- i
          end)
    members

(* The [k] newest entries of a proof store, oldest first. *)
let newest k store =
  let rec take k acc = function
    | e :: older when k > 0 -> take (k - 1) (e :: acc) older
    | _ -> acc
  in
  take k [] (Srac.Proof.rev_entries store)

(* Fold the members' unseen entries if they all sort at or after the
   last folded key; [false] (slot untouched) if one sorts earlier. *)
let team_extend ~monitor ~companions machine slot =
  let fresh =
    List.mapi
      (fun i m ->
        let seen = slot.Residual.team_consumed.(i) in
        (i, newest (Monitor.history_epoch m - seen) (Monitor.proofs m)))
      (monitor :: companions)
  in
  let sorts_after (i, entries) =
    match entries with
    | [] -> true
    | (e : Srac.Proof.entry) :: _ ->
        slot.Residual.team_last_member < 0
        ||
        let c = Q.compare e.time slot.Residual.team_last_time in
        c > 0 || (c = 0 && i >= slot.Residual.team_last_member)
  in
  List.for_all sorts_after fresh
  && begin
       List.concat_map (fun (i, es) -> List.map (fun e -> (i, e)) es) fresh
       |> List.stable_sort (fun (_, (e1 : Srac.Proof.entry)) (_, e2) ->
              Q.compare e1.time e2.Srac.Proof.time)
       |> List.iter (fun (i, (e : Srac.Proof.entry)) ->
              slot.Residual.team_state <-
                Srac.Lazy_dfa.step_access machine slot.Residual.team_state
                  e.access;
              slot.Residual.team_last_time <- e.time;
              slot.Residual.team_last_member <- i);
       List.iter
         (fun (i, es) ->
           slot.Residual.team_consumed.(i) <-
             slot.Residual.team_consumed.(i) + List.length es)
         fresh;
       true
     end

let rec members_unchanged consumed i = function
  | [] -> true
  | m :: rest ->
      Monitor.history_epoch m = consumed.(i)
      && members_unchanged consumed (i + 1) rest

let team_state ~monitor ~companions ~team_version machine slot b =
  if
    slot.Residual.team_state < 0
    || slot.Residual.team_version <> team_version
    || Array.length slot.Residual.team_consumed <> 1 + List.length companions
  then team_refold ~monitor ~companions ~team_version machine slot b
  else if
    (not
       (members_unchanged slot.Residual.team_consumed 0
          (monitor :: companions)))
    && not (team_extend ~monitor ~companions machine slot)
  then team_refold ~monitor ~companions ~team_version machine slot b;
  slot.Residual.team_state

let scope_state ~monitor ~companions ~team_version machine slot
    (b : Perm_binding.t) =
  match b.proof_scope with
  | Perm_binding.Own -> own_state ~monitor machine slot
  | Perm_binding.Team ->
      team_state ~monitor ~companions ~team_version machine slot b

(* The state valve: a machine that raises {!Srac.Lazy_dfa.State_limit}
   is dropped ([machine = None] on a history-scope slot), and the
   binding is answered by the eager oracles from then on — the same
   calls the naive path makes. *)
let feasible_eager ~monitor ~companions b c =
  Srac.Program_sat.prefix_feasible ~performed:(history ~monitor ~companions b) c

let refresh_one_lazy ~session ~monitor ~companions ~program ~time
    ~team_version (b : Perm_binding.t) =
  let slot = get_slot ~session ~monitor b in
  let rbac_ok = slot_may_ok ~session slot b in
  let spatial_active =
    match b.spatial with
    | None -> true
    | Some c -> (
        match b.spatial_scope with
        | Perm_binding.Program | Perm_binding.Both ->
            Result.is_ok (program_ok_cached ~monitor ~program slot b c)
        | Perm_binding.Performed -> (
            match slot.Residual.machine with
            | None -> feasible_eager ~monitor ~companions b c
            | Some machine -> (
                match
                  Srac.Lazy_dfa.feasible machine
                    (scope_state ~monitor ~companions ~team_version machine
                       slot b)
                with
                | feasible -> feasible
                | exception Srac.Lazy_dfa.State_limit ->
                    slot.Residual.machine <- None;
                    feasible_eager ~monitor ~companions b c)))
  in
  Monitor.set_active_cell monitor slot.Residual.cell ~time
    (rbac_ok && spatial_active)

let rec refresh_all_lazy ~session ~monitor ~companions ~program ~time
    ~team_version = function
  | [] -> ()
  | b :: rest ->
      refresh_one_lazy ~session ~monitor ~companions ~program ~time
        ~team_version b;
      refresh_all_lazy ~session ~monitor ~companions ~program ~time
        ~team_version rest

let performed_ok_lazy ~session ~monitor ~companions ~access ~team_version
    (b : Perm_binding.t) c =
  let slot = get_slot ~session ~monitor b in
  match slot.Residual.machine with
  | None -> performed_scope_ok ~monitor ~companions ~access b c
  | Some machine -> (
      match
        Srac.Lazy_dfa.nullable_after machine
          (scope_state ~monitor ~companions ~team_version machine slot b)
          access
      with
      | true -> Ok ()
      | false ->
          (* deny: rerun the oracle so the denial detail is byte-identical
             (and a residual false-negative can never deny a granting
             oracle — equivalence of the grant direction is enforced by
             the residual property tests and the differential gate) *)
          performed_scope_ok ~monitor ~companions ~access b c
      | exception Srac.Lazy_dfa.State_limit ->
          slot.Residual.machine <- None;
          performed_scope_ok ~monitor ~companions ~access b c)

let spatial_ok_lazy ~session ~monitor ~companions ~program ~access
    ~team_version (b : Perm_binding.t) =
  match b.spatial with
  | None -> Ok ()
  | Some c -> (
      let slot = get_slot ~session ~monitor b in
      match b.spatial_scope with
      | Perm_binding.Program -> program_ok_cached ~monitor ~program slot b c
      | Perm_binding.Performed ->
          performed_ok_lazy ~session ~monitor ~companions ~access ~team_version
            b c
      | Perm_binding.Both -> (
          match program_ok_cached ~monitor ~program slot b c with
          | Ok () ->
              performed_ok_lazy ~session ~monitor ~companions ~access
                ~team_version b c
          | Error _ as failure -> failure))

let rec first_spatial_failure_lazy ~session ~monitor ~companions ~program
    ~access ~team_version = function
  | [] -> None
  | b :: rest -> (
      match
        spatial_ok_lazy ~session ~monitor ~companions ~program ~access
          ~team_version b
      with
      | Ok () ->
          first_spatial_failure_lazy ~session ~monitor ~companions ~program
            ~access ~team_version rest
      | Error detail ->
          Some (Spatial_violation { binding = Perm_binding.key b; detail }))

let temporal_state_lazy ~monitor ~time slot (b : Perm_binding.t) =
  if not (Monitor.arrived monitor) then `Not_arrived
  else
    match b.dur with
    | None ->
        (* no duration budget: the validity window union covers
           [first arrival, ∞) under both schemes, so validity at the
           (clock-current) query time is exactly the newest activation
           state — the cell head.  Expiry needs a budget, so the
           remaining distinction is only Valid/Inactive. *)
        if Residual.active_now slot.Residual.cell then `Valid else `Inactive
    | Some _ -> temporal_state ~monitor ~time b

let rec first_temporal_failure_lazy ~session ~monitor ~time = function
  | [] -> None
  | b :: rest -> (
      let slot = get_slot ~session ~monitor b in
      match temporal_state_lazy ~monitor ~time slot b with
      | `Valid -> first_temporal_failure_lazy ~session ~monitor ~time rest
      | `Inactive -> Some (Not_active (Perm_binding.key b))
      | `Not_arrived -> Some Not_arrived
      | `Expired spent ->
          Some (Temporal_expired { binding = Perm_binding.key b; spent }))

(* The stages run in the naive order and emit the same spans, but the
   spatial stage stops at the first failing binding: the evaluations
   it skips have no observable effect, they only warm caches that later
   decisions fill identically.  Under an RBAC denial that first failure
   is needed only for the spatial span's [ok] bit, so it is computed
   only when the bus is observed. *)
let decide_lazy ?(companions = []) ~bus ~session ~monitor ~applicable
    ~team_version ~program ~time access =
  let t0 = stage_start bus ~monitor ~time Obs.Trace.Rbac in
  let rbac = rbac_cached ~session ~monitor access in
  let rbac_ok = Rbac.Engine.is_granted rbac in
  stage_end bus ~monitor ~time Obs.Trace.Rbac t0 rbac_ok;
  let t0 = stage_start bus ~monitor ~time Obs.Trace.Spatial in
  refresh_all_lazy ~session ~monitor ~companions ~program ~time ~team_version
    applicable;
  let spatial_failure =
    if rbac_ok || Obs.Bus.observed bus then
      first_spatial_failure_lazy ~session ~monitor ~companions ~program
        ~access ~team_version applicable
    else None
  in
  stage_end bus ~monitor ~time Obs.Trace.Spatial t0
    (Option.is_none spatial_failure);
  match (rbac, spatial_failure) with
  | Rbac.Engine.Denied why, _ -> Denied (Rbac_denied why)
  | Rbac.Engine.Granted, Some reason -> Denied reason
  | Rbac.Engine.Granted, None -> (
      let t0 = stage_start bus ~monitor ~time Obs.Trace.Temporal in
      let temporal =
        first_temporal_failure_lazy ~session ~monitor ~time applicable
      in
      stage_end bus ~monitor ~time Obs.Trace.Temporal t0
        (Option.is_none temporal);
      match temporal with Some reason -> Denied reason | None -> Granted)

let refresh_activation_lazy ?(companions = []) ~session ~monitor ~bindings
    ~team_version ~program ~time () =
  refresh_all_lazy ~session ~monitor ~companions ~program ~time ~team_version
    bindings

let validity_dc_check ~monitor ~(binding : Perm_binding.t) ~time =
  match binding.dur with
  | None -> true
  | Some dur -> (
      match Monitor.arrivals monitor with
      | [] -> false
      | arrivals ->
          let key = Perm_binding.key binding in
          let active = Monitor.activation_fn monitor ~key in
          let valid =
            Temporal.Validity.valid_fn ~scheme:binding.scheme ~arrivals
              ~dur:binding.dur active
          in
          let base =
            match binding.scheme with
            | Temporal.Validity.Whole_journey -> List.hd arrivals
            | Temporal.Validity.Per_server ->
                List.fold_left
                  (fun acc t -> if Q.le t time then Q.max acc t else acc)
                  (List.hd arrivals) arrivals
          in
          if Q.lt time base then false
          else
            let interp name =
              if String.equal name "valid" then valid
              else invalid_arg ("unknown state variable " ^ name)
            in
            (* Eq. 4.1 with [<=] is satisfied at the single boundary
               instant where the accumulated time equals [dur]; the
               step-function solution already switched off there (the
               budget is spent), so the agreeing DC reading is the
               strict "budget remains" form. *)
            let formula =
              Temporal.Duration_calculus.Dur_cmp
                (Temporal.State_expr.Var "valid", Temporal.Duration_calculus.Lt,
                 dur)
            in
            Temporal.Duration_calculus.sat interp
              (Temporal.Interval.make base time)
              formula
            && Temporal.Step_fn.value_at active time)
