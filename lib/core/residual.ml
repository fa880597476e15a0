(* A monitor's per-binding state, and the Program-scope outcomes a base
   system shares with its clones.

   Each monitor owns one [store], its only per-binding table: a slot
   per permission binding it has refreshed or evaluated.  A slot's
   [activation] is the oracle's state, the binding's Section 4
   active(perm, .) history, written by both decision modes.  Every
   other field is a fast-path cache that only [Decision.decide_lazy]
   reads, rebuilt from the monitor, session and policy: the lazy
   constraint machine (built on the lazy path's first use, so a
   naive-mode slot never holds one), a residual cursor into the
   object's performed history, the team history's residual state with
   the (membership, proof total) stamp it was folded at, a
   version-stamped RBAC activation bit and the last Program-scope
   outcome by program identity.  Slots are stamp-invalidated, never
   evicted: a monitor sees only the policy's bindings.  Nothing here
   is keyed by the requested access — the RBAC verdict for an access
   comes from the policy's compiled table
   ({!Rbac.Engine.decide_compiled}).

   Slots are keyed by the binding value *physically* and hashed by the
   content hash [Perm_binding.make] stored in it, so a warm lookup
   reads one field and walks no permission string or constraint
   formula.  Bindings are immutable and the binding index hands out the
   same objects on every lookup, and two structurally-equal bindings
   are semantically interchangeable, so distinct slots for them are
   merely harmless duplicates: such twins share a hash and a bucket,
   yet get two slots and two activation histories. *)

module Binding_tbl = Hashtbl.Make (struct
  type t = Perm_binding.t

  let equal = ( == )
  let hash = Perm_binding.hash
end)

type machine =
  | Unbuilt  (* no lazy use of a history scope yet *)
  | Built of Srac.Lazy_dfa.t
  | Dropped  (* hit Lazy_dfa's state cap: eager oracles for good *)

type slot = {
  mutable activation : (Temporal.Q.t * bool) list;
      (* the binding's activation changes, newest first *)
  mutable machine : machine;
      (* built only for a Performed/Both spatial scope; a Team-scope
         slot starts a fresh one when [team_version] moves *)
  mutable own_state : int;  (* residual state after own performed trace *)
  mutable own_consumed : int;  (* own history entries folded so far *)
  mutable team_state : int;  (* residual state after the team's history *)
  mutable team_version : int;  (* membership stamp team_state was folded at *)
  mutable team_epoch : int;
      (* the team's proof total team_state was folded at (the object's
         and its companions' proof counts summed); -1 = not folded *)
  mutable may_session : Rbac.Session.t;
  mutable may_version : int;
  mutable may_ok : bool;  (* Rbac.Session.may for the binding's perm *)
  mutable prog_program : Sral.Ast.t option;
      (* the program [prog_result] was computed for, by identity — the
         shared [Program_outcomes] table compares programs
         structurally, too costly for the warm path *)
  mutable prog_result : (unit, string) result;
}

type store = slot Binding_tbl.t

let slot ~session =
  {
    activation = [];
    machine = Unbuilt;
    own_state = 0;
    own_consumed = 0;
    team_state = -1;
    team_version = -1;
    team_epoch = -1;
    may_session = session;
    may_version = -1 (* not computed yet: the first lazy read fills it *);
    may_ok = false;
    prog_program = None;
    prog_result = Ok ();
  }

let active_now slot =
  match slot.activation with [] -> false | (_, v) :: _ -> v

let step_fn slot =
  Temporal.Step_fn.of_changes ~init:false (List.rev slot.activation)

(* Program-scope outcomes, one per (binding, program), shared by a base
   system and every clone of it — across domains, since the parallel
   engine and the service decide on clones in parallel.  The outcome of
   [check(P, C)] depends on the program and the binding's constraint
   and modality only, not on the object running the program.

   The table is a [Shared_memo]: keys are the binding physically (as
   slots are) and the program by identity, then by [Sral.Ast.equal],
   bucketed by the binding's stored hash and the program's
   [Hashtbl.hash].  A server hands every connection that registers the
   same text the same program, so a probe usually ends at the identity
   test. *)
module Program_outcomes = struct
  type key = { binding : Perm_binding.t; program : Sral.Ast.t }

  module Memo = Shared_memo.Make (struct
    type t = key

    let equal a b =
      a.binding == b.binding
      && (a.program == b.program || Sral.Ast.equal a.program b.program)
  end)

  type t = (unit, string) result Memo.t

  let cap = 4096
  let create () = Memo.create ~cap
  let size = Memo.size

  let find_or_compute t ~binding ~program compute =
    let hash = (Perm_binding.hash binding * 65599) lxor Hashtbl.hash program in
    let key = { binding; program } in
    match Memo.find t ~hash key with
    | Some outcome -> outcome
    | None ->
        let outcome = compute () in
        Memo.add t ~hash key outcome;
        outcome
end
