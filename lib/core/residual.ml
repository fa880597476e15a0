(* Per-monitor state of the lazy-derivative decision path
   (Decision.decide_lazy).

   Each monitor owns one [store]: a slot per permission binding it has
   evaluated (holding the binding's lazy constraint machine, residual
   cursors into the object's / team's performed history, a
   version-stamped RBAC activation bit and the binding's activation
   change cell) plus a per-access RBAC verdict cache.  Everything here
   is stamp-invalidated, never evicted: the bindings and accesses a
   monitor sees are bounded by the policy, not by traffic.

   Slots are keyed by the binding value *physically*: bindings are
   immutable and the binding index hands out the same objects on every
   lookup, and two structurally-equal bindings are semantically
   interchangeable, so distinct slots for them are merely harmless
   duplicates.  (Keying by [Perm_binding.key] would be wrong: two
   bindings may share a permission but carry different spatial
   constraints.) *)

module Binding_tbl = Hashtbl.Make (struct
  type t = Perm_binding.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

module Access_tbl = Hashtbl.Make (struct
  type t = Sral.Access.t

  let equal = Sral.Access.equal
  let hash = Sral.Access.hash
end)

type cell = (Temporal.Q.t * bool) list ref
(* a monitor activation-change list (newest first), shared with
   Monitor.activations — cached in the slot so the hot path skips the
   hashtable probe *)

let active_now (c : cell) = match !c with [] -> false | (_, v) :: _ -> v

type slot = {
  mutable machine : Srac.Lazy_dfa.t option;
      (* present iff the binding has a Performed/Both spatial scope and
         its machine has stayed under Lazy_dfa's state cap; a
         history-scope slot without one is evaluated eagerly *)
  cell : cell;
  mutable own_state : int;  (* residual state after own performed trace *)
  mutable own_consumed : int;  (* own history entries folded so far *)
  mutable team_state : int;  (* -1 = not computed *)
  mutable team_version : int;  (* membership stamp team_state was folded at *)
  mutable team_consumed : int array;
      (* per member (the object, then its companions in roster order):
         proof entries folded into team_state *)
  mutable team_last_time : Temporal.Q.t;
  mutable team_last_member : int;
      (* sort key (time, member) of the last entry folded; member -1 =
         nothing folded yet *)
  mutable may_session : Rbac.Session.t;
  mutable may_version : int;
  mutable may_ok : bool;  (* Rbac.Session.may for the binding's perm *)
  mutable prog_program : Sral.Ast.t option;
      (* the program [prog_result] was computed for, by identity — the
         monitor's spatial memo compares programs structurally, too
         costly for the warm path *)
  mutable prog_result : (unit, string) result;
}

type rbac_entry = {
  mutable r_session : Rbac.Session.t;
  mutable r_version : int;
  mutable r_verdict : Rbac.Engine.verdict;
}

type store = { slots : slot Binding_tbl.t; rbac : rbac_entry Access_tbl.t }

let create () = { slots = Binding_tbl.create 8; rbac = Access_tbl.create 8 }
