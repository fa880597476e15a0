(* Append-only store of permission bindings with a per-access memo of
   the applicable list.  Which bindings apply to an access is a fact
   about the policy, not about the request, so a warm lookup is one
   hashtable probe that hands out a list built once.  The memo is
   dropped on [add] (the policy moved) and when it reaches [memo_cap]
   entries, so a stream of distinct access names cannot grow it. *)

let memo_cap = 1024

type t = {
  mutable bindings : Perm_binding.t list;  (* insertion order *)
  memo : Perm_binding.t list Sral.Access.Tbl.t;
}

let of_list bindings = { bindings; memo = Sral.Access.Tbl.create 16 }

let length t = List.length t.bindings
let to_list t = t.bindings

let add t b =
  t.bindings <- t.bindings @ [ b ];
  Sral.Access.Tbl.reset t.memo

let applicable t (a : Sral.Access.t) =
  match Sral.Access.Tbl.find t.memo a with
  | bindings -> bindings
  | exception Not_found ->
      let bindings =
        List.filter (fun b -> Perm_binding.applies_to b a) t.bindings
      in
      if Sral.Access.Tbl.length t.memo >= memo_cap then
        Sral.Access.Tbl.reset t.memo;
      Sral.Access.Tbl.add t.memo a bindings;
      bindings
