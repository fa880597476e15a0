let rec nfa ~table p =
  match p with
  | Sral.Ast.Skip | Sral.Ast.Recv _ | Sral.Ast.Send _ | Sral.Ast.Signal _
  | Sral.Ast.Wait _ | Sral.Ast.Assign _ ->
      Nfa.eps_lang
  | Sral.Ast.Access a -> Nfa.sym (Symbol.intern table a)
  | Sral.Ast.Seq (p1, p2) -> Nfa.cat (nfa ~table p1) (nfa ~table p2)
  | Sral.Ast.If (_, p1, p2) -> Nfa.alt (nfa ~table p1) (nfa ~table p2)
  | Sral.Ast.While (_, body) -> Nfa.star (nfa ~table body)
  | Sral.Ast.Par (p1, p2) -> Nfa.shuffle (nfa ~table p1) (nfa ~table p2)

(* Saturating, so a deep nest of [||] cannot wrap round. *)
let add a b = if a > max_int - b then max_int else a + b
let mul a b = if a <> 0 && b > max_int / a then max_int else a * b

let rec nfa_states = function
  | Sral.Ast.Skip | Sral.Ast.Recv _ | Sral.Ast.Send _ | Sral.Ast.Signal _
  | Sral.Ast.Wait _ | Sral.Ast.Assign _ ->
      1
  | Sral.Ast.Access _ -> 2
  | Sral.Ast.Seq (p1, p2) -> add (nfa_states p1) (nfa_states p2)
  | Sral.Ast.If (_, p1, p2) -> add (add (nfa_states p1) (nfa_states p2)) 1
  | Sral.Ast.While (_, body) -> add (nfa_states body) 1
  | Sral.Ast.Par (p1, p2) -> mul (nfa_states p1) (nfa_states p2)

let dfa ?max_states ~table ~alphabet p =
  Dfa.of_nfa ?max_states ~alphabet (Nfa.trim (nfa ~table p))
