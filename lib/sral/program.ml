open Ast

let rec fold f acc p =
  let acc = f acc p in
  match p with
  | Skip | Access _ | Recv _ | Send _ | Signal _ | Wait _ | Assign _ -> acc
  | Seq (p1, p2) | Par (p1, p2) -> fold f (fold f acc p1) p2
  | If (_, p1, p2) -> fold f (fold f acc p1) p2
  | While (_, body) -> fold f acc body

let size p = fold (fun n _ -> n + 1) 0 p

let accesses p =
  let collect acc = function Access a -> a :: acc | _ -> acc in
  List.sort_uniq Access.compare (fold collect [] p)

let servers p =
  List.sort_uniq String.compare
    (List.map (fun (a : Access.t) -> a.server) (accesses p))

let resources p =
  List.sort_uniq String.compare
    (List.map (fun (a : Access.t) -> a.resource) (accesses p))

let channels p =
  let collect acc = function
    | Recv (ch, _) | Send (ch, _) -> ch :: acc
    | _ -> acc
  in
  List.sort_uniq String.compare (fold collect [] p)

let signals p =
  let collect acc = function
    | Signal x | Wait x -> x :: acc
    | _ -> acc
  in
  List.sort_uniq String.compare (fold collect [] p)

let free_vars p =
  let collect acc = function
    | Send (_, e) | Assign (_, e) -> Expr.free_vars e @ acc
    | If (c, _, _) | While (c, _) -> Expr.free_vars c @ acc
    | _ -> acc
  in
  List.sort_uniq String.compare (fold collect [] p)

let has_par p = fold (fun b q -> b || match q with Par _ -> true | _ -> false) false p
let has_loop p = fold (fun b q -> b || match q with While _ -> true | _ -> false) false p

let access_count p =
  fold (fun n q -> match q with Access _ -> n + 1 | _ -> n) 0 p

(* For each subprogram: the servers of possibly-first accesses, of
   possibly-last accesses, whether it can perform no access at all, and
   the internal adjacency set.  Standard first/last/nullable style
   analysis over the trace-model structure. *)
let server_flow p =
  let module SS = Set.Make (String) in
  let module PS = Set.Make (struct
    type t = string * string

    let compare = Stdlib.compare
  end) in
  (* [pairs froms tos]: every (from, to) edge with distinct servers *)
  let pairs froms tos =
    SS.fold
      (fun from acc ->
        SS.fold
          (fun to_ acc ->
            if String.equal from to_ then acc else PS.add (from, to_) acc)
          tos acc)
      froms PS.empty
  in
  let rec analyze p =
    match p with
    | Ast.Skip | Ast.Recv _ | Ast.Send _ | Ast.Signal _ | Ast.Wait _
    | Ast.Assign _ ->
        (SS.empty, SS.empty, true, PS.empty)
    | Ast.Access a ->
        let s = SS.singleton a.Access.server in
        (s, s, false, PS.empty)
    | Ast.Seq (p1, p2) ->
        let f1, l1, n1, e1 = analyze p1 in
        let f2, l2, n2, e2 = analyze p2 in
        let firsts = if n1 then SS.union f1 f2 else f1 in
        let lasts = if n2 then SS.union l1 l2 else l2 in
        (firsts, lasts, n1 && n2, PS.union (pairs l1 f2) (PS.union e1 e2))
    | Ast.If (_, p1, p2) ->
        let f1, l1, n1, e1 = analyze p1 in
        let f2, l2, n2, e2 = analyze p2 in
        (SS.union f1 f2, SS.union l1 l2, n1 || n2, PS.union e1 e2)
    | Ast.While (_, body) ->
        let f, l, _, e = analyze body in
        (* the body may repeat: last-of-body -> first-of-body edges *)
        (f, l, true, PS.union e (pairs l f))
    | Ast.Par (p1, p2) ->
        let f1, l1, n1, e1 = analyze p1 in
        let f2, l2, n2, e2 = analyze p2 in
        (* interleaving: any access of one branch may directly follow
           any access of the other *)
        let all1 = SS.union f1 l1 and all2 = SS.union f2 l2 in
        let cross =
          PS.union (pairs (servers_of p1 all1) (servers_of p2 all2))
            (pairs (servers_of p2 all2) (servers_of p1 all1))
        in
        ( SS.union f1 f2,
          SS.union l1 l2,
          n1 && n2,
          PS.union cross (PS.union e1 e2) )
  and servers_of p _fallback =
    (* all servers of the subprogram: interleaving can juxtapose any two *)
    List.fold_left (fun acc s -> SS.add s acc) SS.empty (servers p)
  in
  let _, _, _, edges = analyze p in
  PS.elements edges

let rec normalize p =
  match p with
  | Skip | Access _ | Recv _ | Send _ | Signal _ | Wait _ | Assign _ -> p
  | Seq (p1, p2) -> (
      match (normalize p1, normalize p2) with
      | Skip, q | q, Skip -> q
      | q1, q2 -> Seq (q1, q2))
  | Par (p1, p2) -> (
      match (normalize p1, normalize p2) with
      | Skip, q | q, Skip -> q
      | q1, q2 -> Par (q1, q2))
  | If (c, p1, p2) -> If (c, normalize p1, normalize p2)
  | While (c, body) -> While (c, normalize body)
