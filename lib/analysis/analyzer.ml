module Q = Temporal.Q
module Dfa = Automata.Dfa
module Symbol = Automata.Symbol
module Pb = Coordinated.Perm_binding

type finding =
  | Unsatisfiable of { index : int; binding : string }
  | Vacuous of { index : int; binding : string }
  | Shadowed of { index : int; binding : string; by_index : int; by : string }
  | Unexercisable of { index : int; binding : string }
  | Temporal_excluded of {
      index : int;
      binding : string;
      needed : Q.t;
      budget : Q.t;
    }

type report = {
  findings : finding list;
  bindings : int;
  alphabet : int;
  truncated : bool;
}

(* Runtime activation of a Performed-scope binding is restricted-
   alphabet prefix feasibility: extensions range over the constraint's
   mentioned accesses plus the history.  Flagging a binding as
   temporally excluded needs activation to hold continuously along any
   satisfying walk, which is exact when every universe access a Card
   selector matches is also mentioned by an atom/ordering of the
   constraint — then an access outside the mentioned set is irrelevant
   to the constraint and deleting it from an extension preserves
   satisfaction. *)
let selectors_covered ~universe c =
  let mentioned = Srac.Formula.accesses c in
  let rec go = function
    | Srac.Formula.True | Srac.Formula.False | Srac.Formula.Atom _
    | Srac.Formula.Ordered _ ->
        true
    | Srac.Formula.Card { sel; _ } ->
        List.for_all
          (fun a ->
            (not (Srac.Selector.matches sel a))
            || List.exists (Sral.Access.equal a) mentioned)
          universe
    | Srac.Formula.And (c1, c2) | Srac.Formula.Or (c1, c2) -> go c1 && go c2
    | Srac.Formula.Not c -> go c
  in
  go c

let accesses_subset c1 c2 =
  let a2 = Srac.Formula.accesses c2 in
  List.for_all
    (fun a -> List.exists (Sral.Access.equal a) a2)
    (Srac.Formula.accesses c1)

(* Σ*·P: words whose last symbol is covered by the binding's pattern. *)
let pattern_dfa ~table b =
  let syms = Symbol.alphabet table in
  let k = List.length syms in
  let next = Array.make_matrix 2 k 0 in
  List.iter
    (fun sym ->
      if Pb.applies_to b (Symbol.access table sym) then (
        next.(0).(sym) <- 1;
        next.(1).(sym) <- 1))
    syms;
  Dfa.of_tables ~alphabet:syms ~start:0 ~finals:[| false; true |] ~next

let syntactic_only (bindings : Pb.t array) ~alphabet =
  let findings =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun index b ->
              match b.Pb.spatial with
              | None -> []
              | Some c ->
                  if not (Srac.Decide.satisfiable c) then
                    [ Unsatisfiable { index; binding = Pb.key b } ]
                  else if Srac.Decide.valid c then
                    [ Vacuous { index; binding = Pb.key b } ]
                  else [])
            bindings))
  in
  {
    findings;
    bindings = Array.length bindings;
    alphabet;
    truncated = true;
  }

let analyze ?world (parsed : Coordinated.Policy_lang.t) =
  let bindings = Array.of_list parsed.Coordinated.Policy_lang.bindings in
  let formulas =
    List.filter_map (fun b -> b.Pb.spatial) (Array.to_list bindings)
  in
  let base = Srac.Decide.closure_alphabet formulas in
  let alphabet_accs =
    match world with
    | None -> base
    | Some w ->
        List.sort_uniq Sral.Access.compare (base @ w.World.universe)
  in
  let alphabet = List.length alphabet_accs in
  if alphabet > Srac.Decide.max_closure then syntactic_only bindings ~alphabet
  else
    let table = Symbol.of_accesses alphabet_accs in
    let syms = Symbol.alphabet table in
    let dfa =
      Array.map
        (fun b ->
          match b.Pb.spatial with
          | None -> Dfa.universal_lang ~alphabet:syms
          | Some c -> Srac.Compile.dfa ~table ~proofs:Srac.Proof.always c)
        bindings
    in
    let unsat =
      Array.mapi (fun i b -> b.Pb.spatial <> None && Dfa.is_empty dfa.(i)) bindings
    in
    let vacuous i =
      bindings.(i).Pb.spatial <> None && Dfa.is_empty (Dfa.complement dfa.(i))
    in
    let n = Array.length bindings in
    (* [shadows w l]: winner [w] grants everywhere loser [l] does, so
       removing [l] changes no outcome.  [l] must carry no duration
       (language inclusion makes [l]'s activation at least [w]'s, but a
       duration budget would then also burn at least as fast, and [l]
       could expire where [w] still grants).  Each binding keeps its own
       activation history at runtime, so removing [l] leaves every
       survivor's history as it was. *)
    let shadows wi li =
      wi <> li
      && (not unsat.(wi))
      && bindings.(li).Pb.dur = None
      && Rbac.Perm.subsumes bindings.(wi).Pb.perm bindings.(li).Pb.perm
      && bindings.(wi).Pb.spatial_scope = bindings.(li).Pb.spatial_scope
      && bindings.(wi).Pb.spatial_modality = bindings.(li).Pb.spatial_modality
      && bindings.(wi).Pb.proof_scope = bindings.(li).Pb.proof_scope
      && Dfa.subset dfa.(wi) dfa.(li)
      &&
      (* Performed-scope activation is restricted-alphabet feasibility:
         the loser's alphabet must not lack extension accesses the
         winner's feasibility witness uses *)
      match bindings.(li).Pb.spatial_scope with
      | Pb.Performed -> (
          match (bindings.(wi).Pb.spatial, bindings.(li).Pb.spatial) with
          | None, _ | _, None -> true
          | Some cw, Some cl -> accesses_subset cw cl)
      | Pb.Program | Pb.Both -> true
    in
    let shadow_winner li =
      let rec first wi =
        if wi >= n then None
        else if shadows wi li && (wi < li || not (shadows li wi)) then Some wi
        else first (wi + 1)
      in
      first 0
    in
    let itin =
      lazy
        (match world with
        | Some w -> World.itinerary_dfa ~table w
        | None -> assert false)
    in
    let world_findings index b =
      match world with
      | None -> []
      | Some w ->
          let itin = Lazy.force itin in
          let prod_ip = Dfa.inter itin (pattern_dfa ~table b) in
          let full = lazy (Dfa.inter dfa.(index) prod_ip) in
          let unexercisable =
            match b.Pb.spatial_scope with
            | Pb.Performed | Pb.Both -> Dfa.is_empty (Lazy.force full)
            | Pb.Program ->
                Dfa.is_empty prod_ip
                || b.Pb.spatial <> None
                   && b.Pb.spatial_modality = Srac.Program_sat.Exists
                   && Dfa.is_empty (Dfa.inter dfa.(index) itin)
          in
          if unexercisable then
            [ Unexercisable { index; binding = Pb.key b } ]
          else
            let grant_lang =
              (* the language whose shortest word bounds the earliest
                 grant from below: Program scope grants at the first
                 covered performable access (the check constrains the
                 program, not the walked prefix); history scopes need
                 the walk itself to satisfy the constraint *)
              match b.Pb.spatial_scope with
              | Pb.Program -> Some prod_ip
              | Pb.Both -> Some (Lazy.force full)
              | Pb.Performed ->
                  let exact =
                    match b.Pb.spatial with
                    | None -> true
                    | Some c -> selectors_covered ~universe:w.World.universe c
                  in
                  if exact then Some (Lazy.force full) else None
            in
            let temporal =
              match (b.Pb.dur, b.Pb.scheme, grant_lang) with
              | Some budget, Temporal.Validity.Whole_journey, Some lang -> (
                  match Dfa.shortest_witness lang with
                  | None -> []
                  | Some word ->
                      let needed =
                        Q.mul (Q.of_int (List.length word)) w.World.step
                      in
                      if Q.ge needed budget then
                        [
                          Temporal_excluded
                            { index; binding = Pb.key b; needed; budget };
                        ]
                      else [])
              | _ -> []
            in
            temporal
    in
    let per_binding index b =
      if unsat.(index) then [ Unsatisfiable { index; binding = Pb.key b } ]
      else
        let vac =
          if vacuous index then [ Vacuous { index; binding = Pb.key b } ]
          else []
        in
        let shadowed =
          match shadow_winner index with
          | Some wi ->
              [
                Shadowed
                  {
                    index;
                    binding = Pb.key b;
                    by_index = wi;
                    by = Pb.key bindings.(wi);
                  };
              ]
          | None -> []
        in
        vac @ shadowed @ world_findings index b
    in
    let findings =
      List.concat (Array.to_list (Array.mapi per_binding bindings))
    in
    { findings; bindings = n; alphabet; truncated = false }

let witnesses ~world (parsed : Coordinated.Policy_lang.t) =
  let bindings = Array.of_list parsed.Coordinated.Policy_lang.bindings in
  let formulas =
    List.filter_map (fun b -> b.Pb.spatial) (Array.to_list bindings)
  in
  let alphabet_accs =
    List.sort_uniq Sral.Access.compare
      (Srac.Decide.closure_alphabet formulas @ world.World.universe)
  in
  if List.length alphabet_accs > Srac.Decide.max_closure then []
  else
    let table = Symbol.of_accesses alphabet_accs in
    let itin = World.itinerary_dfa ~table world in
    List.filter_map
      (fun (index, b) ->
        let c_dfa =
          match b.Pb.spatial with
          | None -> Dfa.universal_lang ~alphabet:(Symbol.alphabet table)
          | Some c -> Srac.Compile.dfa ~table ~proofs:Srac.Proof.always c
        in
        let lang = Dfa.inter c_dfa (Dfa.inter itin (pattern_dfa ~table b)) in
        Option.map
          (fun word ->
            (index, Pb.key b, List.map (Symbol.access table) word))
          (Dfa.shortest_witness lang))
      (List.mapi (fun i b -> (i, b)) (Array.to_list bindings))
