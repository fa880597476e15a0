type group = { perm : Rbac.Perm.t; members : Perm_binding.t list }

let classify bindings =
  let rec insert groups (b : Perm_binding.t) =
    match groups with
    | [] -> [ { perm = b.Perm_binding.perm; members = [ b ] } ]
    | g :: rest ->
        if Rbac.Perm.equal g.perm b.Perm_binding.perm then
          { g with members = g.members @ [ b ] } :: rest
        else g :: insert rest b
  in
  List.fold_left insert [] bindings

let same_scheme (b1 : Perm_binding.t) (b2 : Perm_binding.t) =
  b1.Perm_binding.scheme = b2.Perm_binding.scheme

let same_modality (b1 : Perm_binding.t) (b2 : Perm_binding.t) =
  b1.Perm_binding.spatial_modality = b2.Perm_binding.spatial_modality

let same_scope (b1 : Perm_binding.t) (b2 : Perm_binding.t) =
  b1.Perm_binding.spatial_scope = b2.Perm_binding.spatial_scope
  && b1.Perm_binding.proof_scope = b2.Perm_binding.proof_scope

(* Conjunction distributes over the check only for the Forall modality
   (∀(C₁∧C₂) = ∀C₁ ∧ ∀C₂) and for the history scope (one trace is
   tested).  ∃(C₁∧C₂) is *stronger* than ∃C₁ ∧ ∃C₂, so Exists
   program-scope constraints must not be merged. *)
let spatial_conjoinable (b : Perm_binding.t) =
  match (b.Perm_binding.spatial_scope, b.Perm_binding.spatial_modality) with
  | Perm_binding.Performed, _ -> true
  | (Perm_binding.Program | Perm_binding.Both), Srac.Program_sat.Forall -> true
  | (Perm_binding.Program | Perm_binding.Both), Srac.Program_sat.Exists ->
      false

let min_dur d1 d2 =
  match (d1, d2) with
  | None, d | d, None -> d
  | Some a, Some b -> Some (Temporal.Q.min a b)

let conjoin c1 c2 =
  match (c1, c2) with
  | None, c | c, None -> c
  | Some a, Some b -> Some (Srac.Simplify.simplify (Srac.Formula.And (a, b)))

let merge_group group =
  match group.members with
  | [] -> None
  | [ only ] -> Some only
  | first :: rest ->
      (* schemes only matter when a duration is present on that member;
         be conservative: require agreement whenever both sides carry
         durations, and agreement of modality/scope whenever both sides
         carry spatial constraints *)
      let compatible (b : Perm_binding.t) =
        (b.Perm_binding.dur = None
        || first.Perm_binding.dur = None
        || same_scheme first b)
        && (b.Perm_binding.spatial = None
           || first.Perm_binding.spatial = None
           || (same_modality first b && same_scope first b
              && spatial_conjoinable b))
      in
      (* every later member must also be compatible with the evolving
         merge; since scheme/modality/scope are inherited from the
         first member carrying them, pairwise-with-first plus
         pairwise-among-carriers is what we need.  Keep it simple and
         sound: require all members pairwise compatible. *)
      let rec pairwise = function
        | [] | [ _ ] -> true
        | b :: rest ->
            List.for_all
              (fun b' ->
                ((b : Perm_binding.t).Perm_binding.dur = None
                || (b' : Perm_binding.t).Perm_binding.dur = None
                || same_scheme b b')
                && (b.Perm_binding.spatial = None
                   || b'.Perm_binding.spatial = None
                   || (same_modality b b' && same_scope b b'
                      && spatial_conjoinable b)))
              rest
            && pairwise rest
      in
      if not (List.for_all compatible rest && pairwise group.members) then
        None
      else
        let merged =
          List.fold_left
            (fun (acc : Perm_binding.t) (b : Perm_binding.t) ->
              let from_b = acc.Perm_binding.spatial = None in
              Perm_binding.make
                ?spatial:
                  (conjoin acc.Perm_binding.spatial b.Perm_binding.spatial)
                ?dur:(min_dur acc.Perm_binding.dur b.Perm_binding.dur)
                ~scheme:
                  (if acc.Perm_binding.dur = None then b.Perm_binding.scheme
                   else acc.Perm_binding.scheme)
                ~spatial_modality:
                  (if from_b then b.Perm_binding.spatial_modality
                   else acc.Perm_binding.spatial_modality)
                ~spatial_scope:
                  (if from_b then b.Perm_binding.spatial_scope
                   else acc.Perm_binding.spatial_scope)
                ~proof_scope:
                  (if from_b then b.Perm_binding.proof_scope
                   else acc.Perm_binding.proof_scope)
                acc.Perm_binding.perm)
            first rest
        in
        Some merged

let aggregate bindings =
  List.concat_map
    (fun group ->
      match merge_group group with
      | Some merged -> [ merged ]
      | None -> group.members)
    (classify bindings)

let stats bindings =
  (List.length (classify bindings), List.length (aggregate bindings))
