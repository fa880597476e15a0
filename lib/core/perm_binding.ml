type spatial_scope = Program | Performed | Both
type proof_scope = Own | Team

type t = {
  perm : Rbac.Perm.t;
  spatial : Srac.Formula.t option;
  spatial_modality : Srac.Program_sat.modality;
  spatial_scope : spatial_scope;
  proof_scope : proof_scope;
  dur : Temporal.Q.t option;
  scheme : Temporal.Validity.scheme;
  hash : int;
}

(* a content hash, walked once here: up to 64 meaningful values reach
   past the permission into the constraint formula, so bindings that
   differ only in their constraint land apart *)
let content_hash perm spatial spatial_modality spatial_scope proof_scope dur
    scheme =
  Hashtbl.hash_param 64 256
    (perm, spatial, spatial_modality, spatial_scope, proof_scope, dur, scheme)

let make ?spatial ?(spatial_modality = Srac.Program_sat.Exists)
    ?(spatial_scope = Program) ?(proof_scope = Own) ?dur
    ?(scheme = Temporal.Validity.Whole_journey) perm =
  {
    perm;
    spatial;
    spatial_modality;
    spatial_scope;
    proof_scope;
    dur;
    scheme;
    hash =
      content_hash perm spatial spatial_modality spatial_scope proof_scope dur
        scheme;
  }

let hash b = b.hash

let applies_to binding (a : Sral.Access.t) =
  Rbac.Perm.matches_at binding.perm
    ~operation:(Sral.Access.operation_name a.op)
    ~resource:a.resource ~server:a.server

let key binding = Rbac.Perm.to_string binding.perm

let pp ppf b =
  Format.fprintf ppf "@[<h>bind %a" Rbac.Perm.pp b.perm;
  (match b.spatial with
  | Some c ->
      let modality =
        match b.spatial_modality with
        | Srac.Program_sat.Exists -> "exists"
        | Srac.Program_sat.Forall -> "forall"
      in
      Format.fprintf ppf " spatial(%s) %a" modality Srac.Formula.pp c
  | None -> ());
  (match b.dur with
  | Some d ->
      Format.fprintf ppf " dur %a (%a)" Temporal.Q.pp d
        Temporal.Validity.pp_scheme b.scheme
  | None -> ());
  Format.fprintf ppf "@]"
