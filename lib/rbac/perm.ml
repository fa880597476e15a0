type t = { operation : string; target : string }

let make ~operation ~target = { operation; target }

let split_target target =
  match String.index_opt target '@' with
  | None -> (target, None)
  | Some i ->
      ( String.sub target 0 i,
        Some (String.sub target (i + 1) (String.length target - i - 1)) )

(* [matches] and [matches_at] read the fields in place, so they
   allocate nothing: they run on every applicable-binding memo miss and
   every [Session.may].  A field is the span [off, off + len) of its
   string; [at_sign] finds a target's first '@' (-1 if none), where
   [split_target] splits. *)
let rec at_sign s i n =
  if i >= n then -1 else if String.unsafe_get s i = '@' then i
  else at_sign s (i + 1) n

let is_star s off len = len = 1 && String.unsafe_get s off = '*'

let rec same_bytes p po v vo n =
  n = 0
  || String.unsafe_get p po = String.unsafe_get v vo
     && same_bytes p (po + 1) v (vo + 1) (n - 1)

(* the pattern field [p.[po, po + pl)] covers the value field
   [v.[vo, vo + vl)] *)
let field_covers p po pl v vo vl =
  is_star p po pl || (pl = vl && same_bytes p po v vo pl)

(* the pattern target [p] covers the structured target whose resource
   is [r.[ro, ro + rl)] and whose server is [s.[so, so + sl)] *)
let covers_structured p r ro rl s so sl =
  let pn = String.length p in
  let pi = at_sign p 0 pn in
  if pi >= 0 then
    field_covers p 0 pi r ro rl && field_covers p (pi + 1) (pn - pi - 1) s so sl
  else is_star p 0 pn

let field_matches pattern value = pattern = "*" || String.equal pattern value

let matches perm ~operation ~target =
  field_matches perm.operation operation
  &&
  let p = perm.target in
  let tn = String.length target in
  let ti = at_sign target 0 tn in
  if ti >= 0 then covers_structured p target 0 ti target (ti + 1) (tn - ti - 1)
  else
    let pn = String.length p in
    let pi = at_sign p 0 pn in
    if pi >= 0 then
      field_covers p 0 pi target 0 tn && is_star p (pi + 1) (pn - pi - 1)
    else field_covers p 0 pn target 0 tn

let matches_at perm ~operation ~resource ~server =
  let rn = String.length resource in
  if at_sign resource 0 rn >= 0 then
    (* the target's first '@' falls inside the resource name *)
    matches perm ~operation ~target:(resource ^ "@" ^ server)
  else
    field_matches perm.operation operation
    && covers_structured perm.target resource 0 rn server 0
         (String.length server)

let fields_overlap f1 f2 = f1 = "*" || f2 = "*" || String.equal f1 f2

let overlaps p1 p2 =
  fields_overlap p1.operation p2.operation
  &&
  match (split_target p1.target, split_target p2.target) with
  | (r1, Some s1), (r2, Some s2) ->
      fields_overlap r1 r2 && fields_overlap s1 s2
  | (r1, None), (r2, None) -> fields_overlap r1 r2
  | (r1, Some s1), (r2, None) | (r2, None), (r1, Some s1) ->
      (* an unstructured target only covers structured ones via "*" *)
      r2 = "*" || (fields_overlap r1 r2 && s1 = "*")

let field_subsumes f1 f2 = f1 = "*" || String.equal f1 f2

let subsumes p1 p2 =
  field_subsumes p1.operation p2.operation
  &&
  match (split_target p1.target, split_target p2.target) with
  | (r1, Some s1), (r2, Some s2) ->
      field_subsumes r1 r2 && field_subsumes s1 s2
  | (r1, None), (r2, None) -> field_subsumes r1 r2
  | (r1, Some s1), (r2, None) ->
      (* a structured pattern only covers an unstructured one wholesale *)
      r1 = "*" && s1 = "*" && (r2 = "*" || field_subsumes r1 r2)
  | (r1, None), (_, Some _) -> r1 = "*"

let compare p1 p2 =
  let c = String.compare p1.operation p2.operation in
  if c <> 0 then c else String.compare p1.target p2.target

let equal p1 p2 = compare p1 p2 = 0
let pp ppf p = Format.fprintf ppf "%s:%s" p.operation p.target
let to_string p = Format.asprintf "%a" pp p

let of_string s =
  match String.index_opt s ':' with
  | None -> invalid_arg (Printf.sprintf "Perm.of_string: missing ':' in %S" s)
  | Some i ->
      {
        operation = String.sub s 0 i;
        target = String.sub s (i + 1) (String.length s - i - 1);
      }
