type t = { operation : string; target : string }

let make ~operation ~target = { operation; target }

let split_target target =
  match String.index_opt target '@' with
  | None -> (target, None)
  | Some i ->
      ( String.sub target 0 i,
        Some (String.sub target (i + 1) (String.length target - i - 1)) )

let field_matches pattern value = pattern = "*" || String.equal pattern value

let matches perm ~operation ~target =
  field_matches perm.operation operation
  &&
  match (split_target perm.target, split_target target) with
  | (pr, Some ps), (r, Some s) -> field_matches pr r && field_matches ps s
  | (pr, None), (r, None) -> field_matches pr r
  | (pr, Some ps), (r, None) -> field_matches pr r && ps = "*"
  | (pr, None), (_, Some _) -> pr = "*"

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
