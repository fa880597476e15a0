type t = { policy : Rbac.Policy.t; bindings : Perm_binding.t list }

exception Error of int * string

let error line fmt = Format.kasprintf (fun m -> raise (Error (line, m))) fmt

(* Split a line into words, keeping double-quoted stretches as single
   words (without the quotes). *)
let words line_no line =
  let n = String.length line in
  let rec scan i acc =
    if i >= n then List.rev acc
    else
      match line.[i] with
      | ' ' | '\t' -> scan (i + 1) acc
      | '"' -> (
          match String.index_from_opt line (i + 1) '"' with
          | None -> error line_no "unterminated quote"
          | Some j ->
              scan (j + 1) (String.sub line (i + 1) (j - i - 1) :: acc))
      | _ ->
          let rec stop j =
            if j < n && line.[j] <> ' ' && line.[j] <> '\t' then stop (j + 1)
            else j
          in
          let j = stop i in
          scan j (String.sub line i (j - i) :: acc)
  in
  scan 0 []

let parse_perm line_no s =
  try Rbac.Perm.of_string s
  with Invalid_argument m -> error line_no "%s" m

let parse_bind_clauses line_no perm clauses =
  (* a clause left out keeps [Perm_binding.make]'s default *)
  let spatial = ref None and spatial_modality = ref None in
  let proof_scope = ref None and spatial_scope = ref None in
  let dur = ref None and scheme = ref None in
  let rec loop = function
    | [] -> ()
    | "spatial" :: text :: rest ->
        let formula =
          try Srac.Formula.of_string text
          with Invalid_argument m -> error line_no "%s" m
        in
        spatial := Some formula;
        loop rest
    | "modality" :: m :: rest ->
        let modality =
          match m with
          | "exists" -> Srac.Program_sat.Exists
          | "forall" -> Srac.Program_sat.Forall
          | _ -> error line_no "unknown modality %S" m
        in
        spatial_modality := Some modality;
        loop rest
    | "proofs" :: s :: rest ->
        let scope =
          match s with
          | "own" -> Perm_binding.Own
          | "team" -> Perm_binding.Team
          | _ -> error line_no "unknown proof scope %S" s
        in
        proof_scope := Some scope;
        loop rest
    | "scope" :: s :: rest ->
        let scope =
          match s with
          | "program" -> Perm_binding.Program
          | "performed" -> Perm_binding.Performed
          | "both" -> Perm_binding.Both
          | _ -> error line_no "unknown scope %S" s
        in
        spatial_scope := Some scope;
        loop rest
    | "dur" :: d :: rest ->
        (dur :=
           if d = "inf" then None
           else
             try Some (Temporal.Q.of_string d)
             with Invalid_argument m -> error line_no "%s" m);
        loop rest
    | "scheme" :: s :: rest ->
        let sch =
          match s with
          | "journey" -> Temporal.Validity.Whole_journey
          | "server" -> Temporal.Validity.Per_server
          | _ -> error line_no "unknown scheme %S" s
        in
        scheme := Some sch;
        loop rest
    | w :: _ -> error line_no "unknown bind clause %S" w
  in
  loop clauses;
  Perm_binding.make ?spatial:!spatial ?spatial_modality:!spatial_modality
    ?spatial_scope:!spatial_scope ?proof_scope:!proof_scope ?dur:!dur
    ?scheme:!scheme perm

let parse_sod line_no what rest =
  match rest with
  | name :: tail -> (
      (* roles ... "max" k *)
      let rec split_roles acc = function
        | [ "max"; k ] -> (
            match int_of_string_opt k with
            | Some max_roles -> (List.rev acc, max_roles)
            | None -> error line_no "bad %s cardinality %S" what k)
        | r :: rest -> split_roles (r :: acc) rest
        | [] -> error line_no "%s needs a trailing 'max <k>'" what
      in
      let roles, max_roles = split_roles [] tail in
      try Rbac.Sod.make ~name ~roles ~max_roles
      with Invalid_argument m -> error line_no "%s" m)
  | [] -> error line_no "%s needs a name" what

let parse_binding s =
  match words 1 s with
  | "bind" :: perm :: clauses | perm :: clauses ->
      parse_bind_clauses 1 (parse_perm 1 perm) clauses
  | [] -> error 1 "empty binding"

let parse text =
  let policy = Rbac.Policy.create () in
  let bindings = ref [] in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx raw ->
      let line_no = idx + 1 in
      let line =
        match String.index_opt raw '#' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      match words line_no line with
      | [] -> ()
      | [ "user"; u ] -> Rbac.Policy.add_user policy u
      | [ "role"; r ] -> Rbac.Policy.add_role policy r
      | [ "inherit"; senior; junior ] -> (
          try Rbac.Policy.add_inheritance policy ~senior ~junior
          with Rbac.Hierarchy.Cycle (s, j) ->
            error line_no "inheritance %s > %s creates a cycle" s j)
      | [ "assign"; u; r ] -> (
          try Rbac.Policy.assign_user policy u r with
          | Rbac.Policy.Unknown (kind, name) ->
              error line_no "unknown %s %S" kind name
          | Rbac.Policy.Ssd_violation (c, _, _) ->
              error line_no "assignment violates %s"
                (Format.asprintf "%a" Rbac.Sod.pp c))
      | [ "grant"; r; perm ] -> (
          try Rbac.Policy.grant policy r (parse_perm line_no perm)
          with Rbac.Policy.Unknown (kind, name) ->
            error line_no "unknown %s %S" kind name)
      | "ssd" :: rest ->
          Rbac.Policy.add_ssd policy (parse_sod line_no "ssd" rest)
      | "dsd" :: rest ->
          Rbac.Policy.add_dsd policy (parse_sod line_no "dsd" rest)
      | "bind" :: perm :: clauses ->
          bindings :=
            parse_bind_clauses line_no (parse_perm line_no perm) clauses
            :: !bindings
      | w :: _ -> error line_no "unknown directive %S" w)
    lines;
  { policy; bindings = List.rev !bindings }

let render_binding (b : Perm_binding.t) =
  let clauses = Buffer.create 64 in
  (match b.Perm_binding.spatial with
  | Some c ->
      Buffer.add_string clauses
        (Format.asprintf " spatial \"%a\"" Srac.Formula.pp c);
      Buffer.add_string clauses
        (match b.Perm_binding.spatial_modality with
        | Srac.Program_sat.Exists -> " modality exists"
        | Srac.Program_sat.Forall -> " modality forall");
      Buffer.add_string clauses
        (match b.Perm_binding.spatial_scope with
        | Perm_binding.Program -> " scope program"
        | Perm_binding.Performed -> " scope performed"
        | Perm_binding.Both -> " scope both");
      Buffer.add_string clauses
        (match b.Perm_binding.proof_scope with
        | Perm_binding.Own -> ""
        | Perm_binding.Team -> " proofs team")
  | None -> ());
  (match b.Perm_binding.dur with
  | Some d ->
      Buffer.add_string clauses
        (Format.asprintf " dur %a scheme %s" Temporal.Q.pp d
           (match b.Perm_binding.scheme with
           | Temporal.Validity.Whole_journey -> "journey"
           | Temporal.Validity.Per_server -> "server"))
  | None -> ());
  Rbac.Perm.to_string b.Perm_binding.perm ^ Buffer.contents clauses

let render t =
  let buf = Buffer.create 512 in
  let line fmt = Format.kasprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter (fun u -> line "user %s" u) (Rbac.Policy.users t.policy);
  List.iter (fun r -> line "role %s" r) (Rbac.Policy.roles t.policy);
  List.iter
    (fun senior ->
      List.iter
        (fun junior -> line "inherit %s %s" senior junior)
        (Rbac.Hierarchy.direct_juniors (Rbac.Policy.hierarchy t.policy) senior))
    (Rbac.Policy.roles t.policy);
  List.iter
    (fun u ->
      List.iter
        (fun r -> line "assign %s %s" u r)
        (Rbac.Policy.assigned_roles t.policy u))
    (Rbac.Policy.users t.policy);
  List.iter
    (fun r ->
      List.iter
        (fun p -> line "grant %s %s" r (Rbac.Perm.to_string p))
        (Rbac.Policy.direct_permissions t.policy r))
    (Rbac.Policy.roles t.policy);
  List.iter
    (fun (c : Rbac.Sod.t) ->
      line "ssd %s %s max %d" c.Rbac.Sod.name (String.concat " " c.Rbac.Sod.roles)
        c.Rbac.Sod.max_roles)
    (Rbac.Policy.ssd_constraints t.policy);
  List.iter
    (fun (c : Rbac.Sod.t) ->
      line "dsd %s %s max %d" c.Rbac.Sod.name (String.concat " " c.Rbac.Sod.roles)
        c.Rbac.Sod.max_roles)
    (Rbac.Policy.dsd_constraints t.policy);
  List.iter (fun b -> line "bind %s" (render_binding b)) t.bindings;
  Buffer.contents buf
