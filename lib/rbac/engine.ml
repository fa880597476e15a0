type verdict = Granted | Denied of string

(* the names are the request's, so each is echoed clipped *)
let message ~user ~operation ~target =
  Printf.sprintf "no active role of %s grants %s on %s" (Sral.Clip.clip user)
    (Sral.Clip.clip operation) (Sral.Clip.clip target)

let decide session ~operation ~target =
  if Session.may session ~operation ~target then Granted
  else Denied (message ~user:(Session.user session) ~operation ~target)

let decide_access session (a : Sral.Access.t) =
  decide session
    ~operation:(Sral.Access.operation_name a.op)
    ~target:(a.resource ^ "@" ^ a.server)

let field (pattern : Policy.field) value =
  match pattern with Any -> true | Is s -> String.equal s value

let rec covers (perms : Policy.split_perm array) i ~operation
    (a : Sral.Access.t) =
  i < Array.length perms
  && ((let p = perms.(i) in
       field p.op operation && field p.resource a.resource
       && field p.server a.server)
     || covers perms (i + 1) ~operation a)

let rec holds perms i ~operation ~target =
  i < Array.length perms
  && (Perm.matches perms.(i) ~operation ~target
     || holds perms (i + 1) ~operation ~target)

let rec any_holds policy ~operation ~target = function
  | [] -> false
  | r :: rest ->
      holds (Policy.compiled_role_permissions policy r) 0 ~operation ~target
      || any_holds policy ~operation ~target rest

let may_compiled session ~operation ~target =
  any_holds (Session.policy session) ~operation ~target
    (Session.active_roles session)

let put b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* [decide_access]'s denial bytes, in one allocation when no name needs
   clipping *)
let denial ~user ~operation (a : Sral.Access.t) =
  let head = "no active role of " and grants = " grants " and on = " on " in
  let len = String.length in
  if
    len user > Sral.Clip.limit
    || len operation > Sral.Clip.limit
    || len a.resource + 1 + len a.server > Sral.Clip.limit
  then message ~user ~operation ~target:(a.resource ^ "@" ^ a.server)
  else
    let b =
      Bytes.create
        (len head + len user + len grants + len operation + len on
       + len a.resource + 1 + len a.server)
    in
    let pos = put b (put b 0 head) user in
    let pos = put b (put b (put b pos grants) operation) on in
    ignore (put b (put b (put b pos a.resource) "@") a.server);
    Bytes.unsafe_to_string b

let rec has_at s i = i < String.length s && (s.[i] = '@' || has_at s (i + 1))

(* A resource holding '@' moves the joined target's first '@', so such
   a request takes the oracle's path over the joined string. *)
let decide_compiled session (a : Sral.Access.t) =
  if has_at a.resource 0 then decide_access session a
  else
    let operation = Sral.Access.operation_name a.op in
    if covers (Session.compiled_permissions session) 0 ~operation a then
      Granted
    else Denied (denial ~user:(Session.user session) ~operation a)

let is_granted = function Granted -> true | Denied _ -> false

let pp_verdict ppf = function
  | Granted -> Format.pp_print_string ppf "granted"
  | Denied why -> Format.fprintf ppf "denied (%s)" why
