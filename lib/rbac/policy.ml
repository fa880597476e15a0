module String_set = Set.Make (String)
module String_map = Map.Make (String)
module Perm_set = Set.Make (Perm)

type user = string
type role = string

type field = Any | Is of string
type split_perm = { op : field; resource : field; server : field }

(* One table per version, published through an [Atomic] because clones
   share the policy across domains, and never written after that.  It
   holds each role's closure permissions, as [role_permissions] derives
   them and split, and each user's [authorized_roles]. *)
type table = {
  at : int;
  closure : Perm.t array String_map.t;
  perms : split_perm array String_map.t;
  authorized : role list String_map.t;
}

type t = {
  compiled : table Atomic.t;
  hierarchy : Hierarchy.t;
  mutable users : String_set.t;
  mutable user_assignments : String_set.t String_map.t;  (** user -> roles *)
  mutable role_grants : Perm_set.t String_map.t;  (** role -> perms *)
  mutable ssd : Sod.t list;
  mutable dsd : Sod.t list;
  mutable version : int;
}

let create () =
  {
    compiled =
      Atomic.make
        {
          at = -1;
          closure = String_map.empty;
          perms = String_map.empty;
          authorized = String_map.empty;
        };
    hierarchy = Hierarchy.create ();
    users = String_set.empty;
    user_assignments = String_map.empty;
    role_grants = String_map.empty;
    ssd = [];
    dsd = [];
    version = 0;
  }

let hierarchy p = p.hierarchy
let version p = p.version
let touch p = p.version <- p.version + 1

exception Unknown of string * string
exception Ssd_violation of Sod.t * user * role

let add_user p u =
  touch p;
  p.users <- String_set.add u p.users
let add_role p r =
  touch p;
  Hierarchy.add_role p.hierarchy r

let add_inheritance p ~senior ~junior =
  touch p;
  Hierarchy.add_inheritance p.hierarchy ~senior ~junior

let is_user p u = String_set.mem u p.users
let require_user p u = if not (is_user p u) then raise (Unknown ("user", u))

let require_role p r =
  if not (Hierarchy.mem p.hierarchy r) then raise (Unknown ("role", r))

let assigned_roles p u =
  match String_map.find_opt u p.user_assignments with
  | Some roles -> String_set.elements roles
  | None -> []

let assign_user p u r =
  require_user p u;
  require_role p r;
  let current = assigned_roles p u in
  List.iter
    (fun c ->
      if Sod.would_violate c ~current ~adding:r then
        raise (Ssd_violation (c, u, r)))
    p.ssd;
  touch p;
  p.user_assignments <-
    String_map.update u
      (function
        | Some roles -> Some (String_set.add r roles)
        | None -> Some (String_set.singleton r))
      p.user_assignments

let deassign_user p u r =
  touch p;
  p.user_assignments <-
    String_map.update u
      (function
        | Some roles -> Some (String_set.remove r roles)
        | None -> None)
      p.user_assignments

let grant p r perm =
  require_role p r;
  touch p;
  p.role_grants <-
    String_map.update r
      (function
        | Some perms -> Some (Perm_set.add perm perms)
        | None -> Some (Perm_set.singleton perm))
      p.role_grants

let revoke p r perm =
  touch p;
  p.role_grants <-
    String_map.update r
      (function
        | Some perms -> Some (Perm_set.remove perm perms)
        | None -> None)
      p.role_grants

let add_ssd p c =
  String_map.iter
    (fun u roles ->
      if Sod.violates c (String_set.elements roles) then
        invalid_arg
          (Format.asprintf
             "Policy.add_ssd: user %s already violates %a" u Sod.pp c))
    p.user_assignments;
  touch p;
  p.ssd <- c :: p.ssd

let add_dsd p c =
  touch p;
  p.dsd <- c :: p.dsd
let users p = String_set.elements p.users
let roles p = Hierarchy.roles p.hierarchy

(* Constraints are prepended internally; review reports them in
   insertion order so render → parse → render is a fixed point. *)
let ssd_constraints p = List.rev p.ssd
let dsd_constraints p = List.rev p.dsd

let authorized_roles p u =
  let assigned = assigned_roles p u in
  List.sort_uniq String.compare
    (List.concat_map (Hierarchy.juniors p.hierarchy) assigned)

let direct_permissions p r =
  match String_map.find_opt r p.role_grants with
  | Some perms -> Perm_set.elements perms
  | None -> []

let role_permissions p r =
  let juniors = Hierarchy.juniors p.hierarchy r in
  let juniors = if juniors = [] then [ r ] else juniors in
  List.sort_uniq Perm.compare (List.concat_map (direct_permissions p) juniors)

let user_permissions p u =
  List.sort_uniq Perm.compare
    (List.concat_map (role_permissions p) (assigned_roles p u))

let field = function "*" -> Any | s -> Is s

(* A target without '@' matches a [resource@server] request only when
   it is "*"; any other one is left out. *)
let split (perm : Perm.t) =
  let op = field perm.operation in
  match Perm.split_target perm.target with
  | r, Some s -> Some { op; resource = field r; server = field s }
  | "*", None -> Some { op; resource = Any; server = Any }
  | _, None -> None

let build p =
  let add_role (closure, perms) r =
    let all = role_permissions p r in
    ( String_map.add r (Array.of_list all) closure,
      String_map.add r (Array.of_list (List.filter_map split all)) perms )
  in
  let closure, perms =
    List.fold_left add_role (String_map.empty, String_map.empty) (roles p)
  in
  let authorized =
    String_set.fold
      (fun u acc -> String_map.add u (authorized_roles p u) acc)
      p.users String_map.empty
  in
  { at = p.version; closure; perms; authorized }

let table p =
  let table = Atomic.get p.compiled in
  if table.at = p.version then table
  else
    let table = build p in
    Atomic.set p.compiled table;
    table

let find_or map key empty =
  match String_map.find key map with v -> v | exception Not_found -> empty

let compiled_permissions p r = find_or (table p).perms r [||]
let compiled_role_permissions p r = find_or (table p).closure r [||]
let compiled_authorized_roles p u = find_or (table p).authorized u []

let users_of_role p r =
  List.filter (fun u -> List.mem r (assigned_roles p u)) (users p)

let pp ppf p =
  Format.fprintf ppf "@[<v>policy: %d users, %d roles@," (List.length (users p))
    (List.length (roles p));
  List.iter
    (fun u ->
      Format.fprintf ppf "  user %s: roles [%s]@," u
        (String.concat ", " (assigned_roles p u)))
    (users p);
  List.iter
    (fun r ->
      Format.fprintf ppf "  role %s: perms [%s]@," r
        (String.concat ", " (List.map Perm.to_string (direct_permissions p r))))
    (roles p);
  Format.fprintf ppf "@]"
