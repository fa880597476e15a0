type t = {
  policy : Policy.t;
  user : string;
  mutable active : string list;  (* sorted *)
  mutable bumps : int;
  mutable perms_at : int;  (* the [version] [perms] was read at *)
  mutable perms : Policy.split_perm array;
}

exception Not_authorized of string * string
exception Dsd_violation of Sod.t * string * string

let create policy ~user =
  if not (Policy.is_user policy user) then
    raise (Policy.Unknown ("user", user));
  { policy; user; active = []; bumps = 0; perms_at = -1; perms = [||] }

let user s = s.user
let policy s = s.policy
let active_roles s = s.active

(* The stamp is the sum of two monotone counters, so equal stamps mean
   neither the active-role set nor the backing policy changed. *)
let version s = s.bumps + Policy.version s.policy

(* One active role reads the policy's own array; more are concatenated
   once per stamp. *)
let compiled_permissions s =
  let v = version s in
  if s.perms_at <> v then begin
    s.perms <-
      (match s.active with
      | [] -> [||]
      | [ r ] -> Policy.compiled_permissions s.policy r
      | roles ->
          Array.concat (List.map (Policy.compiled_permissions s.policy) roles));
    s.perms_at <- v
  end;
  s.perms

let activate s r =
  if not (List.mem r s.active) then begin
    if not (List.mem r (Policy.compiled_authorized_roles s.policy s.user)) then
      raise (Not_authorized (s.user, r));
    List.iter
      (fun c ->
        if Sod.would_violate c ~current:s.active ~adding:r then
          raise (Dsd_violation (c, s.user, r)))
      (Policy.dsd_constraints s.policy);
    s.bumps <- s.bumps + 1;
    s.active <- List.sort String.compare (r :: s.active)
  end

let deactivate s r =
  if List.mem r s.active then begin
    s.bumps <- s.bumps + 1;
    s.active <- List.filter (fun r' -> not (String.equal r r')) s.active
  end

let drop s =
  if s.active <> [] then s.bumps <- s.bumps + 1;
  s.active <- []

let may s ~operation ~target =
  List.exists
    (fun r ->
      List.exists
        (fun perm -> Perm.matches perm ~operation ~target)
        (Policy.role_permissions s.policy r))
    s.active

let pp ppf s =
  Format.fprintf ppf "session(%s, active=[%s])" s.user
    (String.concat ", " s.active)
