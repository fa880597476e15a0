(* Tests for the RBAC baseline: permissions, hierarchy, policy store,
   sessions, separation of duty and the plain decision engine. *)

open Rbac

let p op target = Perm.make ~operation:op ~target

(* --- permissions --- *)

let test_perm_matches_exact () =
  Alcotest.(check bool) "exact" true
    (Perm.matches (p "read" "db@s1") ~operation:"read" ~target:"db@s1");
  Alcotest.(check bool) "wrong op" false
    (Perm.matches (p "read" "db@s1") ~operation:"write" ~target:"db@s1");
  Alcotest.(check bool) "wrong server" false
    (Perm.matches (p "read" "db@s1") ~operation:"read" ~target:"db@s2")

let test_perm_wildcards () =
  Alcotest.(check bool) "op wildcard" true
    (Perm.matches (p "*" "db@s1") ~operation:"write" ~target:"db@s1");
  Alcotest.(check bool) "server wildcard" true
    (Perm.matches (p "read" "db@*") ~operation:"read" ~target:"db@s9");
  Alcotest.(check bool) "resource wildcard" true
    (Perm.matches (p "read" "*@s1") ~operation:"read" ~target:"x@s1");
  Alcotest.(check bool) "full wildcard" true
    (Perm.matches (p "*" "*@*") ~operation:"hash" ~target:"m@s3");
  Alcotest.(check bool) "resource wildcard wrong server" false
    (Perm.matches (p "read" "*@s1") ~operation:"read" ~target:"x@s2")

let test_perm_string_roundtrip () =
  let perm = p "read" "db@s1" in
  Alcotest.(check bool) "roundtrip" true
    (Perm.equal perm (Perm.of_string (Perm.to_string perm)));
  Alcotest.check_raises "no colon"
    (Invalid_argument "Perm.of_string: missing ':' in \"nope\"") (fun () ->
      ignore (Perm.of_string "nope"))

let test_perm_overlaps () =
  let check a b expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s ~ %s" (Perm.to_string a) (Perm.to_string b))
      expected (Perm.overlaps a b);
    Alcotest.(check bool) "symmetric" expected (Perm.overlaps b a)
  in
  check (p "read" "db@s1") (p "read" "db@s1") true;
  check (p "read" "db@s1") (p "read" "*@*") true;
  check (p "*" "*@*") (p "hash" "m@s3") true;
  check (p "read" "db@s1") (p "write" "db@s1") false;
  check (p "read" "db@s1") (p "read" "db@s2") false;
  check (p "read" "db@*") (p "read" "*@s2") true

(* The matcher before it compared fields in place, kept as the oracle:
   it split both targets with [String.sub]. *)
let old_matches (perm : Perm.t) ~operation ~target =
  let split t =
    match String.index_opt t '@' with
    | None -> (t, None)
    | Some i ->
        ( String.sub t 0 i,
          Some (String.sub t (i + 1) (String.length t - i - 1)) )
  in
  let field pattern value = pattern = "*" || String.equal pattern value in
  field perm.operation operation
  &&
  match (split perm.target, split target) with
  | (pr, Some ps), (r, Some s) -> field pr r && field ps s
  | (pr, None), (r, None) -> field pr r
  | (pr, Some ps), (r, None) -> field pr r && ps = "*"
  | (pr, None), (_, Some _) -> pr = "*"

(* Targets of zero, one and two '@'s over fields drawn from a small
   alphabet with "*" and the empty field in it, so equal, unequal,
   wildcard and prefix-sharing fields all meet. *)
let gen_field rng =
  let fields = [| "*"; ""; "a"; "b"; "ab"; "a*"; "**" |] in
  fields.(Random.State.int rng (Array.length fields))

let gen_target rng =
  match Random.State.int rng 3 with
  | 0 -> gen_field rng
  | 1 -> gen_field rng ^ "@" ^ gen_field rng
  | _ -> gen_field rng ^ "@" ^ gen_field rng ^ "@" ^ gen_field rng

let test_perm_matches_oracle () =
  Gen.each_seed ~salt:3301 ~count:200 (fun ~seed rng ->
      for _ = 1 to 50 do
        let perm = p (gen_field rng) (gen_target rng) in
        let operation = gen_field rng and target = gen_target rng in
        let expected = old_matches perm ~operation ~target in
        if Perm.matches perm ~operation ~target <> expected then
          Alcotest.failf "seed %d: matches %s on %s:%s, expected %b" seed
            (Perm.to_string perm) operation target expected;
        let resource = gen_target rng and server = gen_target rng in
        let expected =
          old_matches perm ~operation ~target:(resource ^ "@" ^ server)
        in
        if Perm.matches_at perm ~operation ~resource ~server <> expected then
          Alcotest.failf "seed %d: matches_at %s on %s:%s @ %s, expected %b"
            seed (Perm.to_string perm) operation resource server expected
      done)

let test_perm_matches_allocation () =
  let perms = [ p "read" "db@s1"; p "*" "*@s2"; p "read" "*"; p "read" "db" ] in
  let rounds = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    List.iter
      (fun perm ->
        ignore (Perm.matches perm ~operation:"read" ~target:"db@s2");
        ignore (Perm.matches perm ~operation:"read" ~target:"db");
        ignore
          (Perm.matches_at perm ~operation:"read" ~resource:"db" ~server:"s2"))
      perms
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int rounds in
  (* the two boxed [Gc.minor_words] floats are the only slack *)
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per round of 12 matches" words)
    true (words < 0.01)

(* --- hierarchy --- *)

let test_hierarchy_inheritance () =
  let h = Hierarchy.create () in
  Hierarchy.add_inheritance h ~senior:"chief" ~junior:"auditor";
  Hierarchy.add_inheritance h ~senior:"auditor" ~junior:"reader";
  Alcotest.(check (list string)) "juniors of chief"
    [ "auditor"; "chief"; "reader" ]
    (Hierarchy.juniors h "chief");
  Alcotest.(check (list string)) "seniors of reader"
    [ "auditor"; "chief"; "reader" ]
    (Hierarchy.seniors h "reader");
  Alcotest.(check bool) "dominates transitively" true
    (Hierarchy.dominates h ~senior:"chief" ~junior:"reader");
  Alcotest.(check bool) "not upward" false
    (Hierarchy.dominates h ~senior:"reader" ~junior:"chief");
  Alcotest.(check bool) "reflexive" true
    (Hierarchy.dominates h ~senior:"reader" ~junior:"reader")

let test_hierarchy_cycle_rejected () =
  let h = Hierarchy.create () in
  Hierarchy.add_inheritance h ~senior:"a" ~junior:"b";
  Hierarchy.add_inheritance h ~senior:"b" ~junior:"c";
  Alcotest.check_raises "direct cycle" (Hierarchy.Cycle ("c", "a")) (fun () ->
      Hierarchy.add_inheritance h ~senior:"c" ~junior:"a");
  Alcotest.check_raises "self cycle" (Hierarchy.Cycle ("a", "a")) (fun () ->
      Hierarchy.add_inheritance h ~senior:"a" ~junior:"a")

(* --- policy --- *)

let fixture () =
  let policy = Policy.create () in
  List.iter (Policy.add_user policy) [ "alice"; "bob" ];
  List.iter (Policy.add_role policy) [ "chief"; "auditor"; "reader" ];
  Policy.add_inheritance policy ~senior:"chief" ~junior:"auditor";
  Policy.add_inheritance policy ~senior:"auditor" ~junior:"reader";
  Policy.grant policy "reader" (p "read" "*@*");
  Policy.grant policy "auditor" (p "hash" "*@*");
  Policy.grant policy "chief" (p "write" "report@s1");
  Policy.assign_user policy "alice" "auditor";
  Policy.assign_user policy "bob" "reader";
  policy

let test_policy_review () =
  let policy = fixture () in
  Alcotest.(check (list string)) "alice assigned" [ "auditor" ]
    (Policy.assigned_roles policy "alice");
  Alcotest.(check (list string)) "alice authorized"
    [ "auditor"; "reader" ]
    (Policy.authorized_roles policy "alice");
  Alcotest.(check int) "auditor perms include inherited" 2
    (List.length (Policy.role_permissions policy "auditor"));
  Alcotest.(check int) "chief perms" 3
    (List.length (Policy.role_permissions policy "chief"));
  Alcotest.(check int) "alice perms" 2
    (List.length (Policy.user_permissions policy "alice"));
  Alcotest.(check (list string)) "users of reader" [ "bob" ]
    (Policy.users_of_role policy "reader")

let test_policy_unknown () =
  let policy = fixture () in
  Alcotest.check_raises "unknown role" (Policy.Unknown ("role", "ghost"))
    (fun () -> Policy.assign_user policy "alice" "ghost");
  Alcotest.check_raises "unknown user" (Policy.Unknown ("user", "carol"))
    (fun () -> Policy.assign_user policy "carol" "reader");
  Alcotest.check_raises "grant unknown role"
    (Policy.Unknown ("role", "ghost")) (fun () ->
      Policy.grant policy "ghost" (p "read" "x@y"))

let test_policy_deassign_revoke () =
  let policy = fixture () in
  Policy.deassign_user policy "alice" "auditor";
  Alcotest.(check (list string)) "deassigned" []
    (Policy.assigned_roles policy "alice");
  Policy.revoke policy "reader" (p "read" "*@*");
  Alcotest.(check int) "revoked" 0
    (List.length (Policy.direct_permissions policy "reader"))

(* --- separation of duty --- *)

let test_ssd () =
  let policy = fixture () in
  Policy.add_role policy "payer";
  Policy.add_role policy "approver";
  let c = Sod.make ~name:"pay-vs-approve" ~roles:[ "payer"; "approver" ] ~max_roles:1 in
  Policy.add_ssd policy c;
  Policy.assign_user policy "alice" "payer";
  (try
     Policy.assign_user policy "alice" "approver";
     Alcotest.fail "SSD should block"
   with Policy.Ssd_violation (c', "alice", "approver") ->
     Alcotest.(check string) "constraint name" "pay-vs-approve" c'.Sod.name)

let test_ssd_retroactive_rejected () =
  let policy = fixture () in
  Policy.add_role policy "payer";
  Policy.add_role policy "approver";
  Policy.assign_user policy "alice" "payer";
  Policy.assign_user policy "alice" "approver";
  match
    Policy.add_ssd policy
      (Sod.make ~name:"late" ~roles:[ "payer"; "approver" ] ~max_roles:1)
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "retroactive violation should be rejected"

let test_sod_validation () =
  Alcotest.check_raises "max_roles < 1"
    (Invalid_argument "Sod.make: max_roles must be >= 1") (fun () ->
      ignore (Sod.make ~name:"x" ~roles:[ "a"; "b" ] ~max_roles:0));
  Alcotest.check_raises "too few roles"
    (Invalid_argument "Sod.make: need at least two conflicting roles")
    (fun () -> ignore (Sod.make ~name:"x" ~roles:[ "a" ] ~max_roles:1))

(* --- the version counter: the admin verifier's cache stamp --- *)

(* Every successful administrative mutation must bump the version, and
   a rejected one must leave it alone — Analysis.Admin memoizes its
   leaf oracle on deployment fingerprints and the Policy_changed trace
   event records the version, so a missed bump is a stale-cache bug
   and a spurious bump is a phantom audit event. *)
let test_version_monotone_across_admin_ops () =
  let policy = Policy.create () in
  let v = ref (Policy.version policy) in
  let bumped what f =
    f ();
    let v' = Policy.version policy in
    if v' <= !v then
      Alcotest.failf "%s did not bump the version (%d -> %d)" what !v v';
    v := v'
  in
  bumped "add_user" (fun () -> Policy.add_user policy "alice");
  bumped "add_user bob" (fun () -> Policy.add_user policy "bob");
  bumped "add_role payer" (fun () -> Policy.add_role policy "payer");
  bumped "add_role approver" (fun () -> Policy.add_role policy "approver");
  bumped "add_role clerk" (fun () -> Policy.add_role policy "clerk");
  bumped "add_inheritance" (fun () ->
      Policy.add_inheritance policy ~senior:"payer" ~junior:"clerk");
  bumped "assign_user" (fun () -> Policy.assign_user policy "alice" "payer");
  bumped "grant" (fun () -> Policy.grant policy "payer" (p "read" "db@s1"));
  bumped "revoke" (fun () -> Policy.revoke policy "payer" (p "read" "db@s1"));
  bumped "deassign_user" (fun () ->
      Policy.deassign_user policy "alice" "payer");
  bumped "add_ssd" (fun () ->
      Policy.add_ssd policy
        (Sod.make ~name:"s" ~roles:[ "payer"; "approver" ] ~max_roles:1));
  bumped "add_dsd" (fun () ->
      Policy.add_dsd policy
        (Sod.make ~name:"d" ~roles:[ "payer"; "clerk" ] ~max_roles:1))

let test_version_unchanged_on_rejected_ops () =
  let policy = fixture () in
  Policy.add_role policy "payer";
  Policy.add_role policy "approver";
  Policy.add_ssd policy
    (Sod.make ~name:"x" ~roles:[ "payer"; "approver" ] ~max_roles:1);
  Policy.assign_user policy "alice" "payer";
  let v = Policy.version policy in
  (try Policy.assign_user policy "alice" "approver"
   with Policy.Ssd_violation _ -> ());
  Alcotest.(check int) "ssd-rejected assign does not bump" v
    (Policy.version policy);
  (try Policy.assign_user policy "ghost" "payer"
   with Policy.Unknown _ -> ());
  Alcotest.(check int) "unknown-user assign does not bump" v
    (Policy.version policy);
  (try Policy.grant policy "ghost" (p "read" "db@s1")
   with Policy.Unknown _ -> ());
  Alcotest.(check int) "unknown-role grant does not bump" v
    (Policy.version policy);
  (* alice already holds both payer and auditor, so this SSD is a
     retroactive violation and must be rejected *)
  (try
     Policy.add_ssd policy
       (Sod.make ~name:"late" ~roles:[ "payer"; "auditor" ] ~max_roles:1)
   with Invalid_argument _ -> ());
  Alcotest.(check int) "retroactive add_ssd does not bump" v
    (Policy.version policy)

(* Constraint review must report insertion order — Policy_lang renders
   from these accessors, so reversal would break the render/parse
   fixed point the analyzer's round-trip property depends on. *)
let test_constraints_in_insertion_order () =
  let policy = fixture () in
  List.iter (Policy.add_role policy) [ "a"; "b"; "c"; "d" ];
  let c1 = Sod.make ~name:"first" ~roles:[ "a"; "b" ] ~max_roles:1 in
  let c2 = Sod.make ~name:"second" ~roles:[ "c"; "d" ] ~max_roles:1 in
  Policy.add_ssd policy c1;
  Policy.add_ssd policy c2;
  Policy.add_dsd policy c2;
  Policy.add_dsd policy c1;
  Alcotest.(check (list string))
    "ssd in insertion order" [ "first"; "second" ]
    (List.map (fun c -> c.Sod.name) (Policy.ssd_constraints policy));
  Alcotest.(check (list string))
    "dsd in insertion order" [ "second"; "first" ]
    (List.map (fun c -> c.Sod.name) (Policy.dsd_constraints policy))

(* --- sessions --- *)

let test_session_activation () =
  let policy = fixture () in
  let s = Session.create policy ~user:"alice" in
  Alcotest.(check (list string)) "starts empty" [] (Session.active_roles s);
  Session.activate s "auditor";
  (* inherited junior is activatable too *)
  Session.activate s "reader";
  Alcotest.(check (list string)) "both active" [ "auditor"; "reader" ]
    (Session.active_roles s);
  Session.deactivate s "reader";
  Alcotest.(check (list string)) "deactivated" [ "auditor" ]
    (Session.active_roles s);
  Session.drop s;
  Alcotest.(check (list string)) "dropped" [] (Session.active_roles s)

let test_session_not_authorized () =
  let policy = fixture () in
  let s = Session.create policy ~user:"bob" in
  Alcotest.check_raises "bob cannot be auditor"
    (Session.Not_authorized ("bob", "auditor")) (fun () ->
      Session.activate s "auditor")

let test_session_dsd () =
  let policy = fixture () in
  Policy.add_role policy "payer";
  Policy.add_role policy "approver";
  Policy.assign_user policy "alice" "payer";
  Policy.assign_user policy "alice" "approver";
  Policy.add_dsd policy
    (Sod.make ~name:"dyn" ~roles:[ "payer"; "approver" ] ~max_roles:1);
  let s = Session.create policy ~user:"alice" in
  Session.activate s "payer";
  (try
     Session.activate s "approver";
     Alcotest.fail "DSD should block"
   with Session.Dsd_violation (_, "alice", "approver") -> ());
  (* but assignment itself was fine (no SSD) *)
  Session.deactivate s "payer";
  Session.activate s "approver"

let test_session_permissions () =
  let policy = fixture () in
  let s = Session.create policy ~user:"alice" in
  Alcotest.(check bool) "nothing before activation" false
    (Session.may s ~operation:"read" ~target:"db@s1");
  Session.activate s "auditor";
  Alcotest.(check bool) "inherited read" true
    (Session.may s ~operation:"read" ~target:"db@s1");
  Alcotest.(check bool) "own hash" true
    (Session.may s ~operation:"hash" ~target:"m@s3");
  Alcotest.(check bool) "not chief's write" false
    (Session.may s ~operation:"write" ~target:"report@s1")

(* --- engine --- *)

let test_engine_decisions () =
  let policy = fixture () in
  let s = Session.create policy ~user:"alice" in
  Session.activate s "auditor";
  Alcotest.(check bool) "granted" true
    (Engine.is_granted (Engine.decide s ~operation:"read" ~target:"db@s2"));
  (match Engine.decide s ~operation:"write" ~target:"report@s1" with
  | Engine.Denied why ->
      Alcotest.(check bool) "reason mentions user" true
        (String.length why > 0)
  | Engine.Granted -> Alcotest.fail "should deny");
  let access = Sral.Access.read "db" ~at:"s2" in
  Alcotest.(check bool) "decide_access" true
    (Engine.is_granted (Engine.decide_access s access))

(* The compiled probe reads the session's array of split permissions,
   kept with the session's version: a warm grant allocates nothing with
   one active role (the policy's own array) or with two (their
   concatenation), a warm denial allocates only its message and its
   [Denied] box, and the first probe after the active roles or the
   policy change sees the change. *)
let minor_words_per rounds f =
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int rounds

(* a string of [n] bytes is n / 8 + 1 words plus its header *)
let string_words s = float_of_int ((String.length s / 8) + 2)

let test_engine_compiled () =
  let policy = fixture () in
  let s = Session.create policy ~user:"alice" in
  Session.activate s "auditor";
  let granted = Sral.Access.read "db" ~at:"s2" in
  let denied = Sral.Access.write "report" ~at:"s1" in
  Alcotest.(check bool) "inherited grant" true
    (Engine.is_granted (Engine.decide_compiled s granted));
  Alcotest.(check bool) "denial bytes" true
    (Engine.decide_compiled s denied = Engine.decide_access s denied);
  let grant_words () =
    minor_words_per 10_000 (fun () -> ignore (Engine.decide_compiled s granted))
  in
  let words = grant_words () in
  Alcotest.(check bool)
    (Printf.sprintf "granted probe, one role: %.3f minor words" words)
    true (words < 0.01);
  Session.activate s "reader";
  ignore (Engine.decide_compiled s granted);
  let words = grant_words () in
  Alcotest.(check bool)
    (Printf.sprintf "granted probe, two roles: %.3f minor words" words)
    true (words < 0.01);
  let why =
    match Engine.decide_compiled s denied with
    | Engine.Denied why -> why
    | Engine.Granted -> Alcotest.fail "write report@s1 is not alice's"
  in
  let words =
    minor_words_per 10_000 (fun () -> ignore (Engine.decide_compiled s denied))
  in
  (* the [Denied] box is two words *)
  let expected = string_words why +. 2. in
  Alcotest.(check bool)
    (Printf.sprintf "denied probe: %.3f minor words, message and box %.0f"
       words expected)
    true
    (Float.abs (words -. expected) < 0.01);
  Policy.revoke policy "reader" (Perm.of_string "read:*@*");
  Alcotest.(check bool) "a revoke is seen" true
    (Engine.decide_compiled s granted = Engine.decide_access s granted
    && not (Engine.is_granted (Engine.decide_compiled s granted)))

(* Each step is followed by exactly one compiled probe, which must
   already give the oracle's verdict. *)
let test_engine_compiled_stamp () =
  let policy = fixture () in
  let s = Session.create policy ~user:"alice" in
  let hash = Sral.Access.custom "hash" "m" ~at:"s3" in
  let step what change granted =
    change ();
    let verdict = Engine.decide_compiled s hash in
    Alcotest.(check bool) (what ^ ": = decide_access") true
      (verdict = Engine.decide_access s hash);
    Alcotest.(check bool) (what ^ ": verdict") granted
      (Engine.is_granted verdict)
  in
  step "no role" ignore false;
  step "activate reader" (fun () -> Session.activate s "reader") false;
  step "activate auditor" (fun () -> Session.activate s "auditor") true;
  step "deactivate auditor" (fun () -> Session.deactivate s "auditor") false;
  step "activate auditor again" (fun () -> Session.activate s "auditor") true;
  step "revoke hash"
    (fun () -> Policy.revoke policy "auditor" (Perm.of_string "hash:*@*"))
    false;
  step "grant it back"
    (fun () -> Policy.grant policy "reader" (Perm.of_string "hash:m@s3"))
    true;
  step "drop" (fun () -> Session.drop s) false

(* The per-version table also holds each role's closure and each
   user's authorized roles: the compiled [may] and a warm
   authorized-roles read allocate nothing, and both agree with the
   uncached derivations. *)
let test_engine_may_compiled_allocation () =
  let policy = fixture () in
  let s = Session.create policy ~user:"alice" in
  Session.activate s "auditor";
  let asks =
    [ ("read", "db@s1"); ("hash", "*@*"); ("write", "report@s1"); ("read", "db") ]
  in
  List.iter
    (fun (operation, target) ->
      Alcotest.(check bool)
        (Printf.sprintf "may %s:%s" operation target)
        (Session.may s ~operation ~target)
        (Engine.may_compiled s ~operation ~target))
    asks;
  let ask (operation, target) = ignore (Engine.may_compiled s ~operation ~target) in
  let words = minor_words_per 10_000 (fun () -> List.iter ask asks) in
  Alcotest.(check bool)
    (Printf.sprintf "compiled may: %.3f minor words per 4 asks" words)
    true (words < 0.01)

let test_policy_authorized_allocation () =
  let policy = fixture () in
  List.iter
    (fun u ->
      Alcotest.(check (list string)) ("authorized " ^ u)
        (Policy.authorized_roles policy u)
        (Policy.compiled_authorized_roles policy u))
    [ "alice"; "bob"; "nobody" ];
  let words =
    minor_words_per 10_000 (fun () ->
        ignore (Policy.compiled_authorized_roles policy "alice"))
  in
  Alcotest.(check bool)
    (Printf.sprintf "warm authorized roles: %.3f minor words" words)
    true (words < 0.01);
  Policy.assign_user policy "bob" "chief";
  Alcotest.(check (list string)) "an assignment is seen"
    [ "auditor"; "chief"; "reader" ]
    (Policy.compiled_authorized_roles policy "bob")

(* --- TRBAC baseline --- *)

let qh = Temporal.Q.of_int

let test_trbac_windows () =
  let policy = fixture () in
  let engine = Trbac.create policy in
  Trbac.set_enabling engine ~role:"auditor"
    (Temporal.Periodic.daily ~start_hour:(qh 9) ~length_hours:(qh 8));
  let s = Session.create policy ~user:"alice" in
  Session.activate s "auditor";
  (* inside the window *)
  Alcotest.(check bool) "granted at 10:00" true
    (Engine.is_granted
       (Trbac.decide engine s ~at:(qh 10) ~operation:"hash" ~target:"m@s1"));
  (* outside the window: the role's privileges are revoked wholesale *)
  Alcotest.(check bool) "denied at 20:00" false
    (Engine.is_granted
       (Trbac.decide engine s ~at:(qh 20) ~operation:"hash" ~target:"m@s1"));
  (* next day, inside again *)
  Alcotest.(check bool) "granted at 34:00 (10am next day)" true
    (Engine.is_granted
       (Trbac.decide engine s ~at:(qh 34) ~operation:"hash" ~target:"m@s1"))

let test_trbac_unwindowed_roles_always_enabled () =
  let policy = fixture () in
  let engine = Trbac.create policy in
  let s = Session.create policy ~user:"bob" in
  Session.activate s "reader";
  Alcotest.(check bool) "plain role unaffected" true
    (Engine.is_granted
       (Trbac.decide engine s ~at:(qh 3) ~operation:"read" ~target:"x@y"))

let test_trbac_disabling_revokes_everything () =
  (* Section 4's criticism: one window per role, so *all* the role's
     permissions disappear together *)
  let policy = fixture () in
  let engine = Trbac.create policy in
  Trbac.set_enabling engine ~role:"auditor"
    (Temporal.Periodic.daily ~start_hour:(qh 9) ~length_hours:(qh 1));
  let s = Session.create policy ~user:"alice" in
  Session.activate s "auditor";
  (* outside the window, both the role's own perm and the inherited
     reader perm are gone (auditor was the only active role) *)
  Alcotest.(check bool) "own perm revoked" false
    (Engine.is_granted
       (Trbac.decide engine s ~at:(qh 12) ~operation:"hash" ~target:"m@s1"));
  Alcotest.(check bool) "inherited perm revoked too" false
    (Engine.is_granted
       (Trbac.decide engine s ~at:(qh 12) ~operation:"read" ~target:"m@s1"));
  Trbac.clear_enabling engine ~role:"auditor";
  Alcotest.(check bool) "cleared window re-enables" true
    (Engine.is_granted
       (Trbac.decide engine s ~at:(qh 12) ~operation:"hash" ~target:"m@s1"))

let test_trbac_enabled_roles () =
  let policy = fixture () in
  let engine = Trbac.create policy in
  Trbac.set_enabling engine ~role:"auditor"
    (Temporal.Periodic.daily ~start_hour:(qh 22) ~length_hours:(qh 2));
  let s = Session.create policy ~user:"alice" in
  Session.activate s "auditor";
  Session.activate s "reader";
  Alcotest.(check (list string)) "only reader at noon" [ "reader" ]
    (Trbac.enabled_roles engine s ~at:(qh 12));
  Alcotest.(check (list string)) "both at 23:00" [ "auditor"; "reader" ]
    (Trbac.enabled_roles engine s ~at:(qh 23))

(* --- GTRBAC events and triggers --- *)

let test_gtrbac_events () =
  let policy = fixture () in
  let g = Gtrbac.create policy in
  Gtrbac.post g ~at:(qh 9) (Gtrbac.Enable "auditor");
  Gtrbac.post g ~at:(qh 17) (Gtrbac.Disable "auditor");
  Gtrbac.process g;
  Alcotest.(check bool) "before" false (Gtrbac.is_enabled g ~role:"auditor" ~at:(qh 8));
  Alcotest.(check bool) "during" true (Gtrbac.is_enabled g ~role:"auditor" ~at:(qh 12));
  Alcotest.(check bool) "after" false (Gtrbac.is_enabled g ~role:"auditor" ~at:(qh 18));
  (* un-administered roles are always enabled *)
  Alcotest.(check bool) "plain role" true
    (Gtrbac.is_enabled g ~role:"reader" ~at:(qh 3))

let test_gtrbac_trigger_cascade () =
  let policy = fixture () in
  let g = Gtrbac.create policy in
  (* enabling the chief brings the auditor online 2 hours later, and
     disabling the chief takes the auditor down immediately *)
  Gtrbac.add_trigger g
    { Gtrbac.on = Gtrbac.Enable "chief"; after = qh 2; fire = Gtrbac.Enable "auditor" };
  Gtrbac.add_trigger g
    { Gtrbac.on = Gtrbac.Disable "chief"; after = Temporal.Q.zero;
      fire = Gtrbac.Disable "auditor" };
  Gtrbac.post g ~at:(qh 8) (Gtrbac.Enable "chief");
  Gtrbac.post g ~at:(qh 16) (Gtrbac.Disable "chief");
  Gtrbac.process g;
  Alcotest.(check bool) "auditor not yet at 9" false
    (Gtrbac.is_enabled g ~role:"auditor" ~at:(qh 9));
  Alcotest.(check bool) "auditor on at 10" true
    (Gtrbac.is_enabled g ~role:"auditor" ~at:(qh 10));
  Alcotest.(check bool) "auditor off with chief at 16" false
    (Gtrbac.is_enabled g ~role:"auditor" ~at:(qh 16))

let test_gtrbac_cycle_guard () =
  let policy = fixture () in
  let g = Gtrbac.create ~cascade_limit:50 policy in
  Gtrbac.add_trigger g
    { Gtrbac.on = Gtrbac.Enable "auditor"; after = Temporal.Q.one;
      fire = Gtrbac.Disable "auditor" };
  Gtrbac.add_trigger g
    { Gtrbac.on = Gtrbac.Disable "auditor"; after = Temporal.Q.one;
      fire = Gtrbac.Enable "auditor" };
  Gtrbac.post g ~at:Temporal.Q.zero (Gtrbac.Enable "auditor");
  Alcotest.check_raises "trigger loop detected" Gtrbac.Cascade_limit (fun () ->
      Gtrbac.process g)

let test_gtrbac_decide () =
  let policy = fixture () in
  let g = Gtrbac.create policy in
  Gtrbac.post g ~at:(qh 9) (Gtrbac.Enable "auditor");
  Gtrbac.post g ~at:(qh 17) (Gtrbac.Disable "auditor");
  let s = Session.create policy ~user:"alice" in
  Session.activate s "auditor";
  Alcotest.(check bool) "granted in window" true
    (Engine.is_granted
       (Gtrbac.decide g s ~at:(qh 10) ~operation:"hash" ~target:"m@s1"));
  Alcotest.(check bool) "denied outside" false
    (Engine.is_granted
       (Gtrbac.decide g s ~at:(qh 20) ~operation:"hash" ~target:"m@s1"))

let test_gtrbac_incremental_posting () =
  let policy = fixture () in
  let g = Gtrbac.create policy in
  Gtrbac.post g ~at:(qh 1) (Gtrbac.Enable "auditor");
  Gtrbac.process g;
  Alcotest.(check bool) "first batch" true
    (Gtrbac.is_enabled g ~role:"auditor" ~at:(qh 2));
  (* post more events after processing: they extend the history *)
  Gtrbac.post g ~at:(qh 5) (Gtrbac.Disable "auditor");
  Gtrbac.process g;
  Alcotest.(check bool) "second batch applied" false
    (Gtrbac.is_enabled g ~role:"auditor" ~at:(qh 6))

let () =
  Alcotest.run "rbac"
    [
      ( "perm",
        [
          Alcotest.test_case "exact" `Quick test_perm_matches_exact;
          Alcotest.test_case "wildcards" `Quick test_perm_wildcards;
          Alcotest.test_case "string roundtrip" `Quick
            test_perm_string_roundtrip;
          Alcotest.test_case "overlaps" `Quick test_perm_overlaps;
          Alcotest.test_case "matches = split oracle (seeded)" `Quick
            test_perm_matches_oracle;
          Alcotest.test_case "matches allocation" `Quick
            test_perm_matches_allocation;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "inheritance" `Quick test_hierarchy_inheritance;
          Alcotest.test_case "cycle rejected" `Quick
            test_hierarchy_cycle_rejected;
        ] );
      ( "policy",
        [
          Alcotest.test_case "review" `Quick test_policy_review;
          Alcotest.test_case "unknown" `Quick test_policy_unknown;
          Alcotest.test_case "deassign/revoke" `Quick
            test_policy_deassign_revoke;
        ] );
      ( "sod",
        [
          Alcotest.test_case "ssd blocks" `Quick test_ssd;
          Alcotest.test_case "retroactive" `Quick test_ssd_retroactive_rejected;
          Alcotest.test_case "validation" `Quick test_sod_validation;
        ] );
      ( "version",
        [
          Alcotest.test_case "every admin op bumps" `Quick
            test_version_monotone_across_admin_ops;
          Alcotest.test_case "rejected ops do not bump" `Quick
            test_version_unchanged_on_rejected_ops;
          Alcotest.test_case "constraints in insertion order" `Quick
            test_constraints_in_insertion_order;
        ] );
      ( "session",
        [
          Alcotest.test_case "activation" `Quick test_session_activation;
          Alcotest.test_case "not authorized" `Quick test_session_not_authorized;
          Alcotest.test_case "dsd" `Quick test_session_dsd;
          Alcotest.test_case "permissions" `Quick test_session_permissions;
        ] );
      ( "engine",
        [
          Alcotest.test_case "decisions" `Quick test_engine_decisions;
          Alcotest.test_case "compiled table" `Quick test_engine_compiled;
          Alcotest.test_case "first probe sees a role or policy change" `Quick
            test_engine_compiled_stamp;
          Alcotest.test_case "compiled may allocates nothing" `Quick
            test_engine_may_compiled_allocation;
          Alcotest.test_case "authorized roles allocate nothing" `Quick
            test_policy_authorized_allocation;
        ] );
      ( "gtrbac",
        [
          Alcotest.test_case "events" `Quick test_gtrbac_events;
          Alcotest.test_case "trigger cascade" `Quick
            test_gtrbac_trigger_cascade;
          Alcotest.test_case "cycle guard" `Quick test_gtrbac_cycle_guard;
          Alcotest.test_case "decide" `Quick test_gtrbac_decide;
          Alcotest.test_case "incremental posting" `Quick
            test_gtrbac_incremental_posting;
        ] );
      ( "trbac",
        [
          Alcotest.test_case "windows" `Quick test_trbac_windows;
          Alcotest.test_case "unwindowed always enabled" `Quick
            test_trbac_unwindowed_roles_always_enabled;
          Alcotest.test_case "disabling revokes everything" `Quick
            test_trbac_disabling_revokes_everything;
          Alcotest.test_case "enabled roles" `Quick test_trbac_enabled_roles;
        ] );
    ]
