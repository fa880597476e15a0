(* Quickstart: the whole coordinated model in one page.

   A mobile object roams a two-server coalition.  Its permission to
   read the database at s2 carries (i) a spatial constraint — the
   configuration at s1 must be read first — and (ii) a validity
   duration of 10 time units over the whole journey.

   Run with:  dune exec examples/quickstart.exe *)

module Q = Temporal.Q

let () =
  (* 1. An SRAL program, straight from its concrete syntax. *)
  let program =
    Sral.Parser.program
      "read cfg @ s1; if fresh > 0 then { read db @ s2 } else { read cache @ s1 }"
  in
  Format.printf "--- program ---@.%a@.@." Sral.Pretty.pp program;

  (* 2. Ask the Theorem 3.2 checker about it, before running anything. *)
  let constraint_ =
    Srac.Formula.of_string "seq(read cfg @ s1, read db @ s2)"
  in
  let outcome = Srac.Program_sat.check program constraint_ in
  Format.printf "can satisfy %a?  %b  (witness: %s)@.@." Srac.Formula.pp
    constraint_ outcome.Srac.Program_sat.holds
    (match outcome.Srac.Program_sat.witness with
    | Some t -> Sral.Trace.to_string t
    | None -> "-");

  (* 3. Declare the coalition's policy: RBAC plus the binding. *)
  let control =
    Coordinated.System.of_policy_text
      {|
user nomad
role analyst
assign nomad analyst
grant analyst read:*@*
bind read:db@s2 spatial "seq(read cfg @ s1, read db @ s2)" scope performed dur 10 scheme journey
|}
  in

  (* 4. Emulate the mobile computation in the Naplet world, recording
     every decision in an audit log. *)
  let log = Coordinated.Audit_log.attach (Coordinated.System.bus control) in
  let world = Naplet.World.create control in
  List.iter
    (fun s -> Naplet.World.add_server world (Naplet.Server.create s))
    [ "s1"; "s2" ];
  (* the condition variable must be bound before the branch *)
  let program = Sral.Ast.Seq (Sral.Ast.Assign ("fresh", Sral.Expr.Int 1), program) in
  Naplet.World.spawn world ~id:"naplet-1" ~owner:"nomad" ~roles:[ "analyst" ]
    ~home:"s1" program;
  let metrics = Naplet.World.run world in
  Format.printf "--- simulation ---@.%a@.@." Naplet.Metrics.pp metrics;

  (* 5. Inspect the audit trail — as a log and as a timeline. *)
  Format.printf "--- audit log ---@.%a@.@." Coordinated.Audit_log.pp log;
  Format.printf "--- timeline ---@.%s@."
    (Coordinated.Timeline.render ~width:40 log)
