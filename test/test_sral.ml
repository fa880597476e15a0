(* Tests for the SRAL language: lexer, parser, printer, expressions,
   program analyses and the extensional trace-model operators. *)

open Sral

let parse = Parser.program

let check_trace_set msg expected set =
  let actual =
    List.sort String.compare
      (List.map Trace.to_string (Trace_ops.to_list set))
  in
  let expected =
    List.sort String.compare (List.map Trace.to_string expected)
  in
  Alcotest.(check (list string)) msg expected actual

let acc op r s = Access.make ~op ~resource:r ~server:s
let read_ r s = acc Access.Read r s
let write_ r s = acc Access.Write r s

(* --- lexer --- *)

let test_lexer_basic () =
  let tokens = Lexer.tokenize "read db @ s1 ; x := 1 + 2" in
  Alcotest.(check int) "token count" 11 (List.length tokens);
  Alcotest.(check bool) "ends with EOF" true
    (List.nth tokens 10 = Lexer.EOF)

let test_lexer_comment () =
  let tokens = Lexer.tokenize "skip # a comment\n; skip" in
  Alcotest.(check int) "comment stripped" 4 (List.length tokens)

let test_lexer_operators () =
  let tokens = Lexer.tokenize "<= >= == != && || := ? !" in
  Alcotest.(check int) "all operators plus EOF" 10 (List.length tokens)

let test_lexer_error () =
  Alcotest.check_raises "bad char"
    (Lexer.Lex_error ("unexpected character '$'", 0))
    (fun () -> ignore (Lexer.tokenize "$"))

(* --- parser --- *)

let test_parse_access () =
  match parse "read db @ s1" with
  | Ast.Access a ->
      Alcotest.(check string) "resource" "db" a.Access.resource;
      Alcotest.(check string) "server" "s1" a.Access.server
  | _ -> Alcotest.fail "expected a single access"

let test_parse_custom_op () =
  match parse "op(hash) m1 @ s2" with
  | Ast.Access a ->
      Alcotest.(check string) "op" "hash" (Access.operation_name a.Access.op)
  | _ -> Alcotest.fail "expected a custom access"

let test_parse_custom_op_bare () =
  (* a bare identifier is also accepted as a custom operation *)
  match parse "hash m1 @ s2" with
  | Ast.Access a ->
      Alcotest.(check string) "op" "hash" (Access.operation_name a.Access.op)
  | _ -> Alcotest.fail "expected a custom access"

let test_parse_seq_right_assoc () =
  match parse "skip; skip; skip" with
  | Ast.Seq (Ast.Skip, Ast.Seq (Ast.Skip, Ast.Skip)) -> ()
  | _ -> Alcotest.fail "seq should be right-nested"

let test_parse_par_vs_seq () =
  (* '||' binds tighter than ';' *)
  match parse "read a @ s; skip || skip" with
  | Ast.Seq (Ast.Access _, Ast.Par (Ast.Skip, Ast.Skip)) -> ()
  | _ -> Alcotest.fail "expected seq of access and par"

let test_parse_if_while () =
  match parse "if x > 0 then { skip } else { skip }; while y < 3 do { skip }" with
  | Ast.Seq (Ast.If _, Ast.While _) -> ()
  | _ -> Alcotest.fail "expected if then while"

let test_parse_channels () =
  match parse "ch ? x; ch ! x + 1; signal(done_); wait(done_)" with
  | Ast.Seq (Ast.Recv ("ch", "x"), Ast.Seq (Ast.Send ("ch", _), Ast.Seq (Ast.Signal "done_", Ast.Wait "done_"))) ->
      ()
  | _ -> Alcotest.fail "expected channel program"

let test_parse_errors () =
  List.iter
    (fun src ->
      match parse src with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "%S should not parse" src))
    [
      "read db";          (* missing @ server *)
      "if x then { skip }";  (* missing else *)
      "while do { skip }";   (* missing condition *)
      "skip skip";           (* missing separator *)
      "ch !";                (* missing payload *)
      "{ skip";              (* unclosed brace *)
      "";                    (* empty input *)
    ]

let test_parse_expr () =
  let e = Parser.expr "1 + 2 * 3 == 7 && !false" in
  Alcotest.(check bool) "evaluates true" true (Expr.eval_bool Env.empty e)

let test_expr_precedence () =
  let e = Parser.expr "2 + 3 * 4" in
  Alcotest.(check bool) "mul binds tighter" true
    (Value.equal (Expr.eval Env.empty e) (Value.Int 14))

let test_expr_or_keyword () =
  let e = Parser.expr "false or true" in
  Alcotest.(check bool) "or keyword" true (Expr.eval_bool Env.empty e)

(* --- pretty / roundtrip --- *)

let test_roundtrip_cases () =
  List.iter
    (fun src ->
      let p = parse src in
      let p2 = parse (Pretty.to_string p) in
      Alcotest.(check bool) (Printf.sprintf "roundtrip %S" src) true
        (Ast.equal p p2))
    [
      "read db @ s1";
      "read a @ s1; write b @ s2";
      "if x > 0 then { read a @ s1 } else { write b @ s2 }";
      "i := 0; while i < 3 do { read a @ s1; i := i + 1 }";
      "{ read a @ s1 || write b @ s2 }; execute c @ s3";
      "ch ? x; ch ! x * 2; signal(sync); wait(sync)";
      "op(hash) m @ s1; { skip || { skip || skip } }";
      "x := 1 + 2 * 3; if x == 7 or x > 10 then { skip } else { skip }";
    ]

let roundtrip_prop =
  QCheck.Test.make ~name:"pretty/parse roundtrip (random programs)"
    ~count:200
    (QCheck.make (fun rng ->
         Generate.program ~allow_io:true ~resources:[ "r1"; "r2" ]
           ~servers:[ "s1"; "s2" ] ~size:12 rng))
    (fun p ->
      let printed = Pretty.to_string p in
      match parse printed with
      | p2 -> Ast.equal p p2
      | exception Parser.Parse_error msg ->
          QCheck.Test.fail_reportf "failed to reparse %S: %s" printed msg)

(* --- expressions --- *)

let test_expr_eval_errors () =
  let check_err name e =
    match Expr.eval Env.empty e with
    | exception Expr.Eval_error _ -> ()
    | _ -> Alcotest.fail (name ^ " should raise")
  in
  check_err "unbound var" (Expr.Var "nope");
  check_err "div by zero" (Expr.Binop (Expr.Div, Expr.Int 1, Expr.Int 0));
  check_err "mod by zero" (Expr.Binop (Expr.Mod, Expr.Int 1, Expr.Int 0));
  check_err "neg of bool" (Expr.Neg (Expr.Bool true));
  check_err "plus on bool" (Expr.Binop (Expr.Add, Expr.Bool true, Expr.Int 1))

let test_expr_short_circuit () =
  (* the right operand would raise, but must not be evaluated *)
  let div0 = Expr.Binop (Expr.Div, Expr.Int 1, Expr.Int 0) in
  let e1 = Expr.Binop (Expr.And, Expr.Bool false, div0) in
  let e2 = Expr.Binop (Expr.Or, Expr.Bool true, div0) in
  Alcotest.(check bool) "false && _" false (Expr.eval_bool Env.empty e1);
  Alcotest.(check bool) "true or _" true (Expr.eval_bool Env.empty e2)

let test_expr_free_vars () =
  let e = Parser.expr "x + y * x - z" in
  Alcotest.(check (list string)) "free vars" [ "x"; "y"; "z" ]
    (Expr.free_vars e)

(* --- program analyses --- *)

let prog1 =
  parse
    "read a @ s1; if x > 0 then { write b @ s2 } else { read a @ s1 }; ch ? y; signal(ev)"

let test_program_size () =
  Alcotest.(check bool) "size positive" true (Program.size prog1 > 5)

let test_program_accesses () =
  Alcotest.(check int) "distinct accesses" 2
    (List.length (Program.accesses prog1));
  Alcotest.(check int) "occurrences" 3 (Program.access_count prog1)

let test_program_servers_resources () =
  Alcotest.(check (list string)) "servers" [ "s1"; "s2" ]
    (Program.servers prog1);
  Alcotest.(check (list string)) "resources" [ "a"; "b" ]
    (Program.resources prog1)

let test_program_channels_signals () =
  Alcotest.(check (list string)) "channels" [ "ch" ] (Program.channels prog1);
  Alcotest.(check (list string)) "signals" [ "ev" ] (Program.signals prog1)

let test_program_flags () =
  Alcotest.(check bool) "no par" false (Program.has_par prog1);
  Alcotest.(check bool) "no loop" false (Program.has_loop prog1);
  let p = parse "while c do { skip || skip }" in
  Alcotest.(check bool) "has par" true (Program.has_par p);
  Alcotest.(check bool) "has loop" true (Program.has_loop p)

(* A program depends only on its seed: generating it again in the same
   process, after other programs, gives the same variable names. *)
let test_generate_reproducible () =
  let gen seed =
    Generate.program ~allow_io:true ~resources:[ "r1"; "r2" ]
      ~servers:[ "s1"; "s2" ] ~size:16 (Random.State.make [| seed |])
  in
  let programs = List.init 20 gen in
  Alcotest.(check bool) "some program has a loop counter" true
    (List.exists Program.has_loop programs);
  List.iteri
    (fun seed p ->
      if not (Ast.equal p (gen seed)) then
        Alcotest.failf "seed %d: a second program differs:\n%s\n%s" seed
          (Pretty.to_string p)
          (Pretty.to_string (gen seed)))
    programs

let test_normalize () =
  let p = Ast.Seq (Ast.Skip, Ast.Seq (Ast.Access (read_ "a" "s1"), Ast.Skip)) in
  Alcotest.(check bool) "skips removed" true
    (Ast.equal (Program.normalize p) (Ast.Access (read_ "a" "s1")))

let normalize_preserves_traces =
  QCheck.Test.make ~name:"normalize preserves the trace model" ~count:100
    (QCheck.make (fun rng ->
         Generate.program ~resources:[ "r" ] ~servers:[ "s" ] ~size:8 rng))
    (fun p ->
      let t1 = Trace_ops.traces_bounded ~loop_bound:2 p in
      let t2 = Trace_ops.traces_bounded ~loop_bound:2 (Program.normalize p) in
      Trace_ops.Trace_set.equal t1 t2)

(* --- trace operators --- *)

let a1 = read_ "a" "s1"
let a2 = write_ "b" "s2"
let a3 = read_ "c" "s3"

let test_trace_basic () =
  let t = [ a1; a2; a1 ] in
  Alcotest.(check int) "length" 3 (Trace.length t);
  Alcotest.(check bool) "mem" true (Trace.mem a2 t);
  Alcotest.(check bool) "not mem" false (Trace.mem a3 t);
  Alcotest.(check (list int)) "positions" [ 0; 2 ] (Trace.positions a1 t);
  Alcotest.(check int) "count" 2
    (Trace.count (fun a -> Access.equal a a1) t)

let test_concat () =
  let m1 = Trace_ops.of_list [ [ a1 ] ] in
  let m2 = Trace_ops.of_list [ [ a2 ]; [ a3 ] ] in
  check_trace_set "pointwise concat" [ [ a1; a2 ]; [ a1; a3 ] ]
    (Trace_ops.concat m1 m2)

let test_interleave_counts () =
  (* |interleave t v| = C(|t|+|v|, |t|) for traces with distinct symbols *)
  let t = [ a1; a2 ] in
  let v = [ a3 ] in
  Alcotest.(check int) "C(3,1)" 3
    (List.length (Trace_ops.to_list (Trace_ops.interleave_traces t v)));
  let v2 = [ a3; read_ "d" "s4" ] in
  Alcotest.(check int) "C(4,2)" 6
    (List.length (Trace_ops.to_list (Trace_ops.interleave_traces t v2)))

let test_interleave_preserves_order () =
  let results = Trace_ops.to_list (Trace_ops.interleave_traces [ a1; a2 ] [ a3 ]) in
  List.iter
    (fun t ->
      let p1 = List.hd (Trace.positions a1 t) in
      let p2 = List.hd (Trace.positions a2 t) in
      Alcotest.(check bool) "a1 before a2" true (p1 < p2))
    results

let test_interleave_empty () =
  check_trace_set "eps # t = {t}" [ [ a1 ] ]
    (Trace_ops.interleave_traces [] [ a1 ])

let test_kleene () =
  let m = Trace_ops.of_list [ [ a1 ] ] in
  let closure = Trace_ops.kleene ~bound:3 m in
  check_trace_set "a* up to 3"
    [ []; [ a1 ]; [ a1; a1 ]; [ a1; a1; a1 ] ]
    closure

let test_kleene_fixpoint () =
  (* kleene of {eps} converges immediately *)
  let m = Trace_ops.of_list [ [] ] in
  check_trace_set "eps* = {eps}" [ [] ] (Trace_ops.kleene ~bound:10 m)

let test_traces_bounded_if () =
  let p = parse "if c then { read a @ s1 } else { write b @ s2 }" in
  check_trace_set "union of branches" [ [ a1 ]; [ a2 ] ]
    (Trace_ops.traces_bounded ~loop_bound:2 p)

let test_traces_bounded_par () =
  let p = parse "{ read a @ s1 || write b @ s2 }" in
  check_trace_set "interleavings" [ [ a1; a2 ]; [ a2; a1 ] ]
    (Trace_ops.traces_bounded ~loop_bound:2 p)

let test_traces_bounded_io_invisible () =
  let p = parse "ch ? x; signal(e); read a @ s1" in
  check_trace_set "io is trace-invisible" [ [ a1 ] ]
    (Trace_ops.traces_bounded ~loop_bound:2 p)

let test_server_flow () =
  let p = parse "read a @ s1; read b @ s2; read c @ s2" in
  Alcotest.(check (list (pair string string))) "linear" [ ("s1", "s2") ]
    (Program.server_flow p);
  let p2 = parse "read a @ s1; if c then { read b @ s2 } else { read c @ s3 }" in
  Alcotest.(check (list (pair string string))) "branching"
    [ ("s1", "s2"); ("s1", "s3") ]
    (Program.server_flow p2);
  (* the loop closes the cycle s1 -> s2 -> s1 *)
  let p3 = parse "while c do { read a @ s1; read b @ s2 }" in
  Alcotest.(check (list (pair string string))) "loop back edge"
    [ ("s1", "s2"); ("s2", "s1") ]
    (Program.server_flow p3);
  (* interleaving crosses branches both ways *)
  let p4 = parse "{ read a @ s1 || read b @ s2 }" in
  Alcotest.(check (list (pair string string))) "par"
    [ ("s1", "s2"); ("s2", "s1") ]
    (Program.server_flow p4);
  Alcotest.(check (list (pair string string))) "single server" []
    (Program.server_flow (parse "read a @ s1; read b @ s1"))

(* --- big-step evaluator --- *)

let test_eval_sequence () =
  match Eval.run (parse "read a @ s1; x := 2; if x > 1 then { write b @ s2 } else { skip }") with
  | Ok { trace; env } ->
      Alcotest.(check int) "two accesses" 2 (Trace.length trace);
      Alcotest.(check bool) "env updated" true
        (Env.find env "x" = Some (Value.Int 2))
  | Error e -> Alcotest.fail (Format.asprintf "%a" Eval.pp_error e)

let test_eval_loop () =
  match Eval.run (parse "i := 0; while i < 5 do { read a @ s1; i := i + 1 }") with
  | Ok { trace; _ } -> Alcotest.(check int) "five accesses" 5 (Trace.length trace)
  | Error e -> Alcotest.fail (Format.asprintf "%a" Eval.pp_error e)

let test_eval_errors () =
  (match Eval.run (parse "ch ? x") with
  | Error (Eval.Unsupported _) -> ()
  | _ -> Alcotest.fail "recv should be unsupported");
  (match Eval.run (parse "while true do { skip }") with
  | Error Eval.Out_of_fuel -> ()
  | _ -> Alcotest.fail "divergence should exhaust fuel");
  match Eval.run (parse "if zz > 0 then { skip } else { skip }") with
  | Error (Eval.Eval_error _) -> ()
  | _ -> Alcotest.fail "unbound variable should fail"

let eval_trace_in_trace_model =
  QCheck.Test.make
    ~name:"big-step trace is in the symbolic trace model (par-free)"
    ~count:150
    (QCheck.make (fun rng ->
         Generate.program ~allow_par:false ~resources:[ "a"; "b" ]
           ~servers:[ "s1"; "s2" ] ~size:8 rng))
    (fun p ->
      match Eval.trace_of p with
      | None -> QCheck.assume_fail ()
      | Some trace ->
          (* membership in the program's regular trace model — checked
             on the DFA, so nested loops cost nothing *)
          Automata.Language.contains (Automata.Language.of_program p) trace)

(* --- access --- *)

let test_access_compare_total () =
  let all = [ a1; a2; a3; acc (Access.Custom "hash") "a" "s1" ] in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          let c1 = Access.compare x y and c2 = Access.compare y x in
          Alcotest.(check bool) "antisymmetric" true (compare c1 0 = compare 0 c2))
        all)
    all

let test_access_operation_roundtrip () =
  List.iter
    (fun op ->
      Alcotest.(check bool) "name roundtrip" true
        (Access.operation_of_name (Access.operation_name op) = op))
    [ Access.Read; Access.Write; Access.Execute; Access.Custom "hash" ]

(* A name of up to 64 bytes, some of them past ASCII. *)
let gen_name rng =
  String.init (Random.State.int rng 65) (fun _ ->
      if Random.State.int rng 4 = 0 then
        Char.chr (128 + Random.State.int rng 128)
      else Char.chr (97 + Random.State.int rng 26))

let gen_access rng =
  let op =
    match Random.State.int rng 4 with
    | 0 -> Access.Read
    | 1 -> Access.Write
    | 2 -> Access.Execute
    | _ -> Access.Custom (gen_name rng)
  in
  Access.make ~op ~resource:(gen_name rng) ~server:(gen_name rng)

(* fresh copies of every string, so equality cannot lean on sharing *)
let copy (a : Access.t) =
  let c s = Bytes.to_string (Bytes.of_string s) in
  let op = match a.op with Access.Custom n -> Access.Custom (c n) | op -> op in
  Access.make ~op ~resource:(c a.resource) ~server:(c a.server)

let test_access_hash_equal () =
  Gen.each_seed ~salt:3302 ~count:100 (fun ~seed rng ->
      for _ = 1 to 20 do
        let a = gen_access rng in
        let b = copy a in
        if not (Access.equal a b && Access.hash a = Access.hash b) then
          Alcotest.failf "seed %d: equal accesses %s hash apart" seed
            (Access.to_string a);
        if Access.hash a < 0 then
          Alcotest.failf "seed %d: negative hash for %s" seed
            (Access.to_string a)
      done)

(* [Access.equal] tests fields with [String.equal]; [compare] is the
   reference.  Pairs are built to be hard to tell apart: copies, names
   of 0-70 bytes that share a prefix, that differ only in their last
   byte (often past ASCII) or by one byte of length, and built-in
   operations against [Custom] ones of the same name. *)
let gen_byte rng =
  if Random.State.int rng 3 = 0 then Char.chr (128 + Random.State.int rng 128)
  else Char.chr (97 + Random.State.int rng 3)

let gen_long_name rng =
  String.init (Random.State.int rng 71) (fun _ -> gen_byte rng)

let near_name rng s =
  let n = String.length s in
  let byte () = gen_byte rng in
  match Random.State.int rng 5 with
  | 0 -> Bytes.to_string (Bytes.of_string s)
  | 1 when n > 0 -> String.sub s 0 (n - 1) ^ String.make 1 (byte ())
  | 2 when n > 0 -> String.sub s 0 (n - 1)
  | 3 when n < 70 -> s ^ String.make 1 (byte ())
  | _ ->
      let keep = Random.State.int rng (n + 1) in
      String.sub s 0 keep
      ^ String.init
          (Random.State.int rng (71 - keep))
          (fun _ -> byte ())

let gen_op rng : Access.operation =
  match Random.State.int rng 4 with
  | 0 -> Read
  | 1 -> Write
  | 2 -> Execute
  | _ -> Custom (gen_long_name rng)

(* [Custom "read"] is not [Read] *)
let near_op rng (op : Access.operation) : Access.operation =
  match (Random.State.int rng 3, op) with
  | 0, Custom n -> Custom (near_name rng n)
  | 0, (Read | Write | Execute) -> Custom (Access.operation_name op)
  | 1, _ -> gen_op rng
  | _ -> op

let test_access_equal_compare () =
  let equal = ref 0 and unequal = ref 0 in
  Gen.each_seed ~salt:3304 ~count:200 (fun ~seed rng ->
      for _ = 1 to 50 do
        let a =
          Access.make ~op:(gen_op rng) ~resource:(gen_long_name rng)
            ~server:(gen_long_name rng)
        in
        let b =
          match Random.State.int rng 5 with
          | 0 -> a
          | 1 -> copy a
          | 2 -> { (copy a) with op = near_op rng a.op }
          | 3 -> { (copy a) with resource = near_name rng a.resource }
          | _ -> { (copy a) with server = near_name rng a.server }
        in
        let expected = Access.compare a b = 0 in
        if expected then incr equal else incr unequal;
        if Access.equal a b <> expected || Access.equal b a <> expected then
          Alcotest.failf "seed %d: equal %s %s is %b" seed
            (Access.to_string a) (Access.to_string b) (not expected)
      done);
  Alcotest.(check bool)
    (Printf.sprintf "both outcomes drawn (%d equal, %d unequal)" !equal
       !unequal)
    true
    (!equal >= 2_000 && !unequal >= 2_000)

let test_access_equal_allocation () =
  let name = String.make 70 '\xe9' in
  let a = Access.custom name name ~at:name in
  let b = copy a in
  let c = { (copy a) with server = String.sub name 0 69 ^ "\xea" } in
  let rounds = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    ignore (Sys.opaque_identity (Access.equal a b));
    ignore (Sys.opaque_identity (Access.equal a c))
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int rounds in
  Alcotest.(check bool)
    (Printf.sprintf "equal: %.3f minor words per two calls" words)
    true (words < 0.01)

(* 4,096 short names differing in a digit or two: the names a
   coalition's resources and servers carry.  The table grows to 2,048
   buckets; its largest holds 8, as many as a random function's does on
   this grid (the caml_hash combination the hash replaced put 10 in
   one).  The bound leaves 50% over the measured 8. *)
let test_access_hash_spread () =
  let tbl = Access.Tbl.create 16 in
  for i = 0 to 63 do
    for j = 0 to 63 do
      let a =
        Access.read (Printf.sprintf "r%d" i) ~at:(Printf.sprintf "s%d" j)
      in
      Access.Tbl.replace tbl a ()
    done
  done;
  let stats = Access.Tbl.stats tbl in
  Alcotest.(check int) "distinct accesses" 4096 stats.num_bindings;
  Alcotest.(check bool)
    (Printf.sprintf "largest bucket %d of %d" stats.max_bucket_length
       stats.num_buckets)
    true
    (stats.max_bucket_length <= 12)

(* [Clip.quote] concatenates; the formatted reference below is how it
   was built before.  The strings draw every byte value, and half of
   them outgrow [Clip.limit], so the length note is compared too. *)
let formatted_quote s =
  let n = String.length s in
  if n <= Clip.limit then Printf.sprintf "%S" s
  else Printf.sprintf "%S... (%d bytes)" (String.sub s 0 Clip.limit) n

let test_clip_quote_formatted () =
  let seen = Array.make 256 false in
  let check ~seed s =
    String.iter (fun c -> seen.(Char.code c) <- true) s;
    let expected = formatted_quote s and actual = Clip.quote s in
    if actual <> expected then
      Alcotest.failf "seed %d: quote %S is %S, expected %S" seed s actual
        expected
  in
  check ~seed:(-1) (String.init 256 Char.chr);
  Gen.each_seed ~salt:3303 ~count:200 (fun ~seed rng ->
      for _ = 1 to 20 do
        let n = Random.State.int rng (2 * Clip.limit + 2) in
        check ~seed
          (String.init n (fun _ -> Char.chr (Random.State.int rng 256)))
      done);
  Alcotest.(check bool) "every byte value drawn" true
    (Array.for_all Fun.id seen)

let () =
  Alcotest.run "sral"
    [
      ( "clip",
        [
          Alcotest.test_case "quote = Printf %S (seeded)" `Quick
            test_clip_quote_formatted;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "comment" `Quick test_lexer_comment;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "error" `Quick test_lexer_error;
        ] );
      ( "parser",
        [
          Alcotest.test_case "access" `Quick test_parse_access;
          Alcotest.test_case "custom op" `Quick test_parse_custom_op;
          Alcotest.test_case "bare custom op" `Quick test_parse_custom_op_bare;
          Alcotest.test_case "seq right assoc" `Quick test_parse_seq_right_assoc;
          Alcotest.test_case "par vs seq" `Quick test_parse_par_vs_seq;
          Alcotest.test_case "if/while" `Quick test_parse_if_while;
          Alcotest.test_case "channels" `Quick test_parse_channels;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "expr" `Quick test_parse_expr;
          Alcotest.test_case "expr precedence" `Quick test_expr_precedence;
          Alcotest.test_case "or keyword" `Quick test_expr_or_keyword;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "roundtrip cases" `Quick test_roundtrip_cases;
          QCheck_alcotest.to_alcotest roundtrip_prop;
        ] );
      ( "expr",
        [
          Alcotest.test_case "eval errors" `Quick test_expr_eval_errors;
          Alcotest.test_case "short circuit" `Quick test_expr_short_circuit;
          Alcotest.test_case "free vars" `Quick test_expr_free_vars;
        ] );
      ( "program",
        [
          Alcotest.test_case "size" `Quick test_program_size;
          Alcotest.test_case "accesses" `Quick test_program_accesses;
          Alcotest.test_case "servers/resources" `Quick
            test_program_servers_resources;
          Alcotest.test_case "channels/signals" `Quick
            test_program_channels_signals;
          Alcotest.test_case "flags" `Quick test_program_flags;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "generate: same seed, same program" `Quick
            test_generate_reproducible;
          Alcotest.test_case "server flow" `Quick test_server_flow;
          QCheck_alcotest.to_alcotest normalize_preserves_traces;
        ] );
      ( "traces",
        [
          Alcotest.test_case "basics" `Quick test_trace_basic;
          Alcotest.test_case "concat" `Quick test_concat;
          Alcotest.test_case "interleave counts" `Quick test_interleave_counts;
          Alcotest.test_case "interleave order" `Quick
            test_interleave_preserves_order;
          Alcotest.test_case "interleave empty" `Quick test_interleave_empty;
          Alcotest.test_case "kleene" `Quick test_kleene;
          Alcotest.test_case "kleene fixpoint" `Quick test_kleene_fixpoint;
          Alcotest.test_case "traces of if" `Quick test_traces_bounded_if;
          Alcotest.test_case "traces of par" `Quick test_traces_bounded_par;
          Alcotest.test_case "io invisible" `Quick
            test_traces_bounded_io_invisible;
        ] );
      ( "eval",
        [
          Alcotest.test_case "sequence" `Quick test_eval_sequence;
          Alcotest.test_case "loop" `Quick test_eval_loop;
          Alcotest.test_case "errors" `Quick test_eval_errors;
          QCheck_alcotest.to_alcotest eval_trace_in_trace_model;
        ] );
      ( "access",
        [
          Alcotest.test_case "compare total" `Quick test_access_compare_total;
          Alcotest.test_case "operation roundtrip" `Quick
            test_access_operation_roundtrip;
          Alcotest.test_case "equal accesses hash equal (seeded)" `Quick
            test_access_hash_equal;
          Alcotest.test_case "equal = (compare = 0) (seeded)" `Quick
            test_access_equal_compare;
          Alcotest.test_case "equal allocates nothing" `Quick
            test_access_equal_allocation;
          Alcotest.test_case "hash spreads a name grid" `Quick
            test_access_hash_spread;
        ] );
    ]
