let default_ops = [ Access.Read; Access.Write; Access.Execute ]

let choose rng l = List.nth l (Random.State.int rng (List.length l))

let access ?(ops = default_ops) ~resources ~servers rng =
  Access.make ~op:(choose rng ops) ~resource:(choose rng resources)
    ~server:(choose rng servers)

(* Variables are numbered per program, so a program depends only on
   its [Random.State.t], not on what was generated before it. *)
let fresh_var counter =
  incr counter;
  Printf.sprintf "v%d" !counter

(* Loop conditions must terminate when executed, so generated loops use a
   counter variable: i := 0; while i < k do { body; i := i + 1 }. *)
let bounded_loop counter rng body =
  let i = fresh_var counter in
  let k = 1 + Random.State.int rng 3 in
  Ast.Seq
    ( Ast.Assign (i, Expr.Int 0),
      Ast.While
        ( Expr.Binop (Expr.Lt, Expr.Var i, Expr.Int k),
          Ast.Seq
            (body, Ast.Assign (i, Expr.Binop (Expr.Add, Expr.Var i, Expr.Int 1)))
        ) )

(* Channel and signal names come from small fixed sets, so that in a
   coalition of generated programs sends meet receives and raised
   signals release waiters. *)
let channels = [ "c1"; "c2" ]
let signals = [ "g1"; "g2" ]

let io_step counter rng =
  match Random.State.int rng 5 with
  | 0 -> Ast.Assign (fresh_var counter, Expr.Int (Random.State.int rng 100))
  | 1 -> Ast.Send (choose rng channels, Expr.Int (Random.State.int rng 100))
  | 2 -> Ast.Recv (choose rng channels, fresh_var counter)
  | 3 -> Ast.Signal (choose rng signals)
  | _ -> Ast.Wait (choose rng signals)

let rec gen ~counter ~allow_par ~allow_io ~allow_loop ~resources ~servers size
    rng =
  let gen = gen ~counter ~allow_par ~allow_io ~allow_loop ~resources ~servers in
  if size <= 1 then Ast.Access (access ~resources ~servers rng)
  else
    let split = 1 + Random.State.int rng (max 1 (size - 1)) in
    let left () = gen split rng in
    let right () = gen (size - split) rng in
    match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 -> Ast.Seq (left (), right ())
    | 4 | 5 ->
        let c =
          Expr.Binop
            (Expr.Lt, Expr.Int (Random.State.int rng 10), Expr.Int (Random.State.int rng 10))
        in
        Ast.If (c, left (), right ())
    | 6 when allow_par -> Ast.Par (left (), right ())
    | 7 when allow_loop -> bounded_loop counter rng (gen (size - 1) rng)
    | 8 when allow_io ->
        let step = io_step counter rng in
        Ast.Seq (step, right ())
    | _ -> Ast.Seq (left (), right ())

let program ?(allow_par = true) ?(allow_io = false) ~resources ~servers ~size
    rng =
  gen ~counter:(ref 0) ~allow_par ~allow_io ~allow_loop:true ~resources
    ~servers size rng

let loop_free_program ~resources ~servers ~size rng =
  gen ~counter:(ref 0) ~allow_par:true ~allow_io:false ~allow_loop:false
    ~resources ~servers size rng
