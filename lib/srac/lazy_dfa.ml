(* Lazy subset construction over Brzozowski derivative residuals.

   A machine is a growable DFA whose states are *simplified residual
   formulas* ({!Derivative.after} images of the source constraint) and
   whose alphabet is an arena of interned accesses: the constraint's
   own accesses plus every access the monitored object performs.
   Nothing is compiled up front — a transition is materialized the
   first time some trace actually takes it, and from then on stepping
   is two array reads.  The steady-state decision path therefore
   allocates nothing: arrays are preallocated and grown geometrically,
   symbol lookup uses a no-option hashtable probe, and verdict
   (nullability) and feasibility are cached per state.

   Equivalence with the eager oracle (`Compile.dfa` / `Trace_sat.sat` /
   `Program_sat.prefix_feasible`) is property-tested in test_srac and
   differentially fuzzed through the full decision procedure in
   test_fuzz. *)

module Formula_tbl = Hashtbl.Make (struct
  type t = Formula.t

  let equal = Formula.equal
  let hash = Hashtbl.hash
end)

type t = {
  mutable syms : Sral.Access.t array;  (* symbol id -> access *)
  sym_ids : int Sral.Access.Tbl.t;  (* access -> symbol id *)
  mutable sym_count : int;
  mutable states : Formula.t array;  (* state id -> residual *)
  mutable null : bool array;  (* satisfied-by-empty-extension flag *)
  state_ids : int Formula_tbl.t;  (* residual -> state id *)
  mutable state_count : int;
  mutable rows : int array array;  (* state -> symbol -> state; -1 = lazy *)
  mutable feas : int array;  (* -1 unknown / 0 infeasible / 1 feasible *)
  mutable feas_stamp : int array;  (* arena size when feas was recorded *)
  mutable gen : int array;  (* search-visited generation marks *)
  mutable cur_gen : int;
  mutable materialized : int;  (* transitions materialized so far *)
}

(* Residual state spaces are finite for constraints whose simplified
   derivatives close up (the n-ary {!Simplify} canonicalization
   guarantees this for the SRAC connectives), but they can still be
   huge (wide cardinality windows multiply), and a non-canonical corner
   would otherwise grow states without bound — stop at the cap instead
   of consuming the heap. *)
let max_states = 1 lsl 16

exception State_limit

let dummy_access = Sral.Access.read "" ~at:""

let grow_array a len fill =
  let a' = Array.make len fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let intern_sym m a =
  match Sral.Access.Tbl.find m.sym_ids a with
  | id -> id
  | exception Not_found ->
      let id = m.sym_count in
      if id = Array.length m.syms then
        m.syms <- grow_array m.syms (2 * id) dummy_access;
      m.syms.(id) <- a;
      Sral.Access.Tbl.add m.sym_ids a id;
      m.sym_count <- id + 1;
      id

let find_sym m a =
  match Sral.Access.Tbl.find m.sym_ids a with
  | id -> id
  | exception Not_found -> -1

let intern_state m f =
  match Formula_tbl.find m.state_ids f with
  | id -> id
  | exception Not_found ->
      let id = m.state_count in
      if id >= max_states then raise State_limit;
      if id = Array.length m.states then begin
        let len = 2 * id in
        m.states <- grow_array m.states len Formula.True;
        m.null <- grow_array m.null len false;
        m.rows <- grow_array m.rows len [||];
        m.feas <- grow_array m.feas len (-1);
        m.feas_stamp <- grow_array m.feas_stamp len 0;
        m.gen <- grow_array m.gen len 0
      end;
      m.states.(id) <- f;
      m.null.(id) <- Derivative.satisfied_by_empty f;
      m.rows.(id) <- Array.make (max 4 m.sym_count) (-1);
      m.feas.(id) <- -1;
      m.feas_stamp.(id) <- 0;
      m.gen.(id) <- 0;
      Formula_tbl.add m.state_ids f id;
      m.state_count <- id + 1;
      id

let create c =
  let m =
    {
      syms = Array.make 4 dummy_access;
      sym_ids = Sral.Access.Tbl.create 16;
      sym_count = 0;
      states = Array.make 8 Formula.True;
      null = Array.make 8 false;
      state_ids = Formula_tbl.create 16;
      state_count = 0;
      rows = Array.make 8 [||];
      feas = Array.make 8 (-1);
      feas_stamp = Array.make 8 0;
      gen = Array.make 8 0;
      cur_gen = 0;
      materialized = 0;
    }
  in
  (* intern the *raw* formula's accesses: the eager feasibility oracle
     builds its alphabet from [Formula.accesses c] before
     simplification, and simplification may drop accesses that still
     matter to cardinality selectors *)
  List.iter (fun a -> ignore (intern_sym m a)) (Formula.accesses c);
  ignore (intern_state m (Simplify.simplify c));
  m

let start _ = 0
let nullable m q = m.null.(q)
let residual m q = m.states.(q)
let num_states m = m.state_count
let num_symbols m = m.sym_count
let transitions m = m.materialized

let materialize m q s =
  let row = m.rows.(q) in
  let row =
    if s < Array.length row then row
    else begin
      let row' = grow_array row (max (2 * Array.length row) (s + 1)) (-1) in
      m.rows.(q) <- row';
      row'
    end
  in
  let tgt = intern_state m (Derivative.after m.states.(q) m.syms.(s)) in
  row.(s) <- tgt;
  m.materialized <- m.materialized + 1;
  tgt

let step m q s =
  let row = m.rows.(q) in
  if s < Array.length row then begin
    let tgt = Array.unsafe_get row s in
    if tgt >= 0 then tgt else materialize m q s
  end
  else materialize m q s

let step_access m q a = step m q (intern_sym m a)

let nullable_after m q a =
  let s = find_sym m a in
  if s >= 0 then m.null.(step m q s)
  else
    (* an access outside the arena (a denied or not-yet-performed
       query) must not pollute the alphabet: derive directly without
       interning.  Cold path; allocates. *)
    Derivative.satisfied_by_empty (Derivative.after m.states.(q) a)

(* Is any nullable residual reachable from [q] over the current
   alphabet?  Mirrors [Program_sat.prefix_feasible]'s
   final-state-reachability over the same symbol set.  A [true] answer
   is stable under arena growth (more symbols only add words); [false]
   is stamped with the arena size and recomputed if the arena has
   grown since. *)
let search m q =
  m.cur_gen <- m.cur_gen + 1;
  let g = m.cur_gen in
  let n_syms = m.sym_count in
  (* derivatives introduce no fresh accesses, so the alphabet is fixed
     during the search even though new states may be interned *)
  let visited = ref [] in
  let stack = ref [ q ] in
  m.gen.(q) <- g;
  let found = ref false in
  while (not !found) && !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
        stack := rest;
        visited := v :: !visited;
        if m.null.(v) || m.feas.(v) = 1 then found := true
        else if m.feas.(v) = 0 && m.feas_stamp.(v) = n_syms then
          () (* known dead end at this alphabet: don't expand *)
        else
          for s = 0 to n_syms - 1 do
            let t = step m v s in
            if m.gen.(t) <> g then begin
              m.gen.(t) <- g;
              stack := t :: !stack
            end
          done
  done;
  if !found then begin
    m.feas.(q) <- 1;
    true
  end
  else begin
    (* everything reachable from any visited state was explored, so
       the whole visited set is infeasible at this alphabet *)
    List.iter
      (fun v ->
        m.feas.(v) <- 0;
        m.feas_stamp.(v) <- n_syms)
      !visited;
    false
  end

let feasible m q =
  if m.null.(q) then true
  else if m.feas.(q) = 1 then true
  else if m.feas.(q) = 0 && m.feas_stamp.(q) = m.sym_count then false
  else search m q
