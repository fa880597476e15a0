(* Tests for the Naplet emulation: event queue, channels, signals, the
   agent machine, itineraries and whole-world runs. *)

module Q = Temporal.Q

let q = Q.of_int
let prog = Sral.Parser.program

module Sim = Naplet.Sim

(* --- sim event queue --- *)

(* the earliest (time, payload), or [None] when empty *)
let sim_pop queue =
  if Sim.is_empty queue then None
  else
    let v = Sim.pop queue in
    Some (Sim.now queue, v)

let drain_values queue =
  let rec go acc =
    match sim_pop queue with Some (_, v) -> go (v :: acc) | None -> List.rev acc
  in
  go []

let test_sim_ordering () =
  let late = 3 and early = 1 and mid = 2 in
  let queue = Sim.create () in
  Sim.schedule queue ~time:(q 5) late;
  Sim.schedule queue ~time:(q 1) early;
  Sim.schedule queue ~time:(q 3) mid;
  Alcotest.(check (option string)) "peek" (Some "1")
    (Option.map Q.to_string (Sim.peek_time queue));
  Alcotest.(check (list int)) "time order" [ early; mid; late ]
    (drain_values queue);
  Alcotest.(check bool) "empty" true (Sim.is_empty queue);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Sim.pop: empty queue")
    (fun () -> ignore (Sim.pop queue))

let test_sim_fifo_at_equal_times () =
  let queue = Sim.create () in
  List.iter (fun v -> Sim.schedule queue ~time:(q 2) v) [ 7; 3; 5 ];
  Alcotest.(check (list int)) "insertion order" [ 7; 3; 5 ] (drain_values queue)

let test_sim_interleaved_ops () =
  let queue = Sim.create () in
  for i = 20 downto 1 do
    Sim.schedule queue ~time:(q i) i
  done;
  Alcotest.(check (list int)) "sorted" (List.init 20 (fun i -> i + 1))
    (drain_values queue)

(* [now] is shared while pops repeat a time: no allocation per pop *)
let test_sim_now_reused () =
  let queue = Sim.create () in
  List.iter (fun v -> Sim.schedule queue ~time:(Q.make 3 2) v) [ 1; 2; 3 ];
  Sim.schedule queue ~time:(q 4) 4;
  ignore (Sim.pop queue);
  let first = Sim.now queue in
  Alcotest.(check string) "time" "3/2" (Q.to_string first);
  ignore (Sim.pop queue);
  ignore (Sim.pop queue);
  Alcotest.(check bool) "same value while the time repeats" true
    (Sim.now queue == first);
  ignore (Sim.pop queue);
  Alcotest.(check string) "moves on" "4" (Q.to_string (Sim.now queue))

(* --- sim properties: the bucketed heap against sorted oracles ---

   Seeded via Gen (STACC_TEST_SEED shifts the whole space); failing
   scripts are shrunk with Gen.shrink_list before reporting. *)

(* small rationals with non-trivial denominators, so distinct surface
   forms (1/2 vs 2/4 — Q.make normalizes both to the same key) and
   genuine cross-denominator comparisons both occur *)
let gen_time rng =
  Q.make (Random.State.int rng 8) (1 + Random.State.int rng 4)

(* Heap ordering + FIFO at equal times, in one property: popping
   everything equals a stable sort of the insertions by time. *)
let test_sim_pop_is_stable_sort () =
  Gen.each_seed ~salt:7070 ~count:100 (fun ~seed rng ->
      let n = 50 + Random.State.int rng 150 in
      let entries = List.init n (fun i -> (gen_time rng, i)) in
      let queue = Sim.create () in
      List.iter (fun (t, i) -> Sim.schedule queue ~time:t i) entries;
      let expected =
        List.map snd
          (List.stable_sort (fun (t1, _) (t2, _) -> Q.compare t1 t2) entries)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: stable sort by time" seed)
        expected (drain_values queue))

(* Random scripts against an oracle ordered by (time, schedule order)
   that also checks the popped times themselves.  Besides single
   schedules and pops:
   - [`Burst] schedules enough entries at one time to grow the backing
     arrays, and the pops and clears after it shrink them again;
   - [`Spray] schedules [n] entries at times drawn (from its own seed)
     out of a shared pool, so many distinct times are pending at once
     and equal times arrive from separate ops;
   - [`Drain k] pops [k] entries;
   - [`At_now] schedules at the last popped time: to the back of that
     time's bucket while it drains, or reopening it once it has;
   - [`Before dt] schedules [dt] before the last popped time. *)
type sim_op =
  [ `Pop
  | `Clear
  | `Schedule of Q.t
  | `Burst of int * Q.t
  | `Spray of int * int * Q.t array
  | `Drain of int
  | `At_now
  | `Before of Q.t ]

let pp_sim_op ppf : sim_op -> unit = function
  | `Pop -> Format.pp_print_string ppf "pop"
  | `Clear -> Format.pp_print_string ppf "clear"
  | `Schedule t -> Format.fprintf ppf "schedule %s" (Q.to_string t)
  | `Burst (n, t) -> Format.fprintf ppf "burst %d at %s" n (Q.to_string t)
  | `Spray (n, seed, pool) ->
      Format.fprintf ppf "spray %d over a %d-time pool (seed %d)" n
        (Array.length pool) seed
  | `Drain k -> Format.fprintf ppf "drain %d" k
  | `At_now -> Format.pp_print_string ppf "schedule at now"
  | `Before dt -> Format.fprintf ppf "schedule at now - %s" (Q.to_string dt)

let pp_sim_script ppf script =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_sim_op)
    script

module Pending = Set.Make (struct
  type t = Q.t * int

  let compare (t1, g1) (t2, g2) =
    match Q.compare t1 t2 with 0 -> Int.compare g1 g2 | c -> c
end)

(* How often a script reached each case the buckets treat specially. *)
type sim_cover = {
  mutable onto_draining : int;  (** [`At_now] while its time still has entries *)
  mutable reopened : int;  (** [`At_now] after its time drained *)
  mutable before_now : int;
  mutable clear_mid_drain : int;  (** [`Clear] while the popped time has entries *)
  mutable peak_times : int;  (** most distinct times pending at once *)
}

let sim_cover () =
  { onto_draining = 0; reopened = 0; before_now = 0; clear_mid_drain = 0;
    peak_times = 0 }

let sim_script_disagrees ?(cover = sim_cover ()) (script : sim_op list) =
  let queue = Sim.create () in
  let pending = ref Pending.empty (* the oracle *) in
  (* pending entries per time, for the coverage counts *)
  let per_time = Hashtbl.create 64 in
  let now = ref None in
  let tag = ref 0 in
  let count t = Option.value (Hashtbl.find_opt per_time t) ~default:0 in
  let schedule time =
    incr tag;
    Sim.schedule queue ~time !tag;
    pending := Pending.add (time, !tag) !pending;
    Hashtbl.replace per_time time (count time + 1);
    cover.peak_times <- max cover.peak_times (Hashtbl.length per_time)
  in
  let pop () =
    match (sim_pop queue, Pending.min_elt_opt !pending) with
    | None, None -> None
    | Some (t, v), Some ((bt, bg) as key) when v = bg && Q.equal t bt ->
        pending := Pending.remove key !pending;
        (match count bt with
        | 1 -> Hashtbl.remove per_time bt
        | c -> Hashtbl.replace per_time bt (c - 1));
        now := Some bt;
        None
    | Some (t, v), best ->
        Some
          (Printf.sprintf "popped (%s, #%d), oracle wanted %s" (Q.to_string t)
             v
             (match best with
             | None -> "empty"
             | Some (bt, bg) -> Printf.sprintf "(%s, #%d)" (Q.to_string bt) bg))
    | None, Some (bt, bg) ->
        Some
          (Printf.sprintf "queue empty, oracle still has (%s, #%d)"
             (Q.to_string bt) bg)
  in
  let rec pops k =
    if k = 0 || (Sim.is_empty queue && Pending.is_empty !pending) then None
    else match pop () with None -> pops (k - 1) | e -> e
  in
  let step = function
    | `Schedule time ->
        schedule time;
        None
    | `Burst (n, time) ->
        for _ = 1 to n do
          schedule time
        done;
        None
    | `Spray (n, seed, pool) ->
        let rng = Random.State.make [| seed |] in
        for _ = 1 to n do
          schedule pool.(Random.State.int rng (Array.length pool))
        done;
        None
    | `At_now ->
        let t = Sim.now queue in
        if count t > 0 then cover.onto_draining <- cover.onto_draining + 1
        else if !now <> None then cover.reopened <- cover.reopened + 1;
        schedule t;
        None
    | `Before dt ->
        cover.before_now <- cover.before_now + 1;
        schedule (Q.sub (Sim.now queue) dt);
        None
    | `Clear ->
        (match !now with
        | Some t when count t > 0 ->
            cover.clear_mid_drain <- cover.clear_mid_drain + 1
        | _ -> ());
        Sim.clear queue;
        pending := Pending.empty;
        Hashtbl.reset per_time;
        if Sim.size queue = 0 then None else Some "size after clear is not 0"
    | `Pop -> pop ()
    | `Drain k -> pops k
  in
  List.find_map step script

let check_sim_script ~seed script =
  match sim_script_disagrees script with
  | None -> ()
  | Some msg ->
      Gen.report_minimized ~seed ~what:"sim script" pp_sim_script
        (Gen.shrink_list ~fails:(fun s -> sim_script_disagrees s <> None) script);
      Alcotest.failf "seed %d: sim diverges from oracle: %s" seed msg

let test_sim_interleaving_vs_oracle () =
  Gen.each_seed ~salt:7071 ~count:150 (fun ~seed rng ->
      let n = 10 + Random.State.int rng 60 in
      let script =
        List.init n (fun _ ->
            match Random.State.int rng 28 with
            | 0 -> `Clear
            | 1 | 2 -> `Burst (20 + Random.State.int rng 60, gen_time rng)
            | 3 | 4 -> `At_now
            | 5 -> `Before (Q.make 1 (1 + Random.State.int rng 4))
            | k when k < 12 -> `Pop
            | _ -> `Schedule (gen_time rng))
        (* drain tail: pops over an emptying (and shrinking) heap *)
        @ List.init (n / 2) (fun _ -> `Pop)
      in
      check_sim_script ~seed script)

(* Times spread over 10⁹ with denominators up to 1,000: a pool of up to
   4,000 of them pends at once, so times collide in the queue's index
   and evict each other, and equal times still recur across ops. *)
let gen_wide_time rng =
  Q.make (Random.State.int rng 1_000_000_000) (1 + Random.State.int rng 1_000)

let test_sim_wide_times_vs_oracle () =
  let total = sim_cover () in
  Gen.each_seed ~salt:7073 ~count:40 (fun ~seed rng ->
      let pool = Array.init (100 + Random.State.int rng 3_900) (fun _ -> gen_wide_time rng) in
      let n = 40 + Random.State.int rng 80 in
      let script =
        List.init n (fun _ ->
            match Random.State.int rng 40 with
            | 0 -> `Clear
            | k when k < 8 -> `Spray (1 + Random.State.int rng 800, Random.State.bits rng, pool)
            | k when k < 16 -> `Drain (1 + Random.State.int rng 400)
            | k when k < 24 -> `At_now
            | k when k < 27 -> `Before (Q.make (1 + Random.State.int rng 1_000) 7)
            | k when k < 32 -> `Pop
            | _ -> `Schedule pool.(Random.State.int rng (Array.length pool)))
        @ [ `Drain max_int ]
      in
      let cover = sim_cover () in
      (match sim_script_disagrees ~cover script with
      | None -> ()
      | Some _ -> check_sim_script ~seed script);
      total.onto_draining <- total.onto_draining + cover.onto_draining;
      total.reopened <- total.reopened + cover.reopened;
      total.before_now <- total.before_now + cover.before_now;
      total.clear_mid_drain <- total.clear_mid_drain + cover.clear_mid_drain;
      total.peak_times <- max total.peak_times cover.peak_times);
  Printf.printf
    "onto a draining bucket %d, reopened %d, before now %d, clear mid-drain \
     %d, peak distinct times %d\n"
    total.onto_draining total.reopened total.before_now total.clear_mid_drain
    total.peak_times;
  List.iter
    (fun (what, n) ->
      if n = 0 then Alcotest.failf "no script reached: %s" what)
    [
      ("a schedule onto a draining bucket", total.onto_draining);
      ("a reopened time", total.reopened);
      ("a schedule before now", total.before_now);
      ("a clear mid-drain", total.clear_mid_drain);
    ];
  if total.peak_times < 1_000 then
    Alcotest.failf "at most %d distinct times pending: too few to collide"
      total.peak_times

(* A pop+schedule pair allocates nothing but [now]'s Q.t, 3 words, when
   the popped time differs from the previous pop's.  Three warm queues
   of 10⁴ entries, each pop rescheduling one entry:
   - all at one time, so the time never changes: 0 words per pair;
   - ~400 pending times, ~25 entries each, each pop rescheduling up to
     800 times later: a change every ~25 pops, 0.12 words per pair;
   - distinct times drawn from a pool of 16,384 spread over 10⁹: a
     change on nearly every pop, up to 3 words per pair.
   The times are built before measuring. *)
let test_sim_pair_allocation () =
  let measure ~times ~fill ~next =
    let queue = Sim.create () in
    for i = 0 to 9_999 do
      Sim.schedule queue ~time:times.(fill i) (fill i)
    done;
    let pairs = 100_000 in
    let run () =
      let changes = ref 0 and last = ref (Sim.now queue) in
      let w0 = Gc.minor_words () in
      for k = 1 to pairs do
        let p = Sim.pop queue in
        let t = Sim.now queue in
        if t != !last then begin
          incr changes;
          last := t
        end;
        let p' = next p k in
        Sim.schedule queue ~time:times.(p') p'
      done;
      (Gc.minor_words () -. w0, !changes)
    in
    ignore (run ());
    let words, changes = run () in
    let per_pair x = x /. float_of_int pairs in
    (per_pair words, per_pair (float_of_int changes))
  in
  let rng = Random.State.make [| 7074 |] in
  List.iter
    (fun (name, times, fill, next) ->
      let words, changes = measure ~times ~fill ~next in
      let beyond_now = words -. (3. *. changes) in
      Printf.printf
        "%s: %.3f time changes and %.3f minor words per pair (%.4f beyond \
         now's Q.t)\n"
        name changes words beyond_now;
      (* the two boxed [Gc.minor_words] floats are the only slack *)
      if beyond_now > 0.001 then
        Alcotest.failf "%s: %.4f minor words per pair beyond now's Q.t" name
          beyond_now)
    [
      ("one time", [| Q.make 7 3 |], (fun _ -> 0), fun _ _ -> 0);
      ( "~400 times",
        Array.init 16_384 (fun i -> Q.make (i + 1) 4),
        (fun i -> i mod 400),
        fun p k -> p + 1 + (k mod 800) );
      ( "distinct times",
        Array.init 16_384 (fun _ -> gen_wide_time rng),
        (fun i -> i),
        fun _ k -> (10_000 + k) land 16_383 );
    ]

(* --- channels --- *)

let test_channel_fifo () =
  let channels = Naplet.Channel.create () in
  ignore (Naplet.Channel.send channels ~chan:"c" (Sral.Value.Int 1));
  ignore (Naplet.Channel.send channels ~chan:"c" (Sral.Value.Int 2));
  Alcotest.(check int) "depth" 2 (Naplet.Channel.depth channels ~chan:"c");
  (match Naplet.Channel.try_recv channels ~chan:"c" with
  | Some (Sral.Value.Int 1) -> ()
  | _ -> Alcotest.fail "fifo order");
  Alcotest.(check int) "depth after" 1
    (Naplet.Channel.depth channels ~chan:"c")

let test_channel_waiters () =
  let channels = Naplet.Channel.create () in
  Naplet.Channel.park channels ~chan:"c" { Naplet.Channel.agent = "a1"; thread = 0 };
  Naplet.Channel.park channels ~chan:"c" { Naplet.Channel.agent = "a2"; thread = 1 };
  Alcotest.(check int) "waiting" 2 (Naplet.Channel.waiting channels ~chan:"c");
  let woken = Naplet.Channel.send channels ~chan:"c" (Sral.Value.Int 7) in
  Alcotest.(check int) "all woken" 2 (List.length woken);
  Alcotest.(check string) "fifo wake" "a1"
    (List.hd woken).Naplet.Channel.agent;
  Alcotest.(check int) "cleared" 0 (Naplet.Channel.waiting channels ~chan:"c")

(* --- signals --- *)

let test_signals_sticky () =
  let signals = Naplet.Signal_table.create () in
  Alcotest.(check bool) "not raised" false
    (Naplet.Signal_table.is_raised signals "e");
  ignore (Naplet.Signal_table.raise_signal signals "e");
  Alcotest.(check bool) "raised" true
    (Naplet.Signal_table.is_raised signals "e");
  (* idempotent *)
  ignore (Naplet.Signal_table.raise_signal signals "e");
  Alcotest.(check (list string)) "once" [ "e" ]
    (Naplet.Signal_table.raised signals)

let test_signal_waiters () =
  let signals = Naplet.Signal_table.create () in
  Naplet.Signal_table.park signals "e"
    { Naplet.Signal_table.agent = "a1"; thread = 0 };
  let woken = Naplet.Signal_table.raise_signal signals "e" in
  Alcotest.(check int) "woken" 1 (List.length woken)

(* --- machine --- *)

(* drive a machine to completion, auto-granting accesses; returns the
   access trace *)
let drive machine =
  let rec loop acc guard =
    if guard = 0 then Alcotest.fail "machine did not terminate"
    else
      match Naplet.Machine.step machine with
      | Naplet.Machine.Finished -> List.rev acc
      | Naplet.Machine.Fault msg -> Alcotest.fail ("fault: " ^ msg)
      | Naplet.Machine.All_blocked -> Alcotest.fail "deadlock"
      | Naplet.Machine.Ready { thread; request; _ } -> (
          match request with
          | Naplet.Machine.Access a ->
              Naplet.Machine.complete machine ~thread;
              loop (a :: acc) (guard - 1)
          | Naplet.Machine.Send _ | Naplet.Machine.Signal _ ->
              Naplet.Machine.complete machine ~thread;
              loop acc (guard - 1)
          | Naplet.Machine.Recv (_, var) ->
              Naplet.Machine.complete_recv machine ~thread ~var
                (Sral.Value.Int 0);
              loop acc (guard - 1)
          | Naplet.Machine.Wait _ ->
              Naplet.Machine.complete machine ~thread;
              loop acc (guard - 1))
  in
  loop [] 10_000

let run_accesses program = drive (Naplet.Machine.create program)

let test_machine_sequence () =
  let trace = run_accesses (prog "read a @ s1; write b @ s2; read c @ s1") in
  Alcotest.(check int) "three accesses" 3 (List.length trace);
  Alcotest.(check string) "order" "a"
    (List.hd trace).Sral.Access.resource

let test_machine_branching () =
  let trace =
    run_accesses
      (prog "x := 5; if x > 3 then { read yes @ s1 } else { read no @ s1 }")
  in
  Alcotest.(check (list string)) "then branch" [ "yes" ]
    (List.map (fun (a : Sral.Access.t) -> a.Sral.Access.resource) trace)

let test_machine_loop () =
  let trace =
    run_accesses
      (prog "i := 0; while i < 4 do { read r @ s1; i := i + 1 }")
  in
  Alcotest.(check int) "four iterations" 4 (List.length trace)

let test_machine_par_join () =
  let trace =
    run_accesses
      (prog "{ read a @ s1 || read b @ s1 }; read after @ s1")
  in
  Alcotest.(check int) "all three" 3 (List.length trace);
  (* the join runs strictly after both branches *)
  let last = List.nth trace 2 in
  Alcotest.(check string) "join last" "after" last.Sral.Access.resource

let test_machine_nested_par () =
  let trace =
    run_accesses (prog "{ read a @ s1 || { read b @ s1 || read c @ s1 } }")
  in
  Alcotest.(check int) "three accesses" 3 (List.length trace)

let test_machine_fault_on_unbound () =
  let machine = Naplet.Machine.create (prog "if zz > 0 then { skip } else { skip }") in
  match Naplet.Machine.step machine with
  | Naplet.Machine.Fault msg ->
      Alcotest.(check bool) "mentions variable" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected fault"

let test_machine_divergence_fuel () =
  let machine = Naplet.Machine.create ~fuel:100 (prog "while true do { skip }") in
  match Naplet.Machine.step machine with
  | Naplet.Machine.Fault _ -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_machine_env () =
  let machine = Naplet.Machine.create (prog "x := 2 + 3") in
  (match Naplet.Machine.step machine with
  | Naplet.Machine.Finished -> ()
  | _ -> Alcotest.fail "should finish");
  match Naplet.Machine.env_value machine "x" with
  | Some (Sral.Value.Int 5) -> ()
  | _ -> Alcotest.fail "x should be 5"

(* A fresh machine is its record, one thread and that thread's stack:
   it reads 19 words.  One that also held its variables and joins in
   hash tables read 65. *)
let machine_create_words_budget = 24.

let test_machine_create_allocation () =
  let program = prog "read a @ s1" in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (Sys.opaque_identity (Naplet.Machine.create program))
  done;
  let words = (Gc.minor_words () -. w0) /. 1_000. in
  Printf.printf "Machine.create: %.1f minor words\n" words;
  if words > machine_create_words_budget then
    Alcotest.failf "Machine.create: %.1f minor words, budget %.0f" words
      machine_create_words_budget

(* A silent step with 32 variables bound costs one path copy of the
   environment, not a rebuild of it: it reads ~31 words per step.
   Rebuilding the environment from a table on every step read ~934. *)
let silent_step_words_budget = 40.

let test_machine_silent_step_allocation () =
  let assigns = List.init 32 (fun n -> Printf.sprintf "v%d := %d; " n n) in
  let program =
    prog
      (String.concat "" assigns
      ^ "i := 0; while i < 200 do { i := i + 1 }; read a @ s1")
  in
  let machine = Naplet.Machine.create program in
  let w0 = Gc.minor_words () in
  let steps =
    match Naplet.Machine.step machine with
    | Naplet.Machine.Ready { silent_steps; _ } -> silent_steps
    | _ -> Alcotest.fail "the read should surface"
  in
  let words = (Gc.minor_words () -. w0) /. float_of_int steps in
  Printf.printf "%d silent steps, %.1f minor words per step\n" steps words;
  if words > silent_step_words_budget then
    Alcotest.failf "silent step: %.1f minor words, budget %.0f" words
      silent_step_words_budget

(* --- itineraries --- *)

let test_itinerary_servers_linearize () =
  let it =
    Naplet.Itinerary.Seq
      [
        Naplet.Itinerary.Visit "s1";
        Naplet.Itinerary.Alt
          [ Naplet.Itinerary.Visit "s2"; Naplet.Itinerary.Visit "s3" ];
        Naplet.Itinerary.Par
          [ Naplet.Itinerary.Visit "s4"; Naplet.Itinerary.Visit "s5" ];
      ]
  in
  Alcotest.(check (list string)) "servers" [ "s1"; "s2"; "s3"; "s4"; "s5" ]
    (Naplet.Itinerary.servers it);
  Alcotest.(check (list string)) "default route" [ "s1"; "s2"; "s4"; "s5" ]
    (Naplet.Itinerary.linearize it);
  Alcotest.(check (list string)) "alt route" [ "s1"; "s3"; "s4"; "s5" ]
    (Naplet.Itinerary.linearize ~choose:(fun n -> n - 1) it)

let test_itinerary_to_program () =
  let it =
    Naplet.Itinerary.Seq
      [
        Naplet.Itinerary.Visit "s1";
        Naplet.Itinerary.Par
          [ Naplet.Itinerary.Visit "s2"; Naplet.Itinerary.Visit "s3" ];
      ]
  in
  let task s = Sral.Ast.Access (Sral.Access.read "x" ~at:s) in
  let p = Naplet.Itinerary.to_program ~task it in
  Alcotest.(check bool) "has par" true (Sral.Program.has_par p);
  Alcotest.(check int) "three accesses" 3 (Sral.Program.access_count p)

let test_itinerary_shard () =
  let it =
    Naplet.Itinerary.Seq
      (List.init 6 (fun i -> Naplet.Itinerary.Visit (Printf.sprintf "s%d" i)))
  in
  let shards = Naplet.Itinerary.shard it ~clones:3 in
  Alcotest.(check int) "three shards" 3 (List.length shards);
  let all = List.concat_map Naplet.Itinerary.linearize shards in
  Alcotest.(check int) "covers all servers" 6 (List.length all)

(* --- world --- *)

let permissive_control () =
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "owner";
  Rbac.Policy.add_role policy "worker";
  Rbac.Policy.assign_user policy "owner" "worker";
  Rbac.Policy.grant policy "worker" (Rbac.Perm.make ~operation:"*" ~target:"*@*");
  Coordinated.System.create policy

let world_with_servers servers =
  let world = Naplet.World.create (permissive_control ()) in
  List.iter
    (fun s -> Naplet.World.add_server world (Naplet.Server.create s))
    servers;
  world

let test_world_single_agent () =
  let world = world_with_servers [ "s1"; "s2" ] in
  Naplet.World.spawn world ~id:"a" ~owner:"owner" ~roles:[ "worker" ]
    ~home:"s1" (prog "read x @ s1; read y @ s2; read z @ s1");
  let metrics = Naplet.World.run world in
  Alcotest.(check int) "granted" 3 metrics.Naplet.Metrics.granted;
  Alcotest.(check int) "migrations" 2 metrics.Naplet.Metrics.migrations;
  Alcotest.(check int) "completed" 1 metrics.Naplet.Metrics.completed_agents;
  match Naplet.World.agent world "a" with
  | Some agent ->
      Alcotest.(check bool) "done" true
        (match agent.Naplet.Agent.status with
        | Naplet.Agent.Completed _ -> true
        | _ -> false)
  | None -> Alcotest.fail "agent lost"

(* Enumeration-order regression: [servers] and [agents] walk the state
   tables in registration/spawn order (NOT name order — names here are
   deliberately unsorted), and adding more entries never reorders the
   existing prefix. *)
let test_world_enumeration_order_stable () =
  let world = Naplet.World.create (permissive_control ()) in
  List.iter
    (fun s -> Naplet.World.add_server world (Naplet.Server.create s))
    [ "s2"; "s9"; "s1" ];
  let server_names () =
    List.map Naplet.Server.name (Naplet.World.servers world)
  in
  Alcotest.(check (list string))
    "registration order" [ "s2"; "s9"; "s1" ] (server_names ());
  Naplet.World.add_server world (Naplet.Server.create "s0");
  Alcotest.(check (list string))
    "prefix stable across add" [ "s2"; "s9"; "s1"; "s0" ] (server_names ());
  let spawn id =
    Naplet.World.spawn world ~id ~owner:"owner" ~roles:[ "worker" ] ~home:"s2"
      (prog "skip")
  in
  List.iter spawn [ "zeta"; "mu"; "alpha" ];
  let agent_ids () =
    List.map (fun a -> a.Naplet.Agent.id) (Naplet.World.agents world)
  in
  Alcotest.(check (list string))
    "spawn order" [ "zeta"; "mu"; "alpha" ] (agent_ids ());
  spawn "beta";
  Alcotest.(check (list string))
    "prefix stable across spawn"
    [ "zeta"; "mu"; "alpha"; "beta" ]
    (agent_ids ());
  (* the views stay enumerable in the same order after a run, too *)
  ignore (Naplet.World.run world);
  Alcotest.(check (list string))
    "order survives the run"
    [ "zeta"; "mu"; "alpha"; "beta" ]
    (agent_ids ())

(* The tentpole's safety net, in the tier-1 suite: randomized
   coalitions (teams, channels, fault plans, mid-run admin actions)
   driven through the SoA world and the retained legacy world must
   export byte-identical traces.  The full-width gate lives in the E19
   bench; this keeps a slice of it on every dune runtest.  Widened
   from 12 to 24 seeds as a soak checkpoint — cumulative divergence
   count across the widenings is tracked in EXPERIMENTS.md. *)
let oracle_covered =
  List.map Obs.Trace.fault_name
    Obs.Trace.
      [
        Server_unreachable;
        Migration_failure;
        Channel_drop;
        Channel_delay;
        Channel_duplicate;
        Signal_loss;
        Recv_timeout;
      ]
  @ [ "message_received"; "retry_scheduled"; "gave_up"; "aborted" ]

let covered_kind = function
  | Obs.Trace.Fault_injected { fault; _ } -> Some (Obs.Trace.fault_name fault)
  | Obs.Trace.Message_received _ -> Some "message_received"
  | Obs.Trace.Retry_scheduled _ -> Some "retry_scheduled"
  | Obs.Trace.Gave_up _ -> Some "gave_up"
  | Obs.Trace.Aborted _ -> Some "aborted"
  | _ -> None

(* The comparison only checks the paths its coalitions reach, so the
   same 24 seeds must also reach every fault kind, a received message,
   a retry, a give-up and an abort (the arms World shares between its
   channel, signal, timeout, hop and verdict paths). *)
let test_world_matches_legacy_oracle () =
  let first = 1000 + Gen.offset in
  Alcotest.(check (list int))
    "no divergent seeds" []
    (Scenarios.Scale_family.divergences ~runs:24 first);
  let seen = Hashtbl.create 16 in
  for seed = first to first + 23 do
    let trace, _ = Scenarios.Scale_family.Soa.random_run ~salt:1919 ~seed () in
    match Obs.Export.of_string trace with
    | Error e -> Alcotest.failf "seed %d: trace does not read back: %s" seed e
    | Ok events ->
        List.iter
          (fun ev ->
            Option.iter
              (fun k -> Hashtbl.replace seen k ())
              (covered_kind ev))
          events
  done;
  List.iter
    (fun kind ->
      if not (Hashtbl.mem seen kind) then
        Alcotest.failf "no %s event in seeds %d..%d" kind first (first + 23))
    oracle_covered

(* [World] fetches each agent's monitor once at spawn and decides
   through it.  The handle must be the control's own monitor even when
   [System.arrive] or [System.check] created it before any world
   existed, when two worlds share the control, and when a teammate's
   membership changes after the monitor cached its companions.  The
   courier's write is granted only through the scout's proof (a
   Team-scope binding), and the scout's hop to "s3", a server no world
   registered, runs the access on an interned id with no server slot. *)
let handle_run (module W : Naplet.World_intf.S) =
  let module S = Coordinated.System in
  let control = permissive_control () in
  let manifest = Sral.Access.read "manifest" ~at:"s1" in
  let vault = Sral.Access.write "vault" ~at:"s2" in
  S.add_binding control
    (Coordinated.Perm_binding.make
       ~spatial:(Srac.Formula.Ordered (manifest, vault))
       ~spatial_scope:Coordinated.Perm_binding.Performed
       ~proof_scope:Coordinated.Perm_binding.Team
       (Rbac.Perm.make ~operation:"write" ~target:"vault@s2"));
  let sink, events = Obs.Sink.memory () in
  Obs.Bus.subscribe (S.bus control) sink;
  S.arrive control ~object_id:"scout" ~server:"s1" ~time:Q.zero;
  let session = S.new_session control ~user:"owner" in
  Rbac.Session.activate session "worker";
  ignore
    (S.check control ~session ~object_id:"courier" ~program:(prog "skip")
       ~time:Q.zero (Sral.Access.read "x" ~at:"s2"));
  let world () =
    let w = W.create control in
    List.iter (fun s -> W.add_server w (Naplet.Server.create s)) [ "s1"; "s2" ];
    w
  in
  let w1 = world () and w2 = world () in
  W.spawn ~team:"survey" w1 ~id:"scout" ~owner:"owner" ~roles:[ "worker" ]
    ~home:"s1" (prog "read manifest @ s1; read log @ s3; read log @ s3");
  S.join_team control ~object_id:"courier" ~team:"survey";
  W.spawn w2 ~id:"courier" ~owner:"owner" ~roles:[ "worker" ] ~home:"s2"
    (prog "read y @ s1; write vault @ s2");
  W.spawn w2 ~id:"loner" ~owner:"owner" ~roles:[ "worker" ] ~home:"s2"
    (prog "write vault @ s2");
  ignore (W.run w1);
  ignore (W.run w2);
  let trace = events () in
  List.iter
    (fun id ->
      let granted =
        List.filter_map
          (function
            | Obs.Trace.Decision
                { object_id; access; verdict = Obs.Verdict.Granted; _ }
              when String.equal object_id id ->
                Some access
            | _ -> None)
          trace
      in
      Alcotest.(check string)
        (id ^ ": grants land in the control's monitor")
        (Sral.Trace.to_string granted)
        (Sral.Trace.to_string
           (Coordinated.Monitor.performed (S.monitor control ~object_id:id))))
    [ "scout"; "courier"; "loner" ];
  trace

let test_world_decides_through_handle () =
  let trace = handle_run (module Naplet.World) in
  let verdict id access =
    List.find_map
      (function
        | Obs.Trace.Decision { object_id; access = a; verdict; _ }
          when String.equal object_id id && Sral.Access.equal a access ->
            Some (Coordinated.Decision.is_granted verdict)
        | _ -> None)
      trace
  in
  let vault = Sral.Access.write "vault" ~at:"s2" in
  Alcotest.(check (option bool)) "the courier's write is granted" (Some true)
    (verdict "courier" vault);
  Alcotest.(check (option bool)) "the loner's write is denied" (Some false)
    (verdict "loner" vault);
  Alcotest.(check (option bool)) "the scout reads at the unregistered server"
    (Some true)
    (verdict "scout" (Sral.Access.read "log" ~at:"s3"));
  Alcotest.(check string) "trace = the by-id legacy engine's"
    (Obs.Export.to_string (handle_run (module Naplet.World_legacy)))
    (Obs.Export.to_string trace)

let test_world_producer_consumer () =
  let world = world_with_servers [ "s1" ] in
  Naplet.World.spawn world ~id:"producer" ~owner:"owner" ~roles:[ "worker" ]
    ~home:"s1" (prog "read src @ s1; c ! 42");
  Naplet.World.spawn world ~id:"consumer" ~owner:"owner" ~roles:[ "worker" ]
    ~home:"s1" (prog "c ? v; read sink @ s1");
  let metrics = Naplet.World.run world in
  Alcotest.(check int) "both completed" 2 metrics.Naplet.Metrics.completed_agents;
  Alcotest.(check int) "message passed" 1 metrics.Naplet.Metrics.messages;
  (* consumer got the value *)
  match Naplet.World.agent world "consumer" with
  | Some agent -> (
      match Naplet.Machine.env_value agent.Naplet.Agent.machine "v" with
      | Some (Sral.Value.Int 42) -> ()
      | _ -> Alcotest.fail "value not delivered")
  | None -> Alcotest.fail "consumer lost"

let test_world_signal_ordering () =
  let world = world_with_servers [ "s1" ] in
  let log =
    Coordinated.Audit_log.attach
      (Coordinated.System.bus
         (Naplet.Security_manager.control (Naplet.World.manager world)))
  in
  (* the waiter's access must happen after the signaler's *)
  Naplet.World.spawn world ~id:"waiter" ~owner:"owner" ~roles:[ "worker" ]
    ~home:"s1" (prog "wait(go); read late @ s1");
  Naplet.World.spawn world ~id:"signaler" ~owner:"owner" ~roles:[ "worker" ]
    ~home:"s1" (prog "read early @ s1; signal(go)");
  let metrics = Naplet.World.run world in
  Alcotest.(check int) "both done" 2 metrics.Naplet.Metrics.completed_agents;
  let order =
    List.map
      (fun (e : Coordinated.Audit_log.entry) ->
        e.Coordinated.Audit_log.access.Sral.Access.resource)
      (Coordinated.Audit_log.entries log)
  in
  Alcotest.(check (list string)) "early before late" [ "early"; "late" ] order

let test_world_deadlock_detected () =
  let world = world_with_servers [ "s1" ] in
  Naplet.World.spawn world ~id:"stuck" ~owner:"owner" ~roles:[ "worker" ]
    ~home:"s1" (prog "never ? x");
  let metrics = Naplet.World.run world in
  Alcotest.(check int) "deadlocked" 1 metrics.Naplet.Metrics.deadlocked_agents;
  Alcotest.(check int) "not completed" 0 metrics.Naplet.Metrics.completed_agents

let test_world_denial_policies () =
  (* a policy that denies everything *)
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "owner";
  Rbac.Policy.add_role policy "mute";
  Rbac.Policy.assign_user policy "owner" "mute";
  let control = Coordinated.System.create policy in
  let world = Naplet.World.create control in
  Naplet.World.add_server world (Naplet.Server.create "s1");
  Naplet.World.spawn world ~id:"skipper" ~owner:"owner" ~roles:[ "mute" ]
    ~home:"s1" (prog "read x @ s1; read y @ s1");
  let metrics = Naplet.World.run world in
  Alcotest.(check int) "denied twice" 2 metrics.Naplet.Metrics.denied;
  Alcotest.(check int) "skip policy completes" 1
    metrics.Naplet.Metrics.completed_agents;
  (* abort policy *)
  let config =
    { Naplet.World.default_config with Naplet.World.deny_policy = Naplet.World.Abort_agent }
  in
  let world2 = Naplet.World.create ~config (Coordinated.System.create policy) in
  Naplet.World.add_server world2 (Naplet.Server.create "s1");
  Naplet.World.spawn world2 ~id:"victim" ~owner:"owner" ~roles:[ "mute" ]
    ~home:"s1" (prog "read x @ s1; read y @ s1");
  let metrics2 = Naplet.World.run world2 in
  Alcotest.(check int) "aborted" 1 metrics2.Naplet.Metrics.aborted_agents;
  Alcotest.(check int) "only first denial" 1 metrics2.Naplet.Metrics.denied

let test_world_determinism () =
  let run_once () =
    let world = world_with_servers [ "s1"; "s2" ] in
    List.iter
      (fun i ->
        Naplet.World.spawn world
          ~id:(Printf.sprintf "a%d" i)
          ~owner:"owner" ~roles:[ "worker" ] ~home:"s1"
          (prog "read x @ s1; read y @ s2; c ! 1; c ? z; read w @ s1"))
      [ 1; 2; 3 ];
    let metrics = Naplet.World.run world in
    ( metrics.Naplet.Metrics.granted,
      Q.to_string metrics.Naplet.Metrics.end_time )
  in
  let r1 = run_once () and r2 = run_once () in
  Alcotest.(check (pair int string)) "bit-identical runs" r1 r2

let test_world_spawn_validation () =
  let world = world_with_servers [ "s1" ] in
  Naplet.World.spawn world ~id:"a" ~owner:"owner" ~roles:[] ~home:"s1"
    (prog "skip");
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "World.spawn: duplicate agent id a") (fun () ->
      Naplet.World.spawn world ~id:"a" ~owner:"owner" ~roles:[] ~home:"s1"
        (prog "skip"));
  Alcotest.check_raises "unknown home"
    (Invalid_argument "World.spawn: unknown home server mars") (fun () ->
      Naplet.World.spawn world ~id:"b" ~owner:"owner" ~roles:[] ~home:"mars"
        (prog "skip"))

let test_world_migration_time () =
  let world = world_with_servers [ "s1"; "s2" ] in
  Naplet.World.spawn world ~id:"a" ~owner:"owner" ~roles:[ "worker" ]
    ~home:"s1" (prog "read x @ s2");
  let metrics = Naplet.World.run world in
  (* one migration (5) + one access (1) plus negligible step costs *)
  Alcotest.(check bool) "time >= 6" true
    (Q.ge metrics.Naplet.Metrics.end_time (q 6));
  Alcotest.(check bool) "time < 7" true
    (Q.lt metrics.Naplet.Metrics.end_time (q 7))

(* --- early teardown and abort cleanup --- *)

let test_sim_drain_clear () =
  let queue = Sim.create () in
  List.iter (fun i -> Sim.schedule queue ~time:(q i) i) [ 4; 1; 3; 2 ];
  Alcotest.(check int) "size" 4 (Sim.size queue);
  Alcotest.(check (list int)) "drain pops in time order" [ 1; 2; 3; 4 ]
    (drain_values queue);
  Alcotest.(check int) "size after drain" 0 (Sim.size queue);
  List.iter (fun i -> Sim.schedule queue ~time:(q 5) i) [ 9; 8 ];
  Sim.clear queue;
  Alcotest.(check int) "size after clear" 0 (Sim.size queue);
  Alcotest.(check bool) "empty after clear" true (Sim.is_empty queue);
  (* still usable afterwards, and equal-time entries scheduled after the
     clear keep their schedule order *)
  List.iter (fun i -> Sim.schedule queue ~time:(q 5) i) [ 6; 5; 7 ];
  Alcotest.(check (option string)) "usable after clear" (Some "5")
    (Option.map Q.to_string (Sim.peek_time queue));
  Alcotest.(check (list int)) "fifo across a clear" [ 6; 5; 7 ]
    (drain_values queue)

let test_channel_cancel () =
  let channels = Naplet.Channel.create () in
  let w1 = { Naplet.Channel.agent = "a1"; thread = 0 } in
  let w2 = { Naplet.Channel.agent = "a2"; thread = 0 } in
  Naplet.Channel.park channels ~chan:"c" w1;
  Naplet.Channel.park channels ~chan:"c" w2;
  Naplet.Channel.park channels ~chan:"d" { Naplet.Channel.agent = "a1"; thread = 1 };
  Alcotest.(check bool) "cancel parked" true
    (Naplet.Channel.cancel channels ~chan:"c" w1);
  Alcotest.(check bool) "second cancel is a no-op" false
    (Naplet.Channel.cancel channels ~chan:"c" w1);
  Alcotest.(check int) "other waiter kept" 1
    (Naplet.Channel.waiting channels ~chan:"c");
  Alcotest.(check int) "cancel_agent sweeps all channels" 1
    (Naplet.Channel.cancel_agent channels ~agent:"a1");
  Alcotest.(check int) "d emptied" 0 (Naplet.Channel.waiting channels ~chan:"d")

let test_signal_cancel_agent () =
  let signals = Naplet.Signal_table.create () in
  Naplet.Signal_table.park signals "x" { Naplet.Signal_table.agent = "a1"; thread = 0 };
  Naplet.Signal_table.park signals "y" { Naplet.Signal_table.agent = "a1"; thread = 1 };
  Naplet.Signal_table.park signals "x" { Naplet.Signal_table.agent = "a2"; thread = 0 };
  Alcotest.(check int) "two waiters removed" 2
    (Naplet.Signal_table.cancel_agent signals ~agent:"a1");
  Alcotest.(check int) "a2 still waiting" 1
    (Naplet.Signal_table.waiting signals "x");
  Alcotest.(check int) "y emptied" 0 (Naplet.Signal_table.waiting signals "y")

(* Abort_agent mid-itinerary: the dead agent's parked channel and
   signal waiters are released, and later sends/signals from live
   agents do not try to wake it. *)
let test_world_abort_releases_waiters () =
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "owner";
  Rbac.Policy.add_role policy "mute";
  Rbac.Policy.assign_user policy "owner" "mute";
  let config =
    {
      Naplet.World.default_config with
      Naplet.World.deny_policy = Naplet.World.Abort_agent;
    }
  in
  let world = Naplet.World.create ~config (Coordinated.System.create policy) in
  Naplet.World.add_server world (Naplet.Server.create "s1");
  (* two threads park on a channel and a signal; the third is denied,
     killing the whole agent *)
  Naplet.World.spawn world ~id:"victim" ~owner:"owner" ~roles:[ "mute" ]
    ~home:"s1"
    (prog "{ c ? x } || { wait(go) } || { read secret @ s1 }");
  (* a second agent whose send/signal must not resurrect the victim *)
  Naplet.World.at world ~time:(q 10) (fun () ->
      Naplet.World.spawn world ~id:"bystander" ~owner:"owner" ~roles:[ "mute" ]
        ~home:"s1" (prog "c ! 1; signal(go)"));
  let metrics = Naplet.World.run world in
  Alcotest.(check int) "victim aborted" 1 metrics.Naplet.Metrics.aborted_agents;
  Alcotest.(check int) "bystander completed" 1
    metrics.Naplet.Metrics.completed_agents;
  Alcotest.(check int) "nobody deadlocked" 0
    metrics.Naplet.Metrics.deadlocked_agents;
  Alcotest.(check int) "one denial" 1 metrics.Naplet.Metrics.denied;
  Alcotest.(check int) "no waiter left on c" 0
    (Naplet.Channel.waiting (Naplet.World.channels world) ~chan:"c");
  match Naplet.World.agent world "victim" with
  | Some agent ->
      Alcotest.(check bool) "status is Aborted" true
        (match agent.Naplet.Agent.status with
        | Naplet.Agent.Aborted _ -> true
        | _ -> false)
  | None -> Alcotest.fail "victim lost"

let test_world_halt_tears_down () =
  let world = world_with_servers [ "s1"; "s2" ] in
  Naplet.World.spawn world ~id:"wanderer" ~owner:"owner" ~roles:[ "worker" ]
    ~home:"s1" (prog "read a @ s2; read b @ s1; read c @ s2");
  (* kill the world after the first migration is under way *)
  Naplet.World.at world ~time:(q 6) (fun () -> Naplet.World.halt world);
  let metrics = Naplet.World.run world in
  Alcotest.(check int) "queue empty after halt" 0
    (Naplet.World.pending_events world);
  Alcotest.(check bool) "run wound down early" true
    (Q.le metrics.Naplet.Metrics.end_time (q 6));
  Alcotest.(check bool) "work was cut short" true
    (metrics.Naplet.Metrics.granted < 3)

(* Administrative actions still pending at a [halt] are dropped with
   the queue: they never run, and the world no longer holds them. *)
let test_world_halt_releases_admin () =
  let world = world_with_servers [ "s1" ] in
  Naplet.World.spawn world ~id:"a" ~owner:"owner" ~roles:[ "worker" ]
    ~home:"s1" (prog "read x @ s1; read y @ s1; read z @ s1");
  let ran = ref 0 in
  let parked = Weak.create 2 in
  let park slot time =
    let token = Sys.opaque_identity (Bytes.make 64 'x') in
    Weak.set parked slot (Some token);
    Naplet.World.at world ~time (fun () ->
        incr ran;
        ignore (Bytes.length token))
  in
  park 0 (q 20);
  park 1 (q 30);
  Naplet.World.at world ~time:(Q.make 1 2) (fun () -> Naplet.World.halt world);
  ignore (Naplet.World.run world);
  Gc.full_major ();
  Alcotest.(check int) "no pending action ran" 0 !ran;
  Alcotest.(check int) "queue empty" 0 (Naplet.World.pending_events world);
  Alcotest.(check bool) "pending actions released" false
    (Weak.check parked 0 || Weak.check parked 1)

(* Minor words per event of [World.run] over the E19 uniform coalition
   (2,000 objects on 4 servers, no sink on the bus).  The event queue
   allocates nothing per event; what remains is the machine's status
   and continuation, the decision, the trace events and the rationals
   of new event times.  It reads ~32 (OCaml 5); the engine whose queue
   held boxed payloads read ~65. *)
let world_run_words_budget = 40.

let test_world_run_allocation () =
  let world =
    Scenarios.Scale_family.Soa.build_big ~objects:2_000 ~servers:4 ()
  in
  let w0 = Gc.minor_words () in
  ignore (Naplet.World.run world);
  let events = Naplet.World.processed_events world in
  let words = (Gc.minor_words () -. w0) /. float_of_int events in
  Printf.printf "World.run: %d events, %.1f minor words per event\n" events
    words;
  Alcotest.(check int) "three events per object" 6_000 events;
  if words > world_run_words_budget then
    Alcotest.failf "World.run: %.1f minor words per event, budget %.0f" words
      world_run_words_budget

let test_itinerary_linearize_avoiding () =
  let open Naplet.Itinerary in
  let it =
    Seq [ Visit "s1"; Alt [ Visit "s2"; Visit "s3" ]; Par [ Visit "s4" ] ]
  in
  let route ~down = linearize_avoiding ~down it in
  Alcotest.(check (list string)) "no faults: first alternative"
    [ "s1"; "s2"; "s4" ]
    (route ~down:(fun _ -> false));
  Alcotest.(check (list string)) "down alternative is routed around"
    [ "s1"; "s3"; "s4" ]
    (route ~down:(fun s -> s = "s2"));
  Alcotest.(check (list string)) "down mandatory stop is dropped"
    [ "s2"; "s4" ]
    (route ~down:(fun s -> s = "s1"));
  Alcotest.(check (list string)) "all alternatives down: keep the first"
    [ "s1"; "s2"; "s4" ]
    (route ~down:(fun s -> s = "s2" || s = "s3"))

(* --- event log: the world's lifecycle record is the control's trace --- *)

(* Subscribe a memory sink to the world's bus before it runs. *)
let capture world =
  let sink, events = Obs.Sink.memory () in
  Obs.Bus.subscribe
    (Coordinated.System.bus
       (Naplet.Security_manager.control (Naplet.World.manager world)))
    sink;
  events

(* The agent-lifecycle subset of the trace, by kind; decision spans,
   arrivals and run bookkeeping are not lifecycle. *)
let lifecycle_kind : Obs.Trace.event -> string option = function
  | Obs.Trace.Spawned _ -> Some "spawn"
  | Obs.Trace.Migrated _ -> Some "migrate"
  | Obs.Trace.Decision { verdict = Obs.Verdict.Granted; _ } -> Some "grant"
  | Obs.Trace.Decision { verdict = Obs.Verdict.Denied _; _ } -> Some "deny"
  | Obs.Trace.Message_sent _ -> Some "send"
  | Obs.Trace.Message_received _ -> Some "recv"
  | Obs.Trace.Signal_raised _ -> Some "signal"
  | Obs.Trace.Completed _ -> Some "done"
  | Obs.Trace.Aborted _ -> Some "abort"
  | Obs.Trace.Deadlocked _ -> Some "deadlock"
  | Obs.Trace.Fault_injected _ -> Some "fault"
  | Obs.Trace.Retry_scheduled _ -> Some "retry"
  | Obs.Trace.Gave_up _ -> Some "gave-up"
  | _ -> None

let test_trace_lifecycle_sequence () =
  let world = world_with_servers [ "s1"; "s2" ] in
  let events = capture world in
  Naplet.World.spawn world ~id:"a" ~owner:"owner" ~roles:[ "worker" ]
    ~home:"s1" (prog "read x @ s1; read y @ s2; c ! 1; signal(fin)");
  ignore (Naplet.World.run world);
  Alcotest.(check (list string)) "lifecycle order"
    [ "spawn"; "grant"; "migrate"; "grant"; "send"; "signal"; "done" ]
    (List.filter_map lifecycle_kind (events ()))

let test_trace_denials_recorded () =
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "owner";
  Rbac.Policy.add_role policy "mute";
  Rbac.Policy.assign_user policy "owner" "mute";
  let world = Naplet.World.create (Coordinated.System.create policy) in
  let events = capture world in
  Naplet.World.add_server world (Naplet.Server.create "s1");
  Naplet.World.spawn world ~id:"a" ~owner:"owner" ~roles:[ "mute" ] ~home:"s1"
    (prog "read x @ s1");
  ignore (Naplet.World.run world);
  let reasons =
    List.filter_map
      (function
        | Obs.Trace.Decision { verdict = Obs.Verdict.Denied why; _ } ->
            Some (Format.asprintf "%a" Obs.Verdict.pp_reason why)
        | _ -> None)
      (events ())
  in
  Alcotest.(check int) "one denial event" 1 (List.length reasons);
  Alcotest.(check bool) "the denial carries a reason" true
    (List.for_all (fun why -> String.length why > 0) reasons)

let test_trace_per_agent () =
  let world = world_with_servers [ "s1" ] in
  let events = capture world in
  Naplet.World.spawn world ~id:"a1" ~owner:"owner" ~roles:[ "worker" ]
    ~home:"s1" (prog "read x @ s1");
  Naplet.World.spawn world ~id:"a2" ~owner:"owner" ~roles:[ "worker" ]
    ~home:"s1" (prog "read y @ s1");
  ignore (Naplet.World.run world);
  let lifecycle =
    List.filter (fun ev -> Option.is_some (lifecycle_kind ev)) (events ())
  in
  Alcotest.(check int) "a1 events" 3
    (List.length
       (List.filter (fun ev -> Obs.Trace.subject ev = Some "a1") lifecycle));
  Alcotest.(check int) "total" 6 (List.length lifecycle)

(* --- server contention --- *)

let test_server_reserve_serializes () =
  let srv = Naplet.Server.create "s" in
  let s1, f1 = Naplet.Server.reserve srv ~now:Q.zero in
  let s2, f2 = Naplet.Server.reserve srv ~now:Q.zero in
  Alcotest.(check string) "first starts now" "0" (Q.to_string s1);
  Alcotest.(check string) "first ends at 1" "1" (Q.to_string f1);
  Alcotest.(check string) "second queues" "1" (Q.to_string s2);
  Alcotest.(check string) "second ends at 2" "2" (Q.to_string f2)

let test_server_capacity_parallelism () =
  let srv = Naplet.Server.create ~capacity:2 "s" in
  let s1, _ = Naplet.Server.reserve srv ~now:Q.zero in
  let s2, _ = Naplet.Server.reserve srv ~now:Q.zero in
  let s3, _ = Naplet.Server.reserve srv ~now:Q.zero in
  Alcotest.(check string) "slot 1 now" "0" (Q.to_string s1);
  Alcotest.(check string) "slot 2 now" "0" (Q.to_string s2);
  Alcotest.(check string) "third queues" "1" (Q.to_string s3);
  (* after the backlog clears, requests start immediately again *)
  let s4, _ = Naplet.Server.reserve srv ~now:(q 10) in
  Alcotest.(check string) "idle later" "10" (Q.to_string s4)

let test_world_contention_serializes_agents () =
  (* 4 agents, one single-slot server: the sim time reflects queueing *)
  let world = world_with_servers [ "s1" ] in
  for i = 1 to 4 do
    Naplet.World.spawn world
      ~id:(Printf.sprintf "a%d" i)
      ~owner:"owner" ~roles:[ "worker" ] ~home:"s1" (prog "read x @ s1")
  done;
  let metrics = Naplet.World.run world in
  Alcotest.(check int) "all granted" 4 metrics.Naplet.Metrics.granted;
  (* 4 sequential services of 1 unit each *)
  Alcotest.(check bool) "time >= 4" true
    (Q.ge metrics.Naplet.Metrics.end_time (q 4))

let test_world_capacity_speeds_up () =
  let run capacity =
    let world = world_with_servers [] in
    Naplet.World.add_server world (Naplet.Server.create ~capacity "s1");
    for i = 1 to 4 do
      Naplet.World.spawn world
        ~id:(Printf.sprintf "a%d" i)
        ~owner:"owner" ~roles:[ "worker" ] ~home:"s1" (prog "read x @ s1")
    done;
    (Naplet.World.run world).Naplet.Metrics.end_time
  in
  Alcotest.(check bool) "capacity 4 faster than capacity 1" true
    (Q.lt (run 4) (run 1))

(* --- administrative events --- *)

let test_admin_event_revokes_role () =
  let world = world_with_servers [ "s1" ] in
  (* agent does 5 spaced reads; at t=2.5 the officer deactivates its
     role, so later reads are denied *)
  Naplet.World.spawn world ~id:"steady" ~owner:"owner" ~roles:[ "worker" ]
    ~home:"s1"
    (prog "read a @ s1; read b @ s1; read c @ s1; read d @ s1; read e @ s1");
  Naplet.World.at world ~time:(Q.make 5 2) (fun () ->
      match
        Naplet.Security_manager.session
          (Naplet.World.manager world)
          ~object_id:"steady"
      with
      | Some session -> Rbac.Session.deactivate session "worker"
      | None -> ());
  let metrics = Naplet.World.run world in
  (* accesses land at t=0,1,2,3,4 (1 unit service each): three granted
     before the revocation, two denied after *)
  Alcotest.(check int) "granted before revocation" 3
    metrics.Naplet.Metrics.granted;
  Alcotest.(check int) "denied after" 2 metrics.Naplet.Metrics.denied

(* --- state appraisal --- *)

let test_appraisal_basics () =
  let a = Naplet.Appraisal.create () in
  Naplet.Appraisal.var_bounds ~name:"hops" ~var:"hops" ~min:0 ~max:5 a;
  Naplet.Appraisal.var_is_bool ~name:"flag" ~var:"armed" a;
  Alcotest.(check int) "two invariants" 2 (Naplet.Appraisal.invariant_count a);
  let lookup_ok = function
    | "hops" -> Some (Sral.Value.Int 3)
    | "armed" -> Some (Sral.Value.Bool false)
    | _ -> None
  in
  Alcotest.(check bool) "sound" true
    (Naplet.Appraisal.appraise a lookup_ok = Naplet.Appraisal.Sound);
  let lookup_bad = function
    | "hops" -> Some (Sral.Value.Int 99)
    | _ -> None
  in
  (match Naplet.Appraisal.appraise a lookup_bad with
  | Naplet.Appraisal.Corrupted "hops" -> ()
  | _ -> Alcotest.fail "expected hops violation");
  (* unbound variables pass *)
  Alcotest.(check bool) "unbound passes" true
    (Naplet.Appraisal.appraise a (fun _ -> None) = Naplet.Appraisal.Sound)

let test_appraisal_raising_invariant_fails () =
  let a = Naplet.Appraisal.create () in
  Naplet.Appraisal.add_invariant a ~name:"boom" (fun _ -> failwith "oops");
  match Naplet.Appraisal.appraise a (fun _ -> None) with
  | Naplet.Appraisal.Corrupted "boom" -> ()
  | _ -> Alcotest.fail "raising invariant must count as failed"

let test_appraisal_quarantines_corrupted_agent () =
  let world = world_with_servers [ "s1"; "s2" ] in
  let appraisal = Naplet.Appraisal.create () in
  Naplet.Appraisal.var_bounds ~name:"payload-size" ~var:"payload" ~min:0
    ~max:100 appraisal;
  Naplet.World.set_appraisal world appraisal;
  (* the agent corrupts its own state before migrating *)
  Naplet.World.spawn world ~id:"mule" ~owner:"owner" ~roles:[ "worker" ]
    ~home:"s1"
    (prog "read ok @ s1; payload := 100000; read target @ s2");
  let metrics = Naplet.World.run world in
  Alcotest.(check int) "first access fine" 1 metrics.Naplet.Metrics.granted;
  Alcotest.(check int) "aborted at arrival" 1
    metrics.Naplet.Metrics.aborted_agents;
  match Naplet.World.agent world "mule" with
  | Some { Naplet.Agent.status = Naplet.Agent.Aborted why; _ } ->
      Alcotest.(check bool) "reason names the invariant" true
        (String.length why > 0)
  | _ -> Alcotest.fail "agent should be aborted"

let test_appraisal_sound_agent_unaffected () =
  let world = world_with_servers [ "s1"; "s2" ] in
  let appraisal = Naplet.Appraisal.create () in
  Naplet.Appraisal.var_bounds ~name:"payload-size" ~var:"payload" ~min:0
    ~max:100 appraisal;
  Naplet.World.set_appraisal world appraisal;
  Naplet.World.spawn world ~id:"honest" ~owner:"owner" ~roles:[ "worker" ]
    ~home:"s1" (prog "payload := 7; read a @ s1; read b @ s2");
  let metrics = Naplet.World.run world in
  Alcotest.(check int) "completed" 1 metrics.Naplet.Metrics.completed_agents;
  Alcotest.(check int) "both granted" 2 metrics.Naplet.Metrics.granted

(* --- machine vs big-step evaluator (differential) --- *)

(* Sequential programs: the machine surfaces the big-step evaluator's
   access trace and ends with its variables. *)
let test_machine_matches_bigstep () =
  let compared = ref 0 in
  Gen.each_seed ~salt:7072 ~count:100 (fun ~seed:_ rng ->
      let p =
        Sral.Generate.program ~allow_par:false ~allow_io:false
          ~resources:[ "a"; "b" ] ~servers:[ "s1"; "s2" ] ~size:8 rng
      in
      match Sral.Eval.run p with
      | Error _ -> ()
      | Ok { Sral.Eval.trace = expected; env } ->
          incr compared;
          let machine = Naplet.Machine.create p in
          if not (Sral.Trace.equal expected (drive machine)) then
            Alcotest.failf "trace differs on %s" (Sral.Pretty.to_string p);
          List.iter
            (fun (x, v) ->
              match Naplet.Machine.env_value machine x with
              | Some v' when Sral.Value.equal v v' -> ()
              | _ ->
                  Alcotest.failf "%s differs on %s" x (Sral.Pretty.to_string p))
            (Sral.Env.bindings env));
  Alcotest.(check bool) "most programs run to the end" true (!compared > 50)

(* --- clones (ApplAgentProg) --- *)

let test_clone_plan_shares () =
  let accesses =
    List.init 7 (fun i -> Sral.Access.read (Printf.sprintf "m%d" i) ~at:"s1")
  in
  let clones = Naplet.Clone.plan ~team:"audit" ~clones:3 accesses in
  Alcotest.(check int) "three clones" 3 (List.length clones);
  (* shares cover everything, in order, without overlap *)
  let all = List.concat_map (fun c -> c.Naplet.Clone.share) clones in
  Alcotest.(check int) "coverage" 7 (List.length all);
  Alcotest.(check bool) "order preserved" true
    (List.for_all2 Sral.Access.equal accesses all);
  List.iter
    (fun c ->
      Alcotest.(check string) "team" "audit" c.Naplet.Clone.team)
    clones

let test_clone_more_clones_than_work () =
  let accesses = [ Sral.Access.read "only" ~at:"s1" ] in
  let clones = Naplet.Clone.plan ~team:"t" ~clones:5 accesses in
  Alcotest.(check int) "one non-empty clone" 1 (List.length clones)

let test_clone_end_to_end () =
  let world = world_with_servers [ "s1"; "s2" ] in
  let accesses =
    [
      Sral.Access.read "a" ~at:"s1";
      Sral.Access.read "b" ~at:"s2";
      Sral.Access.read "c" ~at:"s1";
      Sral.Access.read "d" ~at:"s2";
    ]
  in
  let clones = Naplet.Clone.plan ~team:"crew" ~clones:2 accesses in
  Naplet.Clone.spawn_all world ~owner:"owner" ~roles:[ "worker" ] ~home:"s1"
    clones;
  Naplet.World.spawn world ~team:"crew" ~id:"crew-home" ~owner:"owner"
    ~roles:[] ~home:"s1"
    (Naplet.Clone.collector_program ~team:"crew" (List.length clones));
  let metrics = Naplet.World.run world in
  Alcotest.(check int) "all accesses granted" 4 metrics.Naplet.Metrics.granted;
  Alcotest.(check int) "all agents complete" 3
    metrics.Naplet.Metrics.completed_agents;
  (* the collector summed both reports *)
  match Naplet.World.agent world "crew-home" with
  | Some agent -> (
      match Naplet.Machine.env_value agent.Naplet.Agent.machine "total" with
      | Some (Sral.Value.Int total) ->
          Alcotest.(check int) "reported completions" 4 total
      | _ -> Alcotest.fail "collector total missing")
  | None -> Alcotest.fail "collector lost"

let test_clone_guard_skips () =
  let world = world_with_servers [ "s1" ] in
  let accesses = List.init 3 (fun i -> Sral.Access.read (Printf.sprintf "g%d" i) ~at:"s1") in
  (* a guard that is false skips every access *)
  let clones =
    Naplet.Clone.plan ~guard:(Sral.Expr.Bool false) ~team:"idle" ~clones:1
      accesses
  in
  Naplet.Clone.spawn_all world ~owner:"owner" ~roles:[ "worker" ] ~home:"s1"
    clones;
  Naplet.World.spawn world ~team:"idle" ~id:"idle-home" ~owner:"owner"
    ~roles:[] ~home:"s1" (Naplet.Clone.collector_program ~team:"idle" 1);
  let metrics = Naplet.World.run world in
  Alcotest.(check int) "nothing accessed" 0 metrics.Naplet.Metrics.granted;
  match Naplet.World.agent world "idle-home" with
  | Some agent -> (
      match Naplet.Machine.env_value agent.Naplet.Agent.machine "total" with
      | Some (Sral.Value.Int 0) -> ()
      | _ -> Alcotest.fail "guarded-out accesses must not count")
  | None -> Alcotest.fail "collector lost"

(* --- security manager: rejected role activations are observable --- *)

let test_on_arrival_reports_rejections () =
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "owner";
  List.iter (Rbac.Policy.add_role policy) [ "worker"; "pilot"; "navigator" ];
  Rbac.Policy.assign_user policy "owner" "worker";
  Rbac.Policy.assign_user policy "owner" "pilot";
  Rbac.Policy.assign_user policy "owner" "navigator";
  (* pilot and navigator conflict dynamically: at most one active *)
  Rbac.Policy.add_dsd policy
    (Rbac.Sod.make ~name:"cockpit" ~roles:[ "pilot"; "navigator" ] ~max_roles:1);
  let manager =
    Naplet.Security_manager.create (Coordinated.System.create policy)
  in
  let session, rejected =
    Naplet.Security_manager.on_arrival manager ~object_id:"o" ~owner:"owner"
      ~roles:[ "worker"; "ghost"; "pilot"; "navigator" ]
      ~server:"s1" ~time:Q.zero ~program:(prog "skip")
  in
  Alcotest.(check (list string)) "activated what it could"
    [ "pilot"; "worker" ]
    (Rbac.Session.active_roles session);
  Alcotest.(check (list string)) "rejections in request order"
    [ "ghost"; "navigator" ]
    (List.map
       (fun (r : Naplet.Security_manager.rejected_role) -> r.role)
       rejected);
  List.iter
    (fun (r : Naplet.Security_manager.rejected_role) ->
      Alcotest.(check bool)
        (Printf.sprintf "reason for %s is non-empty" r.role)
        true
        (String.length r.reason > 0))
    rejected;
  (* the DSD rejection names the constraint *)
  let dsd_reason =
    (List.find
       (fun (r : Naplet.Security_manager.rejected_role) ->
         String.equal r.role "navigator")
       rejected)
      .reason
  in
  Alcotest.(check bool) "dsd reason mentions the sod" true
    (String.length dsd_reason > String.length "dynamic SoD")

let test_on_arrival_no_rejections () =
  let manager = Naplet.Security_manager.create (permissive_control ()) in
  let _session, rejected =
    Naplet.Security_manager.on_arrival manager ~object_id:"o" ~owner:"owner"
      ~roles:[ "worker" ] ~server:"s1" ~time:Q.zero ~program:(prog "skip")
  in
  Alcotest.(check int) "nothing rejected" 0 (List.length rejected);
  (* re-arrival reuses the session and re-activating is idempotent *)
  let session2, rejected2 =
    Naplet.Security_manager.on_arrival manager ~object_id:"o" ~owner:"owner"
      ~roles:[ "worker" ] ~server:"s2" ~time:(q 1) ~program:(prog "skip")
  in
  Alcotest.(check int) "still nothing rejected" 0 (List.length rejected2);
  Alcotest.(check (list string)) "roles stable" [ "worker" ]
    (Rbac.Session.active_roles session2)

let () =
  Alcotest.run "naplet"
    [
      ( "sim",
        [
          Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "fifo ties" `Quick test_sim_fifo_at_equal_times;
          Alcotest.test_case "many events" `Quick test_sim_interleaved_ops;
          Alcotest.test_case "now reused while the time repeats" `Quick
            test_sim_now_reused;
          Alcotest.test_case "drain and clear" `Quick test_sim_drain_clear;
          Alcotest.test_case "pop is a stable sort (seeded)" `Quick
            test_sim_pop_is_stable_sort;
          Alcotest.test_case "interleavings match oracle (seeded)" `Quick
            test_sim_interleaving_vs_oracle;
          Alcotest.test_case "wide-spread times match oracle (seeded)" `Quick
            test_sim_wide_times_vs_oracle;
          Alcotest.test_case "pop+schedule allocation" `Quick
            test_sim_pair_allocation;
        ] );
      ( "channel",
        [
          Alcotest.test_case "fifo" `Quick test_channel_fifo;
          Alcotest.test_case "waiters" `Quick test_channel_waiters;
          Alcotest.test_case "cancel" `Quick test_channel_cancel;
        ] );
      ( "signal",
        [
          Alcotest.test_case "sticky" `Quick test_signals_sticky;
          Alcotest.test_case "waiters" `Quick test_signal_waiters;
          Alcotest.test_case "cancel agent" `Quick test_signal_cancel_agent;
        ] );
      ( "machine",
        [
          Alcotest.test_case "sequence" `Quick test_machine_sequence;
          Alcotest.test_case "branching" `Quick test_machine_branching;
          Alcotest.test_case "loop" `Quick test_machine_loop;
          Alcotest.test_case "par join" `Quick test_machine_par_join;
          Alcotest.test_case "nested par" `Quick test_machine_nested_par;
          Alcotest.test_case "fault" `Quick test_machine_fault_on_unbound;
          Alcotest.test_case "divergence fuel" `Quick
            test_machine_divergence_fuel;
          Alcotest.test_case "env" `Quick test_machine_env;
          Alcotest.test_case "create allocation" `Quick
            test_machine_create_allocation;
          Alcotest.test_case "silent step allocation" `Quick
            test_machine_silent_step_allocation;
        ] );
      ( "itinerary",
        [
          Alcotest.test_case "servers/linearize" `Quick
            test_itinerary_servers_linearize;
          Alcotest.test_case "to_program" `Quick test_itinerary_to_program;
          Alcotest.test_case "shard" `Quick test_itinerary_shard;
          Alcotest.test_case "linearize avoiding" `Quick
            test_itinerary_linearize_avoiding;
        ] );
      ( "event-log",
        [
          Alcotest.test_case "lifecycle sequence" `Quick
            test_trace_lifecycle_sequence;
          Alcotest.test_case "denials recorded" `Quick
            test_trace_denials_recorded;
          Alcotest.test_case "per agent" `Quick test_trace_per_agent;
        ] );
      ( "contention",
        [
          Alcotest.test_case "reserve serializes" `Quick
            test_server_reserve_serializes;
          Alcotest.test_case "capacity parallelism" `Quick
            test_server_capacity_parallelism;
          Alcotest.test_case "world serializes" `Quick
            test_world_contention_serializes_agents;
          Alcotest.test_case "capacity speeds up" `Quick
            test_world_capacity_speeds_up;
        ] );
      ( "admin",
        [
          Alcotest.test_case "role revocation mid-run" `Quick
            test_admin_event_revokes_role;
        ] );
      ( "security-manager",
        [
          Alcotest.test_case "rejected roles reported" `Quick
            test_on_arrival_reports_rejections;
          Alcotest.test_case "clean arrival rejects nothing" `Quick
            test_on_arrival_no_rejections;
        ] );
      ( "appraisal",
        [
          Alcotest.test_case "basics" `Quick test_appraisal_basics;
          Alcotest.test_case "raising invariant" `Quick
            test_appraisal_raising_invariant_fails;
          Alcotest.test_case "quarantines corrupted" `Quick
            test_appraisal_quarantines_corrupted_agent;
          Alcotest.test_case "sound agent unaffected" `Quick
            test_appraisal_sound_agent_unaffected;
        ] );
      ( "differential",
        [
          Alcotest.test_case
            "machine trace = big-step trace (sequential programs)" `Quick
            test_machine_matches_bigstep;
        ] );
      ( "clone",
        [
          Alcotest.test_case "plan shares" `Quick test_clone_plan_shares;
          Alcotest.test_case "more clones than work" `Quick
            test_clone_more_clones_than_work;
          Alcotest.test_case "end to end" `Quick test_clone_end_to_end;
          Alcotest.test_case "guard skips" `Quick test_clone_guard_skips;
        ] );
      ( "world",
        [
          Alcotest.test_case "single agent" `Quick test_world_single_agent;
          Alcotest.test_case "producer/consumer" `Quick
            test_world_producer_consumer;
          Alcotest.test_case "signal ordering" `Quick test_world_signal_ordering;
          Alcotest.test_case "deadlock" `Quick test_world_deadlock_detected;
          Alcotest.test_case "denial policies" `Quick test_world_denial_policies;
          Alcotest.test_case "determinism" `Quick test_world_determinism;
          Alcotest.test_case "spawn validation" `Quick
            test_world_spawn_validation;
          Alcotest.test_case "migration time" `Quick test_world_migration_time;
          Alcotest.test_case "abort releases waiters" `Quick
            test_world_abort_releases_waiters;
          Alcotest.test_case "halt tears down" `Quick
            test_world_halt_tears_down;
          Alcotest.test_case "halt releases pending admin actions" `Quick
            test_world_halt_releases_admin;
          Alcotest.test_case "run allocation per event" `Quick
            test_world_run_allocation;
          Alcotest.test_case "decides through the spawn-time monitor" `Quick
            test_world_decides_through_handle;
          Alcotest.test_case "enumeration order stable" `Quick
            test_world_enumeration_order_stable;
          Alcotest.test_case "SoA = legacy oracle (seeded)" `Slow
            test_world_matches_legacy_oracle;
        ] );
    ]
