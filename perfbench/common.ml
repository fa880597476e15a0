(* Clock, samples and summaries shared by every workload. *)

let now () = Monotonic_clock.now ()
let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)
let secs_since t0 = ns_since t0 /. 1e9

(* The cost of one clock read, which every interval between two reads
   holds: the best of three means over 1000 back-to-back reads. *)
let clock_ns =
  let cost =
    lazy
      (let best = ref infinity in
       for _ = 1 to 3 do
         let t = now () in
         for _ = 1 to 999 do
           ignore (Sys.opaque_identity (now ()))
         done;
         best := Float.min !best (ns_since t /. 1000.)
       done;
       !best)
  in
  fun () -> Lazy.force cost

(* Domains this process has spawned so far.  Every domain takes the
   next id from one counter, so a sentinel domain's id counts those
   spawned before it, itself included. *)
let domains_spawned () = (Domain.join (Domain.spawn Domain.self) :> int)

(* Busy-wait the last stretch: [Unix.sleepf] overshoots by tens of
   microseconds, so sleep only to shortly before [deadline] (ns). *)
let wait_until deadline =
  let remaining = Int64.to_float (Int64.sub deadline (now ())) in
  if remaining > 300_000. then Unix.sleepf ((remaining -. 200_000.) /. 1e9);
  while Int64.compare (now ()) deadline < 0 do
    ()
  done

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

(* A reusable float buffer: one round's latency samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create cap = { data = Array.make (max 1 cap) 0.; len = 0 }
  let clear t = t.len <- 0

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
end

(* Host speed.  On a shared host the same code runs up to ~1.8x slower
   for minutes at a time, on both cores at once, so a run can sit wholly
   inside a slow phase.  A calibration kernel — stdlib OCaml with the
   hashing, allocation and list work the service does, and none of the
   repository's code — is timed before and after each round, and every
   time the round measured is divided by [slowdown]: the kernel's time
   over [reference_ns], its time on the reference host when that host
   is not slowed.  A change to the repository cannot move the kernel. *)
let reference_ns = 220_000.

let kernel () =
  let h = Hashtbl.create 16 in
  for i = 0 to 699 do
    Hashtbl.replace h (string_of_int i) i
  done;
  let sum = ref 0 in
  for i = 0 to 699 do
    sum := !sum + Hashtbl.find h (string_of_int (i * 7 mod 700))
  done;
  let l = List.sort compare (List.init 700 (fun i -> i * 7919 land 4095)) in
  ignore (Sys.opaque_identity (!sum, l))

(* Best of three: an interrupt only ever makes one slower. *)
let calibrate () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t = now () in
    kernel ();
    best := Float.min !best (ns_since t)
  done;
  !best

(* What one round measured.  Latencies are in microseconds. *)
type round = {
  setup_s : float;
  timed_s : float;
  ops : int;  (** requests answered (service) or events processed (emulation) *)
  p50_us : float;
  p99_us : float;
  samples : int;
  live_words : int;  (** after a full major GC, timed-phase state still reachable *)
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
  slowdown : float;  (** the host's, around this round (1 = reference speed) *)
}

let throughput r = float_of_int r.ops /. r.timed_s

(* Minor-heap allocation and collections over a round's timed phases. *)
type gc_acc = { mutable words : float; mutable minors : int; mutable majors : int }

let gc_acc () = { words = 0.; minors = 0; majors = 0 }

(* Runs [f], charging its allocation and collections to [acc]. *)
let gc_charge acc f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  acc.words <- acc.words +. s1.Gc.minor_words -. s0.Gc.minor_words;
  acc.minors <- acc.minors + s1.Gc.minor_collections - s0.Gc.minor_collections;
  acc.majors <- acc.majors + s1.Gc.major_collections - s0.Gc.major_collections;
  r

let round_of ~setup_s ~timed_s ~ops ~samples ~gc ~live_words =
  let xs = Samples.to_array samples in
  {
    setup_s;
    timed_s;
    ops;
    p50_us = quantile xs 0.5;
    p99_us = quantile xs 0.99;
    samples = Array.length xs;
    live_words;
    minor_words = gc.words;
    minor_gcs = gc.minors;
    major_gcs = gc.majors;
    slowdown = 1.;
  }

(* Live words with [keep] still reachable. *)
let live_words keep =
  Gc.full_major ();
  let w = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity keep);
  w

(* The outcome of the correctness gate, accumulated over a run. *)
type gate = {
  mutable attempted : int;
  mutable failed : int;  (** shed, killed, missing, late or differing *)
  mutable mismatched : int;
      (** replies differing from the reference, or missing from a closed
          loop: these fail the run *)
  mutable notes : string list;
}

let gate () = { attempted = 0; failed = 0; mismatched = 0; notes = [] }

let note g fmt = Printf.ksprintf (fun s -> g.notes <- s :: g.notes) fmt

(* Rounds until [seconds] of wall time have passed since [t0] (at
   least two, so a report always has halves to compare). *)
let run_rounds ~t0 ~seconds f =
  let rounds = ref [] and i = ref 0 in
  while !i < 2 || secs_since t0 < seconds do
    let before = calibrate () in
    let r = f !i in
    let after = calibrate () in
    rounds := { r with slowdown = (before +. after) /. (2. *. reference_ns) } :: !rounds;
    incr i
  done;
  List.rev !rounds
