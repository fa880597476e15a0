module Q = Temporal.Q

(* Binary min-heap on (time, seq); seq gives FIFO order at equal times.

   Entry [i] is the four ints at [h.(4i) .. h.(4i+3)]:
   (num, den, seq, payload) — the rational time's normalized numerator
   and denominator, the insertion sequence number and the payload.
   With no pointers in the heap a 10^4-entry queue steps without the
   write barrier, and sifting moves a hole (one entry written per
   level) instead of swapping.  The sift loops index with
   [unsafe_get]/[unsafe_set]: every index they form is below [4 * size],
   and [size] never exceeds the array's capacity. *)
type t = {
  mutable h : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable now : Q.t;  (* time of the last pop, reused while it repeats *)
}

let stride = 4
let create () = { h = [||]; size = 0; next_seq = 0; now = Q.zero }

(* Q keeps [den > 0], so cross-multiplication is an exact comparison
   (same overflow caveat as [Q.compare] itself). *)
let[@inline] before n1 d1 s1 n2 d2 s2 =
  let l = n1 * d2 and r = n2 * d1 in
  if l <> r then l < r else s1 < s2

let[@inline] put h i n d s p =
  let b = stride * i in
  Array.unsafe_set h b n;
  Array.unsafe_set h (b + 1) d;
  Array.unsafe_set h (b + 2) s;
  Array.unsafe_set h (b + 3) p

(* Fill the hole at [i] with (n, d, s, p), moving parents down past it. *)
let rec sift_up h i n d s p =
  if i = 0 then put h 0 n d s p
  else begin
    let parent = (i - 1) / 2 in
    let b = stride * parent in
    let pn = Array.unsafe_get h b
    and pd = Array.unsafe_get h (b + 1)
    and ps = Array.unsafe_get h (b + 2) in
    if before n d s pn pd ps then begin
      put h i pn pd ps (Array.unsafe_get h (b + 3));
      sift_up h parent n d s p
    end
    else put h i n d s p
  end

(* Fill the hole at [i] with (n, d, s, p), moving the smaller child up
   past it while that child comes first. *)
let rec sift_down h size i n d s p =
  let l = (2 * i) + 1 in
  if l >= size then put h i n d s p
  else begin
    let bl = stride * l in
    let c =
      let r = l + 1 in
      let br = bl + stride in
      if
        r < size
        && before (Array.unsafe_get h br)
             (Array.unsafe_get h (br + 1))
             (Array.unsafe_get h (br + 2))
             (Array.unsafe_get h bl)
             (Array.unsafe_get h (bl + 1))
             (Array.unsafe_get h (bl + 2))
      then r
      else l
    in
    let b = stride * c in
    let cn = Array.unsafe_get h b
    and cd = Array.unsafe_get h (b + 1)
    and cs = Array.unsafe_get h (b + 2) in
    if before cn cd cs n d s then begin
      put h i cn cd cs (Array.unsafe_get h (b + 3));
      sift_down h size c n d s p
    end
    else put h i n d s p
  end

let resize q capacity =
  let h = Array.make (stride * capacity) 0 in
  Array.blit q.h 0 h 0 (stride * q.size);
  q.h <- h

let schedule q ~time payload =
  let capacity = Array.length q.h / stride in
  if q.size >= capacity then resize q (max 16 (2 * capacity));
  let i = q.size in
  let s = q.next_seq in
  q.size <- i + 1;
  q.next_seq <- s + 1;
  sift_up q.h i (time : Q.t).Q.num time.Q.den s payload

(* Release the backing store's slack once the queue has emptied out:
   after a large run's peak, a mostly-idle queue should not pin the
   peak-sized array.  Halving at 1/4 occupancy keeps the resize cost
   amortized O(1). *)
let maybe_shrink q =
  let capacity = Array.length q.h / stride in
  if capacity > 16 && q.size < capacity / 4 then
    if q.size = 0 then q.h <- [||] else resize q (max 16 (capacity / 2))

let pop q =
  if q.size = 0 then invalid_arg "Sim.pop: empty queue";
  let h = q.h in
  let n = h.(0) and d = h.(1) and p = h.(3) in
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then begin
    let b = stride * last in
    sift_down h last 0 h.(b) h.(b + 1) h.(b + 2) h.(b + 3)
  end;
  if n <> q.now.Q.num || d <> q.now.Q.den then q.now <- Q.make n d;
  maybe_shrink q;
  p

let now q = q.now
let peek_time q = if q.size = 0 then None else Some (Q.make q.h.(0) q.h.(1))
let is_empty q = q.size = 0
let size q = q.size

(* Forgets every pending entry and releases the backing store;
   next_seq is preserved so FIFO tie-breaking stays monotone across a
   clear. *)
let clear q =
  q.size <- 0;
  maybe_shrink q
