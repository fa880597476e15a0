module Q = Temporal.Q

(* A binary min-heap over the distinct pending times; each time owns a
   FIFO bucket of payloads in schedule order, so a schedule or pop at a
   time that is already pending costs O(1), and only the first
   schedule and the last pop of a time touch the heap.

   Everything lives in flat [int array]s, so neither [schedule] nor
   [pop] allocates or runs the write barrier:
   - [slots], stride 4: (next, payload, num, den) per entry — the next
     entry of its bucket (or -1), the payload, and the entry's time as
     a normalized numerator and denominator.  A free slot has [den = 0]
     (a live one has [den > 0]) and its [next] links the free list.
   - [heap], stride 4: (num, den, created, head) per open bucket — its
     time, its creation number and its first slot.  Sifting moves a
     hole (one entry written per level) instead of swapping.
   - [index]: a direct-mapped table from a hash of a time to the slot
     last scheduled at that time, or -1.  While that slot is live with
     that time it is the tail of the time's newest bucket, so a
     schedule appends behind it; otherwise (the slot was popped, or
     another time has since taken the entry) the schedule opens a new
     bucket.  A time can therefore own several open buckets, but only
     the newest ever grows, and [created] orders equal-time buckets in
     the heap, so pops follow (time, schedule order) exactly.

   Every index [get]/[set] forms is in bounds: slot ids are below the
   slot capacity, heap positions below [open_buckets], which never
   exceeds the heap's capacity, and index positions are masked. *)
type t = {
  mutable slots : int array;
  mutable slot_mark : int;  (* slots below it have been handed out *)
  mutable free_slot : int;
  mutable heap : int array;
  mutable open_buckets : int;
  mutable index : int array;  (* length a power of two *)
  mutable size : int;
  mutable created : int;
  mutable now : Q.t;  (* time of the last pop, reused while it repeats *)
}

external get : int array -> int -> int = "%array_unsafe_get"
external set : int array -> int -> int -> unit = "%array_unsafe_set"

let stride = 4
let min_capacity = 16

(* the index grows with the heap (4 entries per open bucket) up to
   this many entries, 32 KB *)
let max_index = 4096
let small_index () = Array.make (stride * min_capacity) (-1)

let create () =
  {
    slots = [||];
    slot_mark = 0;
    free_slot = -1;
    heap = [||];
    open_buckets = 0;
    index = small_index ();
    size = 0;
    created = 0;
    now = Q.zero;
  }

(* Fibonacci hashing: the product's middle bits mix every bit of both
   inputs; the mask keeps as many as the index has entries. *)
let[@inline] index_of q n d =
  let h = ((n * 0x2545F4914F6CDD1D) + d) * 0x2545F4914F6CDD1D in
  (h lsr 35) land (Array.length q.index - 1)

(* Q keeps [den > 0], so cross-multiplication is an exact comparison
   (same overflow caveat as [Q.compare] itself). *)
let[@inline] before n1 d1 c1 n2 d2 c2 =
  let l = n1 * d2 and r = n2 * d1 in
  if l <> r then l < r else c1 < c2

let[@inline] put h i n d c s =
  let e = stride * i in
  set h e n;
  set h (e + 1) d;
  set h (e + 2) c;
  set h (e + 3) s

(* Fill the hole at [i] with (n, d, c, s), moving parents down past it. *)
let rec sift_up h i n d c s =
  if i = 0 then put h 0 n d c s
  else begin
    let parent = (i - 1) / 2 in
    let e = stride * parent in
    let pn = get h e and pd = get h (e + 1) and pc = get h (e + 2) in
    if before n d c pn pd pc then begin
      put h i pn pd pc (get h (e + 3));
      sift_up h parent n d c s
    end
    else put h i n d c s
  end

(* Fill the hole at [i] with (n, d, c, s), moving the smaller child up
   past it while that child comes first. *)
let rec sift_down h size i n d c s =
  let l = (2 * i) + 1 in
  if l >= size then put h i n d c s
  else begin
    let el = stride * l in
    let child =
      let r = l + 1 in
      let er = el + stride in
      if
        r < size
        && before (get h er) (get h (er + 1)) (get h (er + 2)) (get h el)
             (get h (el + 1)) (get h (el + 2))
      then r
      else l
    in
    let e = stride * child in
    let cn = get h e and cd = get h (e + 1) and cc = get h (e + 2) in
    if before cn cd cc n d c then begin
      put h i cn cd cc (get h (e + 3));
      sift_down h size child n d c s
    end
    else put h i n d c s
  end

let grow a =
  let bigger = Array.make (stride * max min_capacity (Array.length a / 2)) 0 in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let take_slot q =
  let s = q.free_slot in
  if s >= 0 then begin
    q.free_slot <- get q.slots (stride * s);
    s
  end
  else begin
    let s = q.slot_mark in
    if stride * s = Array.length q.slots then q.slots <- grow q.slots;
    q.slot_mark <- s + 1;
    s
  end

(* Push a bucket whose first slot is [s].  A grown index starts empty,
   which costs each time it forgets one extra bucket. *)
let open_bucket q n d s =
  let i = q.open_buckets in
  if stride * i = Array.length q.heap then begin
    q.heap <- grow q.heap;
    let entries = min max_index (Array.length q.heap) in
    if Array.length q.index < entries then q.index <- Array.make entries (-1)
  end;
  let c = q.created in
  q.created <- c + 1;
  q.open_buckets <- i + 1;
  sift_up q.heap i n d c s

let schedule q ~time payload =
  let n = (time : Q.t).Q.num and d = time.Q.den in
  let s = take_slot q in
  (* look up before [s] is filled in: the index may still name [s]
     from before it was freed *)
  let tail = get q.index (index_of q n d) in
  if
    tail >= 0
    && get q.slots ((stride * tail) + 2) = n
    && get q.slots ((stride * tail) + 3) = d
  then set q.slots (stride * tail) s
  else open_bucket q n d s;
  set q.index (index_of q n d) s;
  let slots = q.slots and e = stride * s in
  set slots e (-1);
  set slots (e + 1) payload;
  set slots (e + 2) n;
  set slots (e + 3) d;
  q.size <- q.size + 1

(* Forget every entry.  Storage past the minimum is released, so a
   queue that peaked at millions of entries does not pin that storage
   once it has emptied; a small queue keeps its arrays. *)
let reset q =
  q.size <- 0;
  q.open_buckets <- 0;
  q.slot_mark <- 0;
  q.free_slot <- -1;
  if Array.length q.slots > stride * min_capacity then begin
    q.slots <- [||];
    q.heap <- [||];
    q.index <- small_index ()
  end
  else Array.fill q.index 0 (Array.length q.index) (-1)

let pop q =
  if q.size = 0 then invalid_arg "Sim.pop: empty queue";
  let heap = q.heap and slots = q.slots in
  let n = get heap 0 and d = get heap 1 and s = get heap 3 in
  let e = stride * s in
  let p = get slots (e + 1) and next = get slots e in
  set slots e q.free_slot;
  set slots (e + 3) 0;
  q.free_slot <- s;
  if next >= 0 then set heap 3 next
  else begin
    let last = q.open_buckets - 1 in
    q.open_buckets <- last;
    if last > 0 then begin
      let e = stride * last in
      sift_down heap last 0 (get heap e) (get heap (e + 1)) (get heap (e + 2))
        (get heap (e + 3))
    end
  end;
  q.size <- q.size - 1;
  if n <> q.now.Q.num || d <> q.now.Q.den then q.now <- Q.make n d;
  if q.size = 0 then reset q;
  p

let now q = q.now
let peek_time q = if q.size = 0 then None else Some (Q.make q.heap.(0) q.heap.(1))
let is_empty q = q.size = 0
let size q = q.size
let clear = reset
