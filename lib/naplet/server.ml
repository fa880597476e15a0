module Q = Temporal.Q

(* Occupancy is a sorted deque of unboxed rational end times: the
   busy slots' (num, den) pairs live ascending in
   [ends_num/ends_den].(head .. tail-1).  The old representation was a
   [Q.t list] re-filtered and re-sorted on every [reserve]; here a
   reservation is an O(expired) prune of the head plus an O(capacity)
   sorted insert near the tail, so a server fielding thousands of
   queued accesses in a big coalition does no per-call sorting. *)
type t = {
  name : string;
  access_duration : Q.t;
  capacity : int;
  mutable ends_num : int array;
  mutable ends_den : int array;
  mutable head : int;
  mutable tail : int;
  store : (string, string) Hashtbl.t;
  mutable serviced : int;
}

let create ?(access_duration = Q.one) ?(capacity = 1) name =
  if capacity < 1 then invalid_arg "Server.create: capacity < 1";
  {
    name;
    access_duration;
    capacity;
    ends_num = [||];
    ends_den = [||];
    head = 0;
    tail = 0;
    store = Hashtbl.create 8;
    serviced = 0;
  }

let name s = s.name
let access_duration s = s.access_duration
let put_resource s ~name ~contents = Hashtbl.replace s.store name contents
let get_resource s ~name = Hashtbl.find_opt s.store name

let resources s =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) s.store [])

let capacity s = s.capacity

(* exact rational comparisons on the unboxed pairs (den > 0 invariant) *)
let le_at s i (now : Q.t) = s.ends_num.(i) * now.Q.den <= now.Q.num * s.ends_den.(i)
let gt_at s i (q : Q.t) = s.ends_num.(i) * q.Q.den > q.Q.num * s.ends_den.(i)
let q_at s i = Q.make s.ends_num.(i) s.ends_den.(i)

(* slots with end <= now are gone for good — exactly the filter the
   list version applied (and then dropped) on each reserve *)
let prune s ~now =
  while s.head < s.tail && le_at s s.head now do
    s.head <- s.head + 1
  done

let ensure_room s =
  let cap = Array.length s.ends_num in
  if s.tail >= cap then begin
    let len = s.tail - s.head in
    if 2 * len <= cap && s.head > 0 then begin
      Array.blit s.ends_num s.head s.ends_num 0 len;
      Array.blit s.ends_den s.head s.ends_den 0 len
    end
    else begin
      let bigger = max 8 (2 * cap) in
      let num = Array.make bigger 0 and den = Array.make bigger 1 in
      Array.blit s.ends_num s.head num 0 len;
      Array.blit s.ends_den s.head den 0 len;
      s.ends_num <- num;
      s.ends_den <- den
    end;
    s.head <- 0;
    s.tail <- len
  end

(* start of the next admissible slot among entries still > now; the
   deque is ascending, so expired entries form a prefix *)
let busy_from s ~now ~first =
  if s.tail - first < s.capacity then now else q_at s (s.tail - s.capacity)

let reserve s ~now =
  prune s ~now;
  let start = busy_from s ~now ~first:s.head in
  let finish = Q.add start s.access_duration in
  ensure_room s;
  (* sorted insert; at most [capacity] live entries can exceed
     [finish], so the backward scan-and-shift is O(capacity) *)
  let p = ref s.tail in
  while !p > s.head && gt_at s (!p - 1) finish do decr p done;
  Array.blit s.ends_num !p s.ends_num (!p + 1) (s.tail - !p);
  Array.blit s.ends_den !p s.ends_den (!p + 1) (s.tail - !p);
  s.ends_num.(!p) <- finish.Q.num;
  s.ends_den.(!p) <- finish.Q.den;
  s.tail <- s.tail + 1;
  s.serviced <- s.serviced + 1;
  (start, finish)

let touch s = s.serviced <- s.serviced + 1
let serviced s = s.serviced

let pp ppf s =
  Format.fprintf ppf "server %s (%d resources, %d serviced)" s.name
    (List.length (resources s))
    s.serviced
