type t = { init : bool; changes : (Q.t * bool) array }

(* Normalization: sort by time (stable, so a later entry in the input
   list wins at equal times), then drop changes that do not change the
   value. *)
let normalize ~init entries =
  let entries = List.stable_sort (fun (t1, _) (t2, _) -> Q.compare t1 t2) entries in
  (* keep last entry per time *)
  let rec dedup = function
    | (t1, _) :: ((t2, _) :: _ as rest) when Q.equal t1 t2 -> dedup rest
    | e :: rest -> e :: dedup rest
    | [] -> []
  in
  let entries = dedup entries in
  let rec compact current = function
    | [] -> []
    | (t, v) :: rest ->
        if Bool.equal v current then compact current rest
        else (t, v) :: compact v rest
  in
  { init; changes = Array.of_list (compact init entries) }

let const b = { init = b; changes = [||] }
let of_changes ~init entries = normalize ~init entries

let of_intervals intervals =
  (* Overlapping intervals need counting, not last-wins: sweep with a
     depth counter. *)
  let events =
    List.concat_map
      (fun (iv : Interval.t) ->
        if Interval.is_point iv then [] else [ (iv.lo, 1); (iv.hi, -1) ])
      intervals
  in
  if events = [] then const false
  else begin
    let events =
      List.stable_sort (fun (t1, _) (t2, _) -> Q.compare t1 t2) events
    in
    (* merge events at equal times *)
    let rec merge = function
      | (t1, d1) :: (t2, d2) :: rest when Q.equal t1 t2 ->
          merge ((t1, d1 + d2) :: rest)
      | e :: rest -> e :: merge rest
      | [] -> []
    in
    let events = merge events in
    let depth = ref 0 in
    let changes =
      List.filter_map
        (fun (t, d) ->
          let before = !depth > 0 in
          depth := !depth + d;
          let after = !depth > 0 in
          if Bool.equal before after then None else Some (t, after))
        events
    in
    normalize ~init:false changes
  end

let value_at f t =
  (* last change with time <= t *)
  let n = Array.length f.changes in
  let rec search lo hi acc =
    if lo > hi then acc
    else
      let mid = (lo + hi) / 2 in
      let time, v = f.changes.(mid) in
      if Q.le time t then search (mid + 1) hi (Some v) else search lo (mid - 1) acc
  in
  match search 0 (n - 1) None with Some v -> v | None -> f.init

let not_ f =
  { init = not f.init; changes = Array.map (fun (t, v) -> (t, not v)) f.changes }

let combine op f g =
  let entries = Array.to_list f.changes @ Array.to_list g.changes in
  let times = List.sort_uniq Q.compare (List.map fst entries) in
  let changes = List.map (fun t -> (t, op (value_at f t) (value_at g t))) times in
  normalize ~init:(op f.init g.init) changes

let and_ f g = combine ( && ) f g
let or_ f g = combine ( || ) f g

let changes f = Array.to_list f.changes

let segments f (iv : Interval.t) =
  (* list of (subinterval, value) partitioning iv *)
  let inner =
    List.filter (fun (t, _) -> Q.lt iv.lo t && Q.lt t iv.hi) (changes f)
  in
  let cuts = iv.lo :: List.map fst inner @ [ iv.hi ] in
  let rec pair = function
    | t1 :: (t2 :: _ as rest) ->
        (Interval.make t1 t2, value_at f t1) :: pair rest
    | [ _ ] | [] -> []
  in
  pair cuts

let integrate f iv =
  List.fold_left
    (fun acc (seg, v) -> if v then Q.add acc (Interval.length seg) else acc)
    Q.zero (segments f iv)

let accum_reaches f ~from ~budget =
  if Q.sign budget < 0 then invalid_arg "Step_fn.accum_reaches: negative budget";
  if Q.sign budget = 0 then Some from
  else
    (* Walk the true-segments after [from]; the function is eventually
       constant past its last change. *)
    let last_change =
      if Array.length f.changes = 0 then from
      else Q.max from (fst f.changes.(Array.length f.changes - 1))
    in
    let tail_value = value_at f last_change in
    let horizon = Q.add last_change Q.one in
    let seg_list = segments f (Interval.make from (Q.max from horizon)) in
    let rec walk acc = function
      | [] ->
          if tail_value then
            (* accumulate indefinitely past the horizon *)
            Some (Q.add horizon (Q.sub budget acc))
          else None
      | ((seg : Interval.t), v) :: rest ->
          if not v then walk acc rest
          else
            let len = Interval.length seg in
            let acc' = Q.add acc len in
            if Q.ge acc' budget then Some (Q.add seg.lo (Q.sub budget acc))
            else walk acc' rest
    in
    if Q.equal from (Q.max from horizon) then
      if tail_value then Some (Q.add from budget) else None
    else walk Q.zero seg_list

let change_times_in f iv =
  List.filter_map
    (fun (t, _) ->
      if Q.lt (iv : Interval.t).lo t && Q.lt t iv.hi then Some t else None)
    (changes f)

let initial f = f.init

let equal f g =
  Bool.equal f.init g.init
  && Array.length f.changes = Array.length g.changes
  && Array.for_all2
       (fun (t1, v1) (t2, v2) -> Q.equal t1 t2 && Bool.equal v1 v2)
       f.changes g.changes

let pp ppf f =
  Format.fprintf ppf "%b" f.init;
  Array.iter (fun (t, v) -> Format.fprintf ppf " |%a-> %b" Q.pp t v) f.changes
