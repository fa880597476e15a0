type t = {
  num_states : int;
  alphabet : Symbol.t array;
  start : int;
  finals : bool array;
  next : int array array;
}

let alphabet_index alphabet =
  let tbl = Hashtbl.create (Array.length alphabet) in
  Array.iteri (fun i s -> Hashtbl.replace tbl s i) alphabet;
  tbl

let of_tables ~alphabet ~start ~finals ~next =
  let alphabet = Array.of_list (List.sort_uniq Int.compare alphabet) in
  let num_states = Array.length finals in
  let k = Array.length alphabet in
  if
    Array.length next <> num_states
    || start < 0
    || start >= num_states
    || Array.exists
         (fun row ->
           Array.length row <> k
           || Array.exists (fun q -> q < 0 || q >= num_states) row)
         next
  then invalid_arg "Dfa.of_tables: inconsistent tables";
  { num_states; alphabet; start; finals; next }

exception Over_budget of int

let of_nfa ?(max_states = max_int) ~alphabet nfa =
  let alphabet = Array.of_list (List.sort_uniq Int.compare alphabet) in
  let k = Array.length alphabet in
  (* state = sorted list of NFA states (eps-closed); keyed by string *)
  let key states = String.concat "," (List.map string_of_int states) in
  let ids = Hashtbl.create 64 in
  let states_of = ref [] in
  let count = ref 0 in
  let id_of states =
    let k' = key states in
    match Hashtbl.find_opt ids k' with
    | Some id -> id
    | None ->
        if !count >= max_states then raise (Over_budget max_states);
        let id = !count in
        incr count;
        Hashtbl.add ids k' id;
        states_of := states :: !states_of;
        id
  in
  let start_set = Nfa.eps_closure nfa [ (nfa : Nfa.t).start ] in
  let start = id_of start_set in
  let index = alphabet_index alphabet in
  let targets = Array.make k [] in
  let transitions = ref [] in
  let rec explore frontier =
    match frontier with
    | [] -> ()
    | states :: rest ->
        let id = id_of states in
        (* one pass over the subset's moves, bucketed by symbol, so a
           symbol with no move from the subset costs no search *)
        List.iter
          (fun q ->
            List.iter
              (fun (s, q') ->
                match Hashtbl.find_opt index s with
                | Some i -> targets.(i) <- q' :: targets.(i)
                | None -> ())
              (nfa : Nfa.t).moves.(q))
          states;
        let row = Array.make k 0 in
        let newly = ref [] in
        for i = 0 to k - 1 do
          let dst_set =
            match targets.(i) with
            | [] -> []
            | qs ->
                targets.(i) <- [];
                Nfa.eps_closure nfa qs
          in
          let before = !count in
          row.(i) <- id_of dst_set;
          if !count > before then newly := dst_set :: !newly
        done;
        transitions := (id, row) :: !transitions;
        explore (List.rev_append !newly rest)
  in
  explore [ start_set ];
  let num_states = !count in
  let next = Array.make num_states [||] in
  List.iter (fun (id, row) -> next.(id) <- row) !transitions;
  let all_states = Array.make num_states [] in
  List.iteri
    (fun i states -> all_states.(num_states - 1 - i) <- states)
    !states_of;
  let finals =
    Array.map (List.exists (fun q -> Nfa.is_final nfa q)) all_states
  in
  { num_states; alphabet; start; finals; next }

let reachable d =
  let seen = Array.make d.num_states false in
  let rec visit q =
    if not seen.(q) then begin
      seen.(q) <- true;
      Array.iter visit d.next.(q)
    end
  in
  visit d.start;
  seen

let restrict d keep =
  let remap = Array.make d.num_states (-1) in
  let count = ref 0 in
  for q = 0 to d.num_states - 1 do
    if keep.(q) then begin
      remap.(q) <- !count;
      incr count
    end
  done;
  let num_states = !count in
  let finals = Array.make num_states false in
  let next = Array.make num_states [||] in
  for q = 0 to d.num_states - 1 do
    if keep.(q) then begin
      finals.(remap.(q)) <- d.finals.(q);
      next.(remap.(q)) <- Array.map (fun dst -> remap.(dst)) d.next.(q)
    end
  done;
  { d with num_states; start = remap.(d.start); finals; next }

let minimize d =
  let d = restrict d (reachable d) in
  if d.num_states = 0 then d
  else begin
    (* Moore refinement: class.(q) starts as final/non-final, refined by
       successor-class signatures until stable. *)
    let cls = Array.map (fun b -> if b then 1 else 0) d.finals in
    let changed = ref true in
    while !changed do
      changed := false;
      let sig_tbl = Hashtbl.create d.num_states in
      let next_cls = Array.make d.num_states 0 in
      let fresh = ref 0 in
      for q = 0 to d.num_states - 1 do
        let signature =
          (cls.(q), Array.to_list (Array.map (fun dst -> cls.(dst)) d.next.(q)))
        in
        let c =
          match Hashtbl.find_opt sig_tbl signature with
          | Some c -> c
          | None ->
              let c = !fresh in
              incr fresh;
              Hashtbl.add sig_tbl signature c;
              c
        in
        next_cls.(q) <- c
      done;
      let distinct_before =
        let s = Hashtbl.create 16 in
        Array.iter (fun c -> Hashtbl.replace s c ()) cls;
        Hashtbl.length s
      in
      if !fresh <> distinct_before then changed := true;
      Array.blit next_cls 0 cls 0 d.num_states
    done;
    let num_classes = 1 + Array.fold_left max 0 cls in
    let finals = Array.make num_classes false in
    let next = Array.make num_classes [||] in
    for q = 0 to d.num_states - 1 do
      finals.(cls.(q)) <- d.finals.(q);
      next.(cls.(q)) <- Array.map (fun dst -> cls.(dst)) d.next.(q)
    done;
    { d with num_states = num_classes; start = cls.(d.start); finals; next }
  end

let same_alphabet d1 d2 =
  Array.length d1.alphabet = Array.length d2.alphabet
  && Array.for_all2 ( = ) d1.alphabet d2.alphabet

let product f d1 d2 =
  if not (same_alphabet d1 d2) then
    invalid_arg "Dfa.product: different alphabets";
  let m = d2.num_states in
  let pair q1 q2 = (q1 * m) + q2 in
  let num_states = d1.num_states * m in
  let k = Array.length d1.alphabet in
  let finals = Array.make num_states false in
  let next = Array.make num_states [||] in
  for q1 = 0 to d1.num_states - 1 do
    for q2 = 0 to m - 1 do
      let q = pair q1 q2 in
      finals.(q) <- f d1.finals.(q1) d2.finals.(q2);
      next.(q) <-
        Array.init k (fun i -> pair d1.next.(q1).(i) d2.next.(q2).(i))
    done
  done;
  restrict
    { d1 with num_states; start = pair d1.start d2.start; finals; next }
    (reachable
       { d1 with num_states; start = pair d1.start d2.start; finals; next })

let complement d = { d with finals = Array.map not d.finals }
let inter d1 d2 = product ( && ) d1 d2
let union d1 d2 = product ( || ) d1 d2
let diff d1 d2 = product (fun a b -> a && not b) d1 d2

let accepts d word =
  let idx = alphabet_index d.alphabet in
  let rec run q = function
    | [] -> d.finals.(q)
    | s :: rest -> (
        match Hashtbl.find_opt idx s with
        | None -> false
        | Some i -> run d.next.(q).(i) rest)
  in
  run d.start word

let run d word =
  let idx = alphabet_index d.alphabet in
  let rec go q = function
    | [] -> Some q
    | s :: rest -> (
        match Hashtbl.find_opt idx s with
        | None -> None
        | Some i -> go d.next.(q).(i) rest)
  in
  go d.start word

let final_reachable_from d q0 =
  let seen = Array.make d.num_states false in
  let found = ref false in
  let rec visit q =
    if (not seen.(q)) && not !found then begin
      seen.(q) <- true;
      if d.finals.(q) then found := true else Array.iter visit d.next.(q)
    end
  in
  visit q0;
  !found

let is_empty d =
  let seen = reachable d in
  not
    (Array.exists Fun.id
       (Array.mapi (fun q b -> b && d.finals.(q)) seen))

let shortest_witness d =
  (* BFS from start; parent pointers give the word. *)
  let parent = Array.make d.num_states None in
  let visited = Array.make d.num_states false in
  let queue = Queue.create () in
  visited.(d.start) <- true;
  Queue.add d.start queue;
  let found = ref None in
  while !found = None && not (Queue.is_empty queue) do
    let q = Queue.take queue in
    if d.finals.(q) then found := Some q
    else
      Array.iteri
        (fun i dst ->
          if not visited.(dst) then begin
            visited.(dst) <- true;
            parent.(dst) <- Some (q, d.alphabet.(i));
            Queue.add dst queue
          end)
        d.next.(q)
  done;
  match !found with
  | None -> None
  | Some q ->
      let rec build q acc =
        match parent.(q) with
        | None -> acc
        | Some (p, s) -> build p (s :: acc)
      in
      Some (build q [])

let equiv d1 d2 = is_empty (product ( <> ) d1 d2)
let subset d1 d2 = is_empty (diff d1 d2)

let one_state ~alphabet ~final =
  let alphabet = Array.of_list (List.sort_uniq Int.compare alphabet) in
  {
    num_states = 1;
    alphabet;
    start = 0;
    finals = [| final |];
    next = [| Array.make (Array.length alphabet) 0 |];
  }

let universal_lang ~alphabet = one_state ~alphabet ~final:true
let empty_lang ~alphabet = one_state ~alphabet ~final:false

let num_states d = d.num_states

let pp ppf d =
  Format.fprintf ppf "@[<v>dfa: %d states, start %d, alphabet [%s]@,"
    d.num_states d.start
    (String.concat ";" (List.map string_of_int (Array.to_list d.alphabet)));
  for q = 0 to d.num_states - 1 do
    Format.fprintf ppf "  %d%s:" q (if d.finals.(q) then " (final)" else "");
    Array.iteri
      (fun i dst -> Format.fprintf ppf " s%d->%d" d.alphabet.(i) dst)
      d.next.(q);
    Format.pp_print_cut ppf ()
  done;
  Format.fprintf ppf "@]"
