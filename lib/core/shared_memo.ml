module Int_map = Map.Make (Int)

module Make (Key : sig
  type t

  val equal : t -> t -> bool
end) =
struct
  type 'v entry = { key : Key.t; value : 'v }
  type 'v table = { size : int; buckets : 'v entry list Int_map.t }
  type 'v t = { cap : int; table : 'v table Atomic.t }

  let empty = { size = 0; buckets = Int_map.empty }
  let create ~cap = { cap; table = Atomic.make empty }
  let size t = (Atomic.get t.table).size

  let bucket table hash =
    match Int_map.find hash table.buckets with
    | es -> es
    | exception Not_found -> []

  let rec find_in key = function
    | [] -> None
    | e :: rest -> if Key.equal e.key key then Some e.value else find_in key rest

  let find t ~hash key = find_in key (bucket (Atomic.get t.table) hash)

  let rec add t ~hash key value =
    let current = Atomic.get t.table in
    match find_in key (bucket current hash) with
    | Some _ -> ()
    | None ->
        let base = if current.size >= t.cap then empty else current in
        let next =
          {
            size = base.size + 1;
            buckets =
              Int_map.add hash ({ key; value } :: bucket base hash) base.buckets;
          }
        in
        if not (Atomic.compare_and_set t.table current next) then
          add t ~hash key value
end
