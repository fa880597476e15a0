type operation = Read | Write | Execute | Custom of string

type t = { op : operation; resource : string; server : string }

let make ~op ~resource ~server = { op; resource; server }
let read resource ~at = { op = Read; resource; server = at }
let write resource ~at = { op = Write; resource; server = at }
let execute resource ~at = { op = Execute; resource; server = at }
let custom name resource ~at = { op = Custom name; resource; server = at }

let operation_name = function
  | Read -> "read"
  | Write -> "write"
  | Execute -> "execute"
  | Custom name -> name

let operation_of_name = function
  | "read" -> Read
  | "write" -> Write
  | "execute" -> Execute
  | name -> Custom name

let compare_operation op1 op2 =
  match (op1, op2) with
  | Read, Read | Write, Write | Execute, Execute -> 0
  | Custom n1, Custom n2 -> String.compare n1 n2
  | Read, _ -> -1
  | _, Read -> 1
  | Write, _ -> -1
  | _, Write -> 1
  | Execute, _ -> -1
  | _, Execute -> 1

let compare a1 a2 =
  let c = compare_operation a1.op a2.op in
  if c <> 0 then c
  else
    let c = String.compare a1.resource a2.resource in
    if c <> 0 then c else String.compare a1.server a2.server

let equal_operation op1 op2 =
  match (op1, op2) with
  | Read, Read | Write, Write | Execute, Execute -> true
  | Custom n1, Custom n2 -> String.equal n1 n2
  | _ -> false

let equal a1 a2 =
  a1 == a2
  || equal_operation a1.op a2.op
     && String.equal a1.resource a2.resource
     && String.equal a1.server a2.server

(* The hash sits on allocation-free hot paths (symbol interning, the
   applicable-binding memo), so it is folded here in plain OCaml: no C
   call, no tuple.  FNV-1a over the operation tag and the bytes of each
   name, each name led by its length so that field boundaries count,
   then an avalanche finish (Murmur3's fmix64 with its constants cut to
   OCaml's 63-bit ints) so that short names differing in one byte, such
   as [r1] and [r2], spread over the low bits a table indexes by. *)
let fnv_prime = 0x100000001b3

let rec fold_bytes s i n h =
  if i = n then h
  else
    fold_bytes s (i + 1) n
      ((h lxor Char.code (String.unsafe_get s i)) * fnv_prime)

let fold_string h s =
  let n = String.length s in
  fold_bytes s 0 n ((h lxor n) * fnv_prime)

let avalanche h =
  let h = (h lxor (h lsr 33)) * 0x3f51afd7ed558ccd in
  let h = (h lxor (h lsr 33)) * 0x04ceb9fe1a85ec53 in
  h lxor (h lsr 33)

let hash_name s = avalanche (fold_string 0 s) land max_int

let hash a =
  let h =
    match a.op with
    | Read -> 1
    | Write -> 2
    | Execute -> 3
    | Custom name -> fold_string 4 name
  in
  let h = fold_string (h * fnv_prime) a.resource in
  avalanche (fold_string h a.server) land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let pp_operation ppf op = Format.pp_print_string ppf (operation_name op)

let pp ppf a =
  match a.op with
  | Read | Write | Execute ->
      Format.fprintf ppf "%a %s @@ %s" pp_operation a.op a.resource a.server
  | Custom name ->
      Format.fprintf ppf "op(%s) %s @@ %s" name a.resource a.server

let to_string a = Format.asprintf "%a" pp a
