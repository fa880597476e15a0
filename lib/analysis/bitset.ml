type t = Bytes.t

let create nbits = Bytes.make ((nbits + 7) / 8) '\000'
let copy = Bytes.copy

let get b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) lor (1 lsl (i land 7))))

let clear b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get b j) land lnot (1 lsl (i land 7))))

let equal = Bytes.equal
let compare = Bytes.compare
let hash (b : t) = Hashtbl.hash b
let key b = Bytes.to_string b
let prefix_key b ~bytes = Bytes.sub_string b 0 bytes

let subset_bytes a b ~pos ~len =
  let rec go i =
    i >= pos + len
    || let x = Char.code (Bytes.get a i) in
       x land Char.code (Bytes.get b i) = x && go (i + 1)
  in
  go pos

let popcount_byte = Array.init 256 (fun b ->
    let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
    go b 0)

let cardinal b =
  let n = ref 0 in
  Bytes.iter (fun c -> n := !n + popcount_byte.(Char.code c)) b;
  !n
