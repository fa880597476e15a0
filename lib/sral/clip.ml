let limit = 64

(* Concatenated rather than formatted: a refusal that echoes a name is
   built on a server's request path. *)
let cut show s =
  let n = String.length s in
  if n <= limit then show s
  else show (String.sub s 0 limit) ^ "... (" ^ string_of_int n ^ " bytes)"

let clip s = cut Fun.id s
let quote s = cut (fun s -> "\"" ^ String.escaped s ^ "\"") s
