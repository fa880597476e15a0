let limit = 64

let cut show s =
  let n = String.length s in
  if n <= limit then show s
  else Printf.sprintf "%s... (%d bytes)" (show (String.sub s 0 limit)) n

let clip s = cut Fun.id s
let quote s = cut (Printf.sprintf "%S") s
