module String_map = Map.Make (String)

type t = Value.t String_map.t

let empty = String_map.empty

let of_list l =
  List.fold_left (fun env (x, v) -> String_map.add x v env) empty l

let bind env x v = String_map.add x v env
let find env x = String_map.find_opt x env
let mem env x = String_map.mem x env
let bindings env = String_map.bindings env
let equal env1 env2 = String_map.equal Value.equal env1 env2

let pp ppf env =
  let pp_binding ppf (x, v) = Format.fprintf ppf "%s=%a" x Value.pp v in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_binding)
    (bindings env)
