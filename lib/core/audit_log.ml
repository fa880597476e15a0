type entry = {
  time : Temporal.Q.t;
  object_id : string;
  access : Sral.Access.t;
  verdict : Decision.verdict;
}

(* Entries newest-first; the counters make [size]/[granted_count]
   O(1). *)
type t = {
  mutable rev_entries : entry list;
  mutable total : int;
  mutable granted_total : int;
}

let create () = { rev_entries = []; total = 0; granted_total = 0 }

let record log e =
  log.rev_entries <- e :: log.rev_entries;
  log.total <- log.total + 1;
  if Decision.is_granted e.verdict then
    log.granted_total <- log.granted_total + 1

let size log = log.total
let granted_count log = log.granted_total
let denied_count log = log.total - log.granted_total
let entries log = List.rev log.rev_entries

let granted log =
  List.filter (fun e -> Decision.is_granted e.verdict) (entries log)

let denied log =
  List.filter (fun e -> not (Decision.is_granted e.verdict)) (entries log)

let grant_rate log =
  if log.total = 0 then 1.0
  else float_of_int log.granted_total /. float_of_int log.total

let by_object log id =
  List.filter (fun e -> String.equal e.object_id id) (entries log)

let by_server log server =
  List.filter (fun e -> String.equal e.access.Sral.Access.server server) (entries log)

let sink log =
  Obs.Sink.make ~name:"audit-log" (function
    | Obs.Trace.Decision { time; object_id; access; verdict } ->
        record log { time; object_id; access; verdict }
    | _ -> ())

let attach bus =
  let log = create () in
  Obs.Bus.subscribe bus (sink log);
  log

let pp_entry ppf e =
  Format.fprintf ppf "[%a] %s: %a -> %a" Temporal.Q.pp e.time e.object_id
    Sral.Access.pp e.access Decision.pp_verdict e.verdict

let pp ppf log =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_entry)
    (entries log)
