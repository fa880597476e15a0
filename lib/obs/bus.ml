type t = {
  clock : unit -> int64;
  mutable sinks : Sink.t list;  (* subscription order *)
  mutable emitted : int;
}

let null_clock () = 0L
let create ?(clock = null_clock) () = { clock; sinks = []; emitted = 0 }

(* Appending keeps [sinks] in subscription order; subscription is rare
   and the list short, emission is the hot operation. *)
let subscribe t sink = t.sinks <- t.sinks @ [ sink ]

let emit t ev =
  t.emitted <- t.emitted + 1;
  List.iter (fun s -> Sink.handle s ev) t.sinks

let observed t = t.sinks <> []
let now_ns t = t.clock ()
let emitted t = t.emitted
let sinks t = List.map Sink.name t.sinks
