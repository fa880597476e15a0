type result = {
  offered : float;
  requests : int;
  completed : int;
  shed : int;
  elapsed_s : float;
  achieved : float;
  latency : Obs.Stats.histogram;
}

(* Pre-encoded Check frames round-robin over [conns] connections, after
   the registration preamble each connection needs first (without its
   [Subscribe] when not [subscribe]).  A frame is paired with its
   connection's index into [ids]. *)
let prepare ?(subscribe = true) ~conns ~seed ~requests server =
  let script = Script.generate ~conns ~requests:0 ~seed () in
  let ids = Array.init conns (fun _ -> Server.open_conn server) in
  List.iter
    (fun (e : Script.entry) ->
      match e.req with
      | Subscribe when not subscribe -> ()
      | req ->
          ignore
            (Server.feed server ~conn:ids.(e.conn)
               (Frame.encode (Protocol.encode_request req))))
    script;
  let rng = Random.State.make [| 0x10ad; seed |] in
  let frames =
    Array.init requests (fun i ->
        let c = i mod conns in
        let object_id = Printf.sprintf "o%d_%d" c (Random.State.int rng 2) in
        let access =
          let r = Printf.sprintf "r%d" (1 + Random.State.int rng 3) in
          let s = Printf.sprintf "s%d" (1 + Random.State.int rng 3) in
          match Random.State.int rng 3 with
          | 0 -> Sral.Access.read r ~at:s
          | 1 -> Sral.Access.write r ~at:s
          | _ -> Sral.Access.execute r ~at:s
        in
        ( c,
          Frame.encode
            (Protocol.encode_request (Check { object_id; access })) ))
  in
  (ids, frames)

(* [Load] sends only well-formed frames, so every one is either executed
   or shed: the server's counters say what a feed did without decoding
   its replies. *)
let finish ~offered ~requests ~server ~executed0 ~shed0 ~elapsed_s ~latency =
  let completed = Server.executed server - executed0 in
  {
    offered;
    requests;
    completed;
    shed = Server.shed server - shed0;
    elapsed_s;
    achieved = (if elapsed_s > 0.0 then float_of_int completed /. elapsed_s else 0.0);
    latency;
  }

let closed ?(conns = 4) ?(seed = 1) ~base ~requests () =
  let server = Server.create ~base () in
  let ids, frames = prepare ~conns ~seed ~requests server in
  let executed0 = Server.executed server and shed0 = Server.shed server in
  let latency = Obs.Stats.histogram () in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun (c, frame) ->
      let s = Unix.gettimeofday () in
      ignore (Server.feed server ~conn:ids.(c) frame);
      let e = Unix.gettimeofday () in
      Obs.Stats.observe latency (Int64.of_float ((e -. s) *. 1e9)))
    frames;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  finish ~offered:0.0 ~requests ~server ~executed0 ~shed0 ~elapsed_s ~latency

let words_per_feed ~base ~requests () =
  let server = Server.create ~base () in
  let ids, frames = prepare ~subscribe:false ~conns:4 ~seed:1 ~requests server in
  let feed_all () =
    Array.iter (fun (c, frame) -> ignore (Server.feed server ~conn:ids.(c) frame)) frames
  in
  feed_all ();
  let w0 = Gc.minor_words () in
  feed_all ();
  (Gc.minor_words () -. w0) /. float_of_int requests

(* Request i is due at t0 + i/rate, so only a finite rate > 0 paces
   arrivals: at rate 0 the first due time is NaN and the loop spins. *)
let check_rate rate =
  if not (Float.is_finite rate && rate > 0.0) then
    invalid_arg (Printf.sprintf "Load: rate %g is not a finite rate > 0" rate)

let open_loop ?(conns = 4) ?(seed = 1) ?queue ~base ~requests ~rate () =
  check_rate rate;
  let config =
    match queue with
    | None -> Server.default_config
    | Some queue_capacity -> { Server.queue_capacity }
  in
  let server = Server.create ~config ~base () in
  let ids, frames = prepare ~conns ~seed ~requests server in
  let executed0 = Server.executed server and shed0 = Server.shed server in
  let latency = Obs.Stats.histogram () in
  let chunks = Array.init conns (fun _ -> Buffer.create 256) in
  let dues = Array.make conns [] in  (* due times of a chunk, reversed *)
  let t0 = Unix.gettimeofday () in
  let due i = t0 +. (float_of_int i /. rate) in
  let i = ref 0 in
  while !i < requests do
    let now = Unix.gettimeofday () in
    if due !i > now then
      (* nothing due yet: sleep up to the next arrival *)
      Unix.sleepf (min (due !i -. now) 0.01)
    else begin
      (* every due request joins its connection's chunk, and each chunk
         is one feed, so shedding applies per feed exactly as a socket
         read burst would *)
      let order = ref [] in
      while !i < requests && due !i <= now do
        let c, frame = frames.(!i) in
        if dues.(c) = [] then order := c :: !order;
        Buffer.add_string chunks.(c) frame;
        dues.(c) <- due !i :: dues.(c);
        incr i
      done;
      List.iter
        (fun c ->
          let before = Server.executed server in
          ignore (Server.feed server ~conn:ids.(c) (Buffer.contents chunks.(c)));
          let t_done = Unix.gettimeofday () in
          let served = Server.executed server - before in
          (* latency from *due* time: queueing under saturation is
             charged to the server (no coordinated omission).  Shed
             requests get no sample, they were never served; the server
             sheds the tail of a feed, so the first [served] due times
             are the executed ones. *)
          List.iteri
            (fun k due_k ->
              if k < served then
                Obs.Stats.observe latency
                  (Int64.of_float ((t_done -. due_k) *. 1e9)))
            (List.rev dues.(c));
          Buffer.clear chunks.(c);
          dues.(c) <- [])
        (List.rev !order)
    end
  done;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  finish ~offered:rate ~requests ~server ~executed0 ~shed0 ~elapsed_s ~latency

let sweep ?conns ?seed ?queue ~base ~requests ~rates () =
  List.iter check_rate rates;
  List.map (fun rate -> open_loop ?conns ?seed ?queue ~base ~requests ~rate ()) rates

let us h p = Obs.Stats.percentile h p /. 1e3

let pp_header ppf () =
  Format.fprintf ppf "%12s %12s %10s %8s %10s %10s %10s" "offered/s" "achieved/s"
    "completed" "shed" "p50(us)" "p95(us)" "p99(us)"

let pp_row ppf r =
  let offered =
    if r.offered = 0.0 then "closed" else Printf.sprintf "%.0f" r.offered
  in
  Format.fprintf ppf "%12s %12.0f %10d %8d %10.1f %10.1f %10.1f" offered
    r.achieved r.completed r.shed (us r.latency 0.50) (us r.latency 0.95)
    (us r.latency 0.99)
