type result = {
  offered : float;
  requests : int;
  completed : int;
  shed : int;
  elapsed_s : float;
  achieved : float;
  latency : Obs.Stats.histogram;
}

(* Pre-encoded Check frames round-robin over [conns] connections, plus
   the registration preamble each connection needs first. *)
let prepare ~conns ~seed ~requests server =
  let script = Script.generate ~conns ~requests:0 ~seed () in
  let ids = Array.init conns (fun _ -> Server.open_conn server) in
  List.iter
    (fun (e : Script.entry) ->
      ignore
        (Server.feed server ~conn:ids.(e.conn)
           (Frame.encode (Protocol.encode_request e.req))))
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
        ( ids.(c),
          Frame.encode
            (Protocol.encode_request (Check { object_id; access })) ))
  in
  frames

(* Count a reply batch: executed (anything but Shed/Event) vs shed. *)
let count_replies bytes =
  let dec = Frame.Decoder.create () in
  Frame.Decoder.feed dec bytes;
  let completed = ref 0 and shed = ref 0 in
  let rec go () =
    match Frame.Decoder.next dec with
    | Ok (Some payload) ->
        (match Protocol.decode_reply payload with
        | Ok (Shed _) -> incr shed
        | Ok (Event _) -> ()
        | Ok _ -> incr completed
        | Error _ -> ());
        go ()
    | Ok None | Error _ -> ()
  in
  go ();
  (!completed, !shed)

let finish ~offered ~requests ~completed ~shed ~elapsed_s ~latency =
  {
    offered;
    requests;
    completed;
    shed;
    elapsed_s;
    achieved = (if elapsed_s > 0.0 then float_of_int completed /. elapsed_s else 0.0);
    latency;
  }

let closed ?(conns = 4) ?(seed = 1) ~base ~requests () =
  let server = Server.create ~base () in
  let frames = prepare ~conns ~seed ~requests server in
  let latency = Obs.Stats.histogram () in
  let completed = ref 0 and shed = ref 0 in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun (conn, frame) ->
      let s = Unix.gettimeofday () in
      let out = Server.feed server ~conn frame in
      let e = Unix.gettimeofday () in
      Obs.Stats.observe latency (Int64.of_float ((e -. s) *. 1e9));
      let c, d = count_replies out in
      completed := !completed + c;
      shed := !shed + d)
    frames;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  finish ~offered:0.0 ~requests ~completed:!completed ~shed:!shed ~elapsed_s
    ~latency

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
    | Some queue_capacity -> { Server.default_config with queue_capacity }
  in
  let server = Server.create ~config ~base () in
  let frames = prepare ~conns ~seed ~requests server in
  let latency = Obs.Stats.histogram () in
  let completed = ref 0 and shed = ref 0 in
  let t0 = Unix.gettimeofday () in
  let due i = t0 +. (float_of_int i /. rate) in
  let i = ref 0 in
  while !i < requests do
    let now = Unix.gettimeofday () in
    if due !i > now then
      (* nothing due yet: sleep up to the next arrival *)
      Unix.sleepf (min (due !i -. now) 0.01)
    else begin
      (* batch every due request, grouped per connection so shedding
         applies per feed exactly as a socket read burst would *)
      let first = !i in
      while !i < requests && due !i <= now do incr i done;
      let last = !i - 1 in
      let by_conn = Hashtbl.create conns in
      for j = first to last do
        let conn, frame = frames.(j) in
        let chunks, dues =
          match Hashtbl.find_opt by_conn conn with
          | Some entry -> entry
          | None ->
              let entry = (Buffer.create 256, ref []) in
              Hashtbl.replace by_conn conn entry;
              entry
        in
        Buffer.add_string chunks frame;
        dues := due j :: !dues
      done;
      let outs =
        Server.feed_batch server
          (Hashtbl.fold
             (fun conn (b, _) acc -> (conn, Buffer.contents b) :: acc)
             by_conn [])
      in
      let t_done = Unix.gettimeofday () in
      (* latency from *due* time: queueing under saturation is charged
         to the server (no coordinated omission).  Shed requests get no
         latency sample — they were never served; the server sheds the
         tail of each per-connection batch, so the first [c] due times
         of a batch are the executed ones. *)
      List.iter
        (fun (conn, out) ->
          let c, d = count_replies out in
          completed := !completed + c;
          shed := !shed + d;
          let _, dues = Hashtbl.find by_conn conn in
          List.iteri
            (fun k due_j ->
              if k < c then
                Obs.Stats.observe latency
                  (Int64.of_float ((t_done -. due_j) *. 1e9)))
            (List.rev !dues))
        outs
    end
  done;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  finish ~offered:rate ~requests ~completed:!completed ~shed:!shed ~elapsed_s
    ~latency

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
