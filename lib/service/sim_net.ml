module Q = Temporal.Q

type policy = {
  seed : int;
  base_delay : Q.t;
  jitter : Q.t;
  drop : float;
  duplicate : float;
}

let reliable =
  {
    seed = 0;
    base_delay = Q.make 1 100;
    jitter = Q.zero;
    drop = 0.0;
    duplicate = 0.0;
  }

let lossy ~seed =
  {
    seed;
    base_delay = Q.make 1 100;
    jitter = Q.make 1 2;
    drop = 0.05;
    duplicate = 0.05;
  }

type hop = To_server | To_client

type delivery = { conn : int; hop : hop; bytes : string }

type endpoint = {
  decoder : Frame.Decoder.t;
  mutable received : Protocol.reply list;  (* reversed *)
  mutable sent : int;  (* per-direction message counter, keys the PRNG *)
  mutable returned : int;
  mutable last_arrival_to_server : Q.t;  (* FIFO clamps, per direction *)
  mutable last_arrival_to_client : Q.t;
}

type t = {
  policy : policy;
  server : Server.t;
  sim : delivery Naplet.Sim.t;
  clients : (int, endpoint) Hashtbl.t;
  mutable clock : Q.t;
}

let create ?(policy = reliable) ~server () =
  {
    policy;
    server;
    sim = Naplet.Sim.create ();
    clients = Hashtbl.create 8;
    clock = Q.zero;
  }

let connect t =
  let conn = Server.open_conn t.server in
  Hashtbl.replace t.clients conn
    {
      decoder = Frame.Decoder.create ();
      received = [];
      sent = 0;
      returned = 0;
      last_arrival_to_server = Q.zero;
      last_arrival_to_client = Q.zero;
    };
  conn

let endpoint t conn =
  match Hashtbl.find_opt t.clients conn with
  | Some ep -> ep
  | None -> failwith (Printf.sprintf "Sim_net: unknown connection %d" conn)

let hop_name = function To_server -> ">" | To_client -> "<"

(* Delay, drop and duplication are all derived from (seed, key) where
   the key names the connection, direction and per-direction message
   index — reordering unrelated traffic cannot perturb any decision. *)
let key conn hop k what = Printf.sprintf "%s#c%d%s%d" what conn (hop_name hop) k

let delay_of t conn hop k =
  let u = Fault.Prng.uniform ~seed:t.policy.seed (key conn hop k "delay") in
  (* quantize so virtual times stay small exact rationals *)
  let frac = Q.make (int_of_float (u *. 1024.0)) 1024 in
  Q.add t.policy.base_delay (Q.mul t.policy.jitter frac)

let coin t conn hop k what p =
  p > 0.0 && Fault.Prng.uniform ~seed:t.policy.seed (key conn hop k what) < p

let schedule_hop t ~time ~conn ~hop bytes =
  let ep = endpoint t conn in
  let k = match hop with To_server -> ep.sent | To_client -> ep.returned in
  (match hop with
  | To_server -> ep.sent <- ep.sent + 1
  | To_client -> ep.returned <- ep.returned + 1);
  if not (coin t conn hop k "drop" t.policy.drop) then begin
    let deliver_once arrival =
      (* clamp to per-direction FIFO: never overtake an earlier frame *)
      let arrival =
        match hop with
        | To_server ->
            let a = Q.max arrival ep.last_arrival_to_server in
            ep.last_arrival_to_server <- a;
            a
        | To_client ->
            let a = Q.max arrival ep.last_arrival_to_client in
            ep.last_arrival_to_client <- a;
            a
      in
      Naplet.Sim.schedule t.sim ~time:arrival { conn; hop; bytes }
    in
    let arrival = Q.add time (delay_of t conn hop k) in
    deliver_once arrival;
    if coin t conn hop k "dup" t.policy.duplicate then
      deliver_once (Q.add arrival (delay_of t conn hop (k + 1000000) ))
  end

let send_raw_at t ~time ~conn bytes = schedule_hop t ~time ~conn ~hop:To_server bytes

let send_at t ~time ~conn req =
  send_raw_at t ~time ~conn (Frame.encode (Protocol.encode_request req))

let deliver t time { conn; hop; bytes } =
  t.clock <- time;
  match hop with
  | To_server ->
      let out = Server.feed t.server ~conn bytes in
      if String.length out > 0 then
        schedule_hop t ~time ~conn ~hop:To_client out
  | To_client ->
      let ep = endpoint t conn in
      Frame.Decoder.feed ep.decoder bytes;
      let rec drain () =
        match Frame.Decoder.next ep.decoder with
        | Ok (Some payload) -> (
            match Protocol.decode_reply payload with
            | Ok reply ->
                ep.received <- reply :: ep.received;
                drain ()
            | Error err ->
                failwith
                  (Printf.sprintf "Sim_net: undecodable reply on conn %d: %s"
                     conn (Protocol.describe err)))
        | Ok None -> ()
        | Error e ->
            failwith (Printf.sprintf "Sim_net: reply framing on conn %d: %s" conn e)
      in
      drain ()

let run t =
  let rec go () =
    match Naplet.Sim.pop t.sim with
    | None -> ()
    | Some (time, d) ->
        deliver t time d;
        go ()
  in
  go ()

let now t = t.clock
let replies t ~conn = List.rev (endpoint t conn).received
