(* The benchmark's request generator and its correctness reference.

   A session is one connection's life: register and arrive two
   objects, serve a body of requests, depart both.  It never departs
   mid-stream (every later request would be an "unknown object" and
   cost nothing), so its cost is set by the request mix alone.

   Each session carries the reply bytes the reference produces for it:
   [Service.Script.drive_direct], an implementation of the request
   semantics independent of [Server], run on the same base system.
   Request [i] on a connection executes at logical time [i], so the
   reference does not depend on delivery timing. *)

module P = Service.Protocol
module Frame = Service.Frame
module Script = Service.Script

let servers = [ "s1"; "s2"; "s3" ]
let resources = [ "r1"; "r2"; "r3" ]

(* The program shapes the service scripts draw from. *)
let programs =
  lazy
    (let rng = Random.State.make [| 0x57acc; 9 |] in
     let scen = Parallel.Workload.scenario ~servers ~resources ~objects:6 rng in
     Array.of_list
       (List.map (fun o -> o.Parallel.Scenario.program) scen.Parallel.Scenario.objects))

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

(* Draws without replacement from a fixed multiset, reshuffled each
   time it runs out: every stretch of a stream then holds the same mix
   of request kinds and targets, and the seed only orders it.  Drawing
   each request independently instead lets the share of expensive
   checks — and with it the measured throughput — wander from seed to
   seed. *)
type 'a deck = { items : 'a array; mutable next : int; rng : Random.State.t }

let deck rng items =
  let items = Array.of_list items in
  { items; next = Array.length items; rng }

let draw d =
  let n = Array.length d.items in
  if d.next >= n then begin
    for i = n - 1 downto 1 do
      let j = Random.State.int d.rng (i + 1) in
      let x = d.items.(i) in
      d.items.(i) <- d.items.(j);
      d.items.(j) <- x
    done;
    d.next <- 0
  end;
  d.next <- d.next + 1;
  d.items.(d.next - 1)

let accesses =
  List.concat_map
    (fun r ->
      List.concat_map
        (fun s -> [ Sral.Access.read r ~at:s; Sral.Access.write r ~at:s; Sral.Access.execute r ~at:s ])
        servers)
    resources

let pairs objs xs = List.concat_map (fun o -> List.map (fun x -> (o, x)) xs) objs

(* A stream of checks, each (object, access) pair equally often. *)
let checks rng objs =
  let d = deck rng (pairs objs accesses) in
  fun () : P.request ->
    let object_id, access = draw d in
    Check { object_id; access }

(* 70% checks, 12% arrivals, 8% role activations, 5% team joins, 5%
   pings, in every 100 requests. *)
let mixed rng objs =
  let kinds =
    deck rng
      (List.init 100 (fun i ->
           if i < 70 then `Check
           else if i < 82 then `Arrive
           else if i < 90 then `Activate
           else if i < 95 then `Join
           else `Ping))
  in
  let check = checks rng objs in
  let arrivals = deck rng (pairs objs servers) in
  let roles = deck rng (pairs objs Parallel.Workload.roles) in
  let teams = deck rng (pairs objs Parallel.Workload.team_names) in
  fun () : P.request ->
    match draw kinds with
    | `Check -> check ()
    | `Arrive ->
        let object_id, server = draw arrivals in
        Arrive { object_id; server }
    | `Activate ->
        let object_id, role = draw roles in
        Activate { object_id; role }
    | `Join ->
        let object_id, team = draw teams in
        Join { object_id; team }
    | `Ping -> Ping

type t = {
  requests : P.request array;
  frames : string array;  (** the request frames, in send order *)
  timed_from : int;  (** requests before this index are warm-up *)
  expected : string;  (** the reference's reply frames, concatenated *)
  expected_render : string;  (** [Script.render] of the reference replies *)
  mutable render_checked : bool;
}

let objects = [ "o0"; "o1" ]

(* Who registers each object, with which roles and program.  The
   profiles are the same for every seed (a pinned generator state), so
   the seed varies the request stream, not the cost class of the
   objects a round serves. *)
let profiles =
  lazy
    (let rng = Random.State.make [| 0x57acc; 10 |] in
     let pool = Lazy.force programs in
     Array.init 64 (fun _ ->
         let owner = pick rng Parallel.Workload.users in
         let roles =
           List.init (1 + Random.State.int rng 2) (fun _ ->
               pick rng Parallel.Workload.roles)
         in
         (owner, roles, pool.(Random.State.int rng (Array.length pool)))))

let opening rng ~profile =
  let profiles = Lazy.force profiles in
  let register k object_id : P.request =
    let owner, roles, program = profiles.((profile + k) mod Array.length profiles) in
    Register { object_id; owner; roles; program }
  in
  List.mapi register objects
  @ List.map
      (fun object_id : P.request -> Arrive { object_id; server = pick rng servers })
      objects

let make ~base ~timed_from requests =
  let reference =
    Script.drive_direct ~base
      (List.map (fun req -> { Script.conn = 0; req }) requests)
  in
  let replies = List.assoc 0 reference in
  {
    requests = Array.of_list requests;
    frames =
      Array.of_list
        (List.map (fun r -> Frame.encode (P.encode_request r)) requests);
    timed_from;
    expected =
      String.concat ""
        (List.map (fun r -> Frame.encode (P.encode_reply r)) replies);
    expected_render = Script.render reference;
    render_checked = false;
  }

(* svc-churn and svc-socket: [body] mixed requests between the opening
   and the departures. *)
let bounded ~base ~body rng ~profile =
  let opening = opening rng ~profile in
  let next = mixed rng objects in
  let body = List.init body (fun _ -> next ()) in
  let closing = List.map (fun object_id : P.request -> Depart { object_id }) objects in
  make ~base ~timed_from:0 (opening @ body @ closing)

(* svc-deep: [depth] mixed warm-up requests, then a window of checks.
   The warm-up is a fixture, the same for every seed: the history a
   window decides against would otherwise differ from seed to seed far
   more than the window's own requests do. *)
let deep ~base ~depth ~window rng ~profile =
  let fixture = Random.State.make [| 0xdee9; profile |] in
  let opening = opening fixture ~profile in
  let warm_next = mixed fixture objects and win_next = checks rng objects in
  let warm = List.init depth (fun _ -> warm_next ()) in
  let win = List.init window (fun _ -> win_next ()) in
  make ~base ~timed_from:(List.length opening + depth) (opening @ warm @ win)

(* [n] sessions; session [j] serves object profiles [2j] and [2j+1]. *)
let pool ~seed ~salt n f =
  let rng = Random.State.make [| 0xbe7c; salt; seed |] in
  Array.init n (fun j -> f rng ~profile:(2 * j))

let decode_replies out =
  let dec = Frame.Decoder.create () in
  Frame.Decoder.feed dec out;
  let rec go acc =
    match Frame.Decoder.next dec with
    | Ok (Some payload) -> (
        match P.decode_reply payload with
        | Ok r -> go (r :: acc)
        | Error _ -> List.rev acc)
    | Ok None | Error _ -> List.rev acc
  in
  go []

let encode_replies replies =
  String.concat "" (List.map (fun r -> Frame.encode (P.encode_reply r)) replies)

(* [(differing, missing)] replies of a connection's output against the
   reference; only the first [sent] requests count when the generator
   stopped early.  Byte equality with the reference is the fast path;
   the rendered comparison runs once per session and on any
   difference. *)
let verify ?sent s out =
  let sent = Option.value sent ~default:(Array.length s.requests) in
  if sent = Array.length s.requests && s.render_checked
     && String.equal out s.expected
  then (0, 0)
  else begin
    let got = String.split_on_char '\n' (Script.render [ (0, decode_replies out) ]) in
    let want = String.split_on_char '\n' s.expected_render in
    let got = Array.of_list (List.filter (( <> ) "") got) in
    let want = Array.of_list (List.filter (( <> ) "") want) in
    let differing = ref 0 in
    Array.iteri
      (fun i line -> if i < sent && i < Array.length want && line <> want.(i) then incr differing)
      got;
    let differing = !differing + max 0 (Array.length got - sent) in
    let missing = max 0 (sent - Array.length got) in
    if differing = 0 && missing = 0 && sent = Array.length s.requests then
      s.render_checked <- true;
    (differing, missing)
  end
