(* Tests for the decision service: framing, protocol codec fuzz +
   adversarial inputs, server-core semantics (fail-closed kills,
   overload shedding, event streaming), the sim-vs-direct differential
   gate and the pinned replay digest, the Unix transport, [stacc serve]
   end to end, and the normalized CLI exit codes. *)

module Frame = Service.Frame
module Protocol = Service.Protocol
module Server = Service.Server
module Script = Service.Script
module Net_unix = Service.Net_unix
module Q = Temporal.Q

let user0 = List.hd Parallel.Workload.users
let role0 = List.hd Parallel.Workload.roles

let a_program =
  lazy
    (let rng = Random.State.make [| 0xbeef; 1 |] in
     let scen = Parallel.Workload.scenario ~objects:2 rng in
     (List.hd scen.Parallel.Scenario.objects).Parallel.Scenario.program)

let decode_frames bytes =
  let dec = Frame.Decoder.create () in
  Frame.Decoder.feed dec bytes;
  let rec go acc =
    match Frame.Decoder.next dec with
    | Ok (Some payload) -> go (payload :: acc)
    | Ok None -> List.rev acc
    | Error e -> Alcotest.failf "reply framing: %s" e
  in
  go []

let decode_replies bytes =
  List.map
    (fun payload ->
      match Protocol.decode_reply payload with
      | Ok r -> r
      | Error e -> Alcotest.failf "reply decode: %s" (Protocol.describe e))
    (decode_frames bytes)

let frame_req req = Frame.encode (Protocol.encode_request req)
let feed_req server conn req = decode_replies (Server.feed server ~conn (frame_req req))

(* --- framing --- *)

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; String.make 1000 'q'; "\x00\xff\x01" ] in
  let stream = String.concat "" (List.map Frame.encode payloads) in
  Alcotest.(check (list string)) "all frames recovered" payloads
    (decode_frames stream);
  (* byte-by-byte feeding reassembles across arbitrary splits *)
  let dec = Frame.Decoder.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      Frame.Decoder.feed dec (String.make 1 c);
      match Frame.Decoder.next dec with
      | Ok (Some p) -> got := p :: !got
      | Ok None -> ()
      | Error e -> Alcotest.failf "unexpected framing error: %s" e)
    stream;
  Alcotest.(check (list string)) "byte-by-byte" payloads (List.rev !got)

let test_frame_oversized_poisons () =
  let dec = Frame.Decoder.create ~max_frame:64 () in
  Frame.Decoder.feed dec "\xff\xff\xff\xff";
  (match Frame.Decoder.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized length prefix accepted");
  (* poisoned forever, even for later well-formed frames *)
  Frame.Decoder.feed dec (Frame.encode "ok");
  match Frame.Decoder.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "poisoned decoder recovered"

(* --- protocol codec: fuzz round-trip + adversarial inputs --- *)

let gen_bytes rng =
  let len = Random.State.int rng 12 in
  String.init len (fun _ -> Char.chr (Random.State.int rng 256))

let gen_access rng =
  let op =
    match Random.State.int rng 4 with
    | 0 -> Sral.Access.Read
    | 1 -> Sral.Access.Write
    | 2 -> Sral.Access.Execute
    | _ -> Sral.Access.Custom ("op-" ^ string_of_int (Random.State.int rng 100))
  in
  Sral.Access.make ~op ~resource:(gen_bytes rng) ~server:(gen_bytes rng)

let gen_request rng : Protocol.request =
  match Random.State.int rng 8 with
  | 0 -> Ping
  | 1 ->
      Register
        {
          object_id = gen_bytes rng;
          owner = gen_bytes rng;
          roles = List.init (Random.State.int rng 4) (fun _ -> gen_bytes rng);
          program = Lazy.force a_program;
        }
  | 2 -> Arrive { object_id = gen_bytes rng; server = gen_bytes rng }
  | 3 -> Depart { object_id = gen_bytes rng }
  | 4 -> Check { object_id = gen_bytes rng; access = gen_access rng }
  | 5 -> Activate { object_id = gen_bytes rng; role = gen_bytes rng }
  | 6 -> Join { object_id = gen_bytes rng; team = gen_bytes rng }
  | _ -> Subscribe

let gen_verdict rng : Obs.Verdict.t =
  match Random.State.int rng 7 with
  | 0 -> Granted
  | 1 -> Denied (Rbac_denied (gen_bytes rng))
  | 2 ->
      Denied
        (Spatial_violation { binding = gen_bytes rng; detail = gen_bytes rng })
  | 3 ->
      Denied
        (Temporal_expired
           {
             binding = gen_bytes rng;
             spent =
               Q.make (Random.State.int rng 1000) (1 + Random.State.int rng 60);
           })
  | 4 -> Denied (Not_active (gen_bytes rng))
  | 5 -> Denied Not_arrived
  | _ -> Denied (Server_unavailable (gen_bytes rng))

let gen_event rng : Obs.Trace.event =
  let time = Q.make (Random.State.int rng 100) (1 + Random.State.int rng 9) in
  match Random.State.int rng 4 with
  | 0 ->
      Decision
        {
          time;
          object_id = "o1";
          access = Sral.Access.read "r1" ~at:"s1";
          verdict = gen_verdict rng;
        }
  | 1 -> Arrival { time; object_id = "o1"; server = "s2" }
  | 2 -> Aborted { time; agent = "conn-3"; reason = "overload-shed" }
  | _ -> Run_finished { time }

let gen_reply rng : Protocol.reply =
  let seq = Random.State.int rng 0x3FFFFFFF in
  match Random.State.int rng 5 with
  | 0 -> Ack { seq }
  | 1 -> Verdict { seq; verdict = gen_verdict rng }
  | 2 -> Rejected { seq; reason = gen_bytes rng }
  | 3 -> Shed { seq }
  | _ -> Event (gen_event rng)

(* encode → decode → encode is the identity on bytes: the codec has one
   canonical encoding per value and decoding inverts it *)
let roundtrip ~what ~encode ~decode v =
  let bytes = encode v in
  match decode bytes with
  | Error e -> Alcotest.failf "%s: decode failed: %s" what (Protocol.describe e)
  | Ok v' ->
      if not (String.equal (encode v') bytes) then
        Alcotest.failf "%s: re-encode differs" what

let adversarial ~what ~decode bytes =
  (* every proper prefix is rejected, typed — never an exception *)
  for k = 0 to String.length bytes - 1 do
    match decode (String.sub bytes 0 k) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: %d-byte prefix accepted" what k
  done;
  (* version skew *)
  if String.length bytes > 0 then begin
    let skew = Bytes.of_string bytes in
    Bytes.set skew 0 (Char.chr (Protocol.version + 1));
    match decode (Bytes.to_string skew) with
    | Error (Protocol.Bad_version v) ->
        Alcotest.(check int) "skewed version reported" (Protocol.version + 1) v
    | Error e -> Alcotest.failf "%s: skew: wrong error %s" what (Protocol.describe e)
    | Ok _ -> Alcotest.failf "%s: future version accepted" what
  end

let test_protocol_fuzz () =
  Gen.each_seed ~salt:81 ~count:40 (fun ~seed:_ rng ->
      for _ = 1 to 25 do
        let req = gen_request rng in
        roundtrip ~what:"request" ~encode:Protocol.encode_request
          ~decode:Protocol.decode_request req;
        adversarial ~what:"request" ~decode:Protocol.decode_request
          (Protocol.encode_request req);
        let reply = gen_reply rng in
        roundtrip ~what:"reply" ~encode:Protocol.encode_reply
          ~decode:Protocol.decode_reply reply;
        adversarial ~what:"reply" ~decode:Protocol.decode_reply
          (Protocol.encode_reply reply);
        (* arbitrary garbage never raises *)
        (match Protocol.decode_request (gen_bytes rng) with
        | Ok _ | Error _ -> ());
        match Protocol.decode_reply (gen_bytes rng) with
        | Ok _ | Error _ -> ()
      done)

let test_protocol_bad_tag_and_trailing () =
  let ver = String.make 1 (Char.chr Protocol.version) in
  (match Protocol.decode_request (ver ^ "\xfa") with
  | Error (Protocol.Bad_tag 250) -> ()
  | _ -> Alcotest.fail "bad tag not reported");
  match Protocol.decode_request (Protocol.encode_request Ping ^ "junk") with
  | Error (Protocol.Malformed _) -> ()
  | _ -> Alcotest.fail "trailing bytes accepted"

(* --- server core --- *)

let register ?(object_id = "obj") ?(owner = user0) server conn =
  feed_req server conn
    (Register
       {
         object_id;
         owner;
         roles = [ role0 ];
         program = Lazy.force a_program;
       })

let test_server_basic_flow () =
  let server = Server.create ~base:(Script.base_system ()) () in
  let conn = Server.open_conn server in
  (match register server conn with
  | [ Ack { seq = 1 } ] -> ()
  | _ -> Alcotest.fail "register not acked");
  (match feed_req server conn (Arrive { object_id = "obj"; server = "s1" }) with
  | [ Ack { seq = 2 } ] -> ()
  | _ -> Alcotest.fail "arrive not acked");
  (match
     feed_req server conn
       (Check { object_id = "obj"; access = Sral.Access.read "r1" ~at:"s1" })
   with
  | [ Verdict { seq = 3; verdict = _ } ] -> ()
  | _ -> Alcotest.fail "check did not produce a verdict");
  (* unknown object *)
  (match
     feed_req server conn
       (Check { object_id = "ghost"; access = Sral.Access.read "r1" ~at:"s1" })
   with
  | [ Rejected { seq = 4; reason } ] ->
      Alcotest.(check bool) "reason names the object" true
        (String.length reason > 0)
  | _ -> Alcotest.fail "unknown object not rejected");
  (* unknown user is rejected without killing the connection *)
  (match register ~object_id:"obj2" ~owner:"nobody" server conn with
  | [ Rejected _ ] -> ()
  | _ -> Alcotest.fail "unknown user not rejected");
  Alcotest.(check bool) "conn survives domain rejections" true
    (Server.conn_alive server ~conn);
  Alcotest.(check int) "executed" 5 (Server.executed server)

let test_server_depart () =
  let server = Server.create ~base:(Script.base_system ()) () in
  let conn = Server.open_conn server in
  ignore (register server conn);
  (match feed_req server conn (Depart { object_id = "obj" }) with
  | [ Ack _ ] -> ()
  | _ -> Alcotest.fail "depart not acked");
  match
    feed_req server conn
      (Check { object_id = "obj"; access = Sral.Access.read "r1" ~at:"s1" })
  with
  | [ Rejected _ ] -> ()
  | _ -> Alcotest.fail "departed object still served"

let test_server_subscribe_streams_events () =
  let server = Server.create ~base:(Script.base_system ()) () in
  let conn = Server.open_conn server in
  (match feed_req server conn Subscribe with
  | [ Ack { seq = 1 } ] -> ()
  | _ -> Alcotest.fail "subscribe not acked");
  ignore (register server conn);
  ignore (feed_req server conn (Arrive { object_id = "obj"; server = "s1" }));
  let replies =
    feed_req server conn
      (Check { object_id = "obj"; access = Sral.Access.read "r1" ~at:"s1" })
  in
  (* events stream before the verdict that concluded them *)
  (match List.rev replies with
  | Verdict { verdict; _ } :: earlier ->
      let decision_events =
        List.filter_map
          (function
            | Protocol.Event (Obs.Trace.Decision { verdict = v; _ }) -> Some v
            | _ -> None)
          earlier
      in
      (match decision_events with
      | [ v ] ->
          Alcotest.(check bool) "traced verdict matches the reply" true
            (v = verdict)
      | _ -> Alcotest.fail "expected exactly one Decision event")
  | _ -> Alcotest.fail "last reply is not the verdict")

(* The capture sink exists only from the first Subscribe on: an
   earlier check's events are not streamed, and a second Subscribe does
   not duplicate later ones. *)
let test_server_late_subscribe () =
  let server = Server.create ~base:(Script.base_system ()) () in
  let check conn =
    feed_req server conn
      (Check { object_id = "obj"; access = Sral.Access.read "r1" ~at:"s1" })
  in
  let run ~subscribes =
    let conn = Server.open_conn server in
    ignore (register server conn);
    ignore (feed_req server conn (Arrive { object_id = "obj"; server = "s1" }));
    (match check conn with
    | [ Verdict _ ] -> ()
    | _ -> Alcotest.fail "unsubscribed check streamed events");
    for _ = 1 to subscribes do
      match feed_req server conn Subscribe with
      | [ Ack _ ] -> ()
      | _ -> Alcotest.fail "subscribe streamed an earlier event"
    done;
    List.filter_map
      (function Protocol.Event ev -> Some ev | _ -> None)
      (check conn)
  in
  let once = run ~subscribes:1 and twice = run ~subscribes:2 in
  Alcotest.(check int) "one Decision event" 1
    (List.length
       (List.filter
          (function Obs.Trace.Decision _ -> true | _ -> false)
          twice));
  Alcotest.(check bool) "spans streamed" true (List.length once > 1);
  Alcotest.(check int) "second subscribe duplicates nothing"
    (List.length once) (List.length twice)

let test_server_malformed_kills () =
  let server = Server.create ~base:(Script.base_system ()) () in
  let conn = Server.open_conn server in
  ignore (register server conn);
  let replies =
    decode_replies (Server.feed server ~conn (Frame.encode "\xff\xff\xff"))
  in
  (match replies with
  | [ Rejected _ ] -> ()
  | _ -> Alcotest.fail "malformed payload not rejected");
  Alcotest.(check bool) "connection killed" false (Server.conn_alive server ~conn);
  Alcotest.(check string) "dead connection ignored" ""
    (Server.feed server ~conn (frame_req Ping));
  Alcotest.(check int) "malformed audited" 1 (Server.malformed server)

let test_server_oversized_frame_kills () =
  let server = Server.create ~base:(Script.base_system ()) () in
  let conn = Server.open_conn server in
  let replies = decode_replies (Server.feed server ~conn "\xff\xff\xff\xff") in
  (match replies with
  | [ Rejected { reason; _ } ] ->
      Alcotest.(check bool) "reason mentions the limit" true
        (String.length reason > 0)
  | _ -> Alcotest.fail "oversized frame not rejected");
  Alcotest.(check bool) "connection killed" false (Server.conn_alive server ~conn)

let test_server_sheds_overload () =
  let config = { Server.queue_capacity = 2 } in
  let server = Server.create ~config ~base:(Script.base_system ()) () in
  let conn = Server.open_conn server in
  ignore (register server conn);
  ignore (feed_req server conn (Arrive { object_id = "obj"; server = "s1" }));
  let burst =
    String.concat ""
      (List.init 5 (fun _ ->
           frame_req
             (Check { object_id = "obj"; access = Sral.Access.read "r1" ~at:"s1" })))
  in
  let replies = decode_replies (Server.feed server ~conn burst) in
  let verdicts =
    List.length (List.filter (function Protocol.Verdict _ -> true | _ -> false) replies)
  and sheds =
    List.length (List.filter (function Protocol.Shed _ -> true | _ -> false) replies)
  in
  Alcotest.(check int) "capacity executed" 2 verdicts;
  Alcotest.(check int) "rest shed" 3 sheds;
  Alcotest.(check int) "shed counter" 3 (Server.shed server);
  Alcotest.(check bool) "shedding is not fatal" true
    (Server.conn_alive server ~conn)

(* A refusal quotes at most a fixed prefix of the untrusted text it
   names, so a megabyte request cannot buy a multi-megabyte reply; a
   short name keeps its %S bytes. *)
let test_refusals_bounded () =
  let big = 1_000_000 in
  let bounded what out =
    if String.length out >= 512 then
      Alcotest.failf "%s: %d-byte reply" what (String.length out);
    match decode_replies out with
    | [ Rejected _ ] -> ()
    | _ -> Alcotest.failf "%s: want one Rejected reply" what
  in
  Alcotest.(check string) "short text quoted as before" "\"o\\255\""
    (Protocol.quote "o\xff");
  let server = Server.create ~base:(Script.base_system ()) () in
  let conn = Server.open_conn server in
  bounded "depart of an unknown 1 MB id"
    (Server.feed server ~conn (frame_req (Depart { object_id = String.make big '\xff' })));
  Alcotest.(check bool) "a domain refusal is not fatal" true
    (Server.conn_alive server ~conn);
  (* a Register whose program text is 1 MB of 0xff: undecodable *)
  let str s =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int (String.length s));
    Bytes.to_string b ^ s
  in
  let register =
    String.concat ""
      [
        String.make 1 (Char.chr Protocol.version); "\x01"; str "obj"; str user0;
        "\x00\x00\x00\x00"; str (String.make big '\xff');
      ]
  in
  bounded "register of a 1 MB bad program" (Server.feed server ~conn (Frame.encode register));
  Alcotest.(check bool) "connection killed" false (Server.conn_alive server ~conn);
  Alcotest.(check string) "dead connection ignored" ""
    (Server.feed server ~conn (frame_req Ping))

(* --- the server's program memo --- *)

(* A Register payload carrying [text] as its program, parsable or not. *)
let register_text ~object_id text =
  let str s =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int (String.length s));
    Bytes.to_string b ^ s
  in
  Frame.encode
    (String.concat ""
       [
         String.make 1 (Char.chr Protocol.version); "\x01"; str object_id;
         str user0; "\x00\x00\x00\x00"; str text;
       ])

let memo_size server = Protocol.Programs.size (Server.programs server)

let test_memo_shares_programs () =
  let server = Server.create ~base:(Script.base_system ()) () in
  let text = Sral.Pretty.to_string (Lazy.force a_program) in
  let registered conn =
    (match decode_replies (Server.feed server ~conn (register_text ~object_id:"obj" text)) with
    | [ Ack _ ] -> ()
    | _ -> Alcotest.fail "register not acknowledged");
    match Server.program server ~conn ~object_id:"obj" with
    | Some p -> p
    | None -> Alcotest.fail "no program registered"
  in
  let p1 = registered (Server.open_conn server) in
  let p2 = registered (Server.open_conn server) in
  Alcotest.(check bool) "one program for one text" true (p1 == p2);
  Alcotest.(check bool) "the parser's program" true
    (Sral.Ast.equal p1 (Sral.Parser.program text));
  Alcotest.(check int) "one entry" 1 (memo_size server)

(* A bad program is refused with the bytes it always got, kills the
   connection and leaves nothing behind: the next connection to send it
   is refused alike. *)
let test_memo_skips_bad_programs () =
  let server = Server.create ~base:(Script.base_system ()) () in
  let text = "read r1 @" in
  let expected =
    [
      Protocol.Rejected
        {
          seq = 1;
          reason = Printf.sprintf "malformed payload: bad program %S" text;
        };
    ]
  in
  for _ = 1 to 2 do
    let conn = Server.open_conn server in
    let replies =
      decode_replies (Server.feed server ~conn (register_text ~object_id:"obj" text))
    in
    Alcotest.(check bool) "same Rejected bytes" true
      (List.map Protocol.encode_reply replies
      = List.map Protocol.encode_reply expected);
    Alcotest.(check bool) "connection killed" false (Server.conn_alive server ~conn)
  done;
  Alcotest.(check int) "nothing memoized" 0 (memo_size server)

let test_memo_bounded () =
  let server = Server.create ~base:(Script.base_system ()) () in
  let conn = Server.open_conn server in
  let register i text =
    match
      decode_replies
        (Server.feed server ~conn
           (register_text ~object_id:(Printf.sprintf "o%d" i) text))
    with
    | [ Ack _ ] -> ()
    | _ -> Alcotest.failf "register %d not acknowledged" i
  in
  let long =
    String.concat "; " (List.init 500 (fun i -> Printf.sprintf "read r%d @ s1" i))
  in
  Alcotest.(check bool) "over the size cap" true
    (String.length long > Protocol.Programs.max_text);
  register 0 long;
  Alcotest.(check int) "an oversized text is not kept" 0 (memo_size server);
  for i = 1 to Protocol.Programs.cap + 1 do
    register i (Printf.sprintf "read r%d @ s1" i)
  done;
  let held = memo_size server in
  if held < 1 || held > Protocol.Programs.cap then
    Alcotest.failf "%d entries after %d distinct texts (cap %d)" held
      (Protocol.Programs.cap + 1) Protocol.Programs.cap

(* An RBAC denial names the request's operation, resource and server;
   each is clipped at its source, so a Check naming a 1 MB resource gets
   a small verdict. *)
let test_rbac_denial_bounded () =
  let server = Server.create ~base:(Script.base_system ()) () in
  let conn = Server.open_conn server in
  ignore (register server conn);
  ignore (feed_req server conn (Arrive { object_id = "obj"; server = "s1" }));
  let access =
    Sral.Access.custom "hash" (String.make 1_000_000 '\xff') ~at:"s1"
  in
  let out =
    Server.feed server ~conn (frame_req (Check { object_id = "obj"; access }))
  in
  if String.length out >= 512 then
    Alcotest.failf "%d-byte reply to a 1 MB resource" (String.length out);
  match decode_replies out with
  | [ Verdict { verdict = Denied (Rbac_denied why); _ } ] ->
      Alcotest.(check string) "clipped denial"
        (Printf.sprintf
           "no active role of %s grants hash on %s... (1000003 bytes)" user0
           (String.make 64 '\xff'))
        why
  | _ -> Alcotest.fail "want one RBAC-denied verdict"

(* Split a reply stream into (events, direct reply) pairs: each direct
   reply with the events streamed just before it. *)
let with_events replies =
  let rec go evs = function
    | Protocol.Event ev :: rest -> go (ev :: evs) rest
    | r :: rest -> (List.rev evs, r) :: go [] rest
    | [] -> if evs <> [] then Alcotest.fail "events after the last reply" else []
  in
  go [] replies

(* One chunk, several outcomes, in frame order: executed up to the
   capacity, then shed (a malformed payload past the capacity is shed
   undecoded); a malformed payload within it kills the connection. *)
let test_server_chunk_outcomes () =
  let config = { Server.queue_capacity = 2 } in
  let server = Server.create ~config ~base:(Script.base_system ()) () in
  let conn = Server.open_conn server in
  ignore (feed_req server conn Subscribe);
  ignore (register server conn);
  ignore (feed_req server conn (Arrive { object_id = "obj"; server = "s1" }));
  let check =
    frame_req (Check { object_id = "obj"; access = Sral.Access.read "r1" ~at:"s1" })
  and garbage = Frame.encode "\xff\xff\xff" in
  let feed frames =
    with_events (decode_replies (Server.feed server ~conn (String.concat "" frames)))
  in
  let traced_verdict seq = function
    | evs, Protocol.Verdict { seq = s; verdict } when s = seq ->
        let decided =
          List.filter_map
            (function Obs.Trace.Decision { verdict; _ } -> Some verdict | _ -> None)
            evs
        in
        if decided <> [ verdict ] then
          Alcotest.failf "verdict %d is not preceded by its Decision event" seq
    | _ -> Alcotest.failf "reply %d is not a verdict" seq
  in
  let aborted reason = function
    | [ Obs.Trace.Aborted { reason = r; _ } ] -> r = reason
    | _ -> false
  in
  (match feed [ check; check; check; garbage; check ] with
  | [ v4; v5; s6; s7; s8 ] ->
      traced_verdict 4 v4;
      traced_verdict 5 v5;
      List.iteri
        (fun k -> function
          | evs, Protocol.Shed { seq } when seq = 6 + k && aborted "overload-shed" evs
            ->
              ()
          | _ -> Alcotest.failf "reply %d is not an audited shed" (6 + k))
        [ s6; s7; s8 ]
  | replies -> Alcotest.failf "first chunk: %d replies, want 5" (List.length replies));
  Alcotest.(check bool) "shedding is not fatal" true (Server.conn_alive server ~conn);
  Alcotest.(check int) "shed payload not decoded" 0 (Server.malformed server);
  (match feed [ check; garbage; check ] with
  | [ v9; (evs, Protocol.Rejected { seq = 10; _ }) ] when aborted "malformed-frame" evs ->
      traced_verdict 9 v9
  | _ -> Alcotest.fail "second chunk: want a verdict, then an audited kill");
  Alcotest.(check bool) "connection killed" false (Server.conn_alive server ~conn);
  Alcotest.(check int) "malformed audited" 1 (Server.malformed server)

(* A connection's reply bytes depend on its frames, not on where the
   transport cut its byte stream, as long as no chunk completes more
   frames than the capacity. *)
let test_feed_segmentation () =
  let base = Script.base_system () in
  Gen.each_seed ~salt:85 ~count:10 (fun ~seed rng ->
      let conns = 2 in
      let script = Script.generate ~conns ~requests:60 ~seed () in
      let frames c =
        List.filter_map
          (fun (e : Script.entry) -> if e.conn = c then Some (frame_req e.req) else None)
          script
      in
      let config = { Server.queue_capacity = List.length script + 1 } in
      let replies chunks =
        let server = Server.create ~config ~base () in
        let conn = Server.open_conn server in
        String.concat "" (List.map (Server.feed server ~conn) chunks)
      in
      for c = 0 to conns - 1 do
        let stream = String.concat "" (frames c) in
        let n = String.length stream in
        let cuts =
          List.sort_uniq compare
            (0 :: n :: List.init (Random.State.int rng 12) (fun _ -> Random.State.int rng (n + 1)))
        in
        let rec chunks = function
          | a :: (b :: _ as rest) -> String.sub stream a (b - a) :: chunks rest
          | _ -> []
        in
        if not (String.equal (replies (frames c)) (replies (chunks cuts))) then
          Alcotest.failf "conn %d at seed %d: reply bytes depend on segmentation" c seed
      done)

let test_feed_batch_conforms () =
  let base = Script.base_system () in
  Gen.each_seed ~salt:82 ~count:5 (fun ~seed _rng ->
      let script = Script.generate ~conns:3 ~requests:40 ~seed () in
      let run_with driver =
        let server = Server.create ~base () in
        let ids = Array.init 3 (fun _ -> Server.open_conn server) in
        let outs = Array.make 3 [] in
        driver server ids outs;
        Array.map (fun chunks -> String.concat "" (List.rev chunks)) outs
      in
      let sequential =
        run_with (fun server ids outs ->
            List.iter
              (fun (e : Script.entry) ->
                let out = Server.feed server ~conn:ids.(e.conn) (frame_req e.req) in
                outs.(e.conn) <- out :: outs.(e.conn))
              script)
      in
      let batched =
        run_with (fun server ids outs ->
            let items =
              List.map
                (fun (e : Script.entry) -> (ids.(e.conn), frame_req e.req))
                script
            in
            List.iter
              (fun (conn, out) ->
                let c = ref 0 in
                Array.iteri (fun i id -> if id = conn then c := i) ids;
                outs.(!c) <- out :: outs.(!c))
              (Server.feed_batch server items))
      in
      Array.iteri
        (fun i a ->
          if not (String.equal a batched.(i)) then
            Alcotest.failf "feed_batch diverges on conn %d at seed %d" i seed)
        sequential)

(* --- the differential gate --- *)

let test_differential_gate () =
  let base = Script.base_system () in
  Gen.each_seed ~salt:83 ~count:15 (fun ~seed _rng ->
      let script = Script.generate ~conns:3 ~requests:60 ~seed () in
      let sim = Script.render (Script.run_sim ~base script) in
      let direct = Script.render (Script.drive_direct ~base script) in
      if not (String.equal sim direct) then
        Alcotest.failf "sim and direct drives diverge at seed %d" seed;
      let sim2 = Script.render (Script.run_sim ~base script) in
      if not (String.equal sim sim2) then
        Alcotest.failf "sim replay is not deterministic at seed %d" seed)

(* [Server] keeps the monitor it fetched at [Register] and decides
   through it.  A departed object that registers again on the same
   connection must get the same monitor back, arrival and history
   and all: the binding allows one read, so the second check is denied
   by the spatial stage exactly as the by-id direct drive denies it. *)
let test_reregister_keeps_monitor () =
  let base =
    Coordinated.System.of_policy_text
      "user u\nrole r\nassign u r\ngrant r *:*@*\n\
       bind read:r1@s1 spatial \"count(0, 1, op=read)\" scope performed\n"
  in
  let read = Sral.Access.read "r1" ~at:"s1" in
  let register : Protocol.request =
    Register
      {
        object_id = "o";
        owner = "u";
        roles = [ "r" ];
        program = Sral.Parser.program "skip";
      }
  in
  let check : Protocol.request = Check { object_id = "o"; access = read } in
  let script =
    List.map
      (fun req -> { Script.conn = 0; req })
      [
        register;
        Arrive { object_id = "o"; server = "s1" };
        check;
        Depart { object_id = "o" };
        register;
        check;
      ]
  in
  let sim = Script.run_sim ~base script in
  Alcotest.(check string) "sim = direct"
    (Script.render (Script.drive_direct ~base script))
    (Script.render sim);
  match sim with
  | [
      (0, [ _; _; Verdict { verdict = first; _ }; _; _; Verdict { verdict; _ } ]);
    ] ->
      Alcotest.(check bool) "first read granted" true
        (Coordinated.Decision.is_granted first);
      Alcotest.(check string) "second read denied by the kept history"
        "spatial"
        (match verdict with
        | Obs.Verdict.Denied (Obs.Verdict.Spatial_violation _) -> "spatial"
        | v -> Format.asprintf "%a" Coordinated.Decision.pp_verdict v)
  | _ -> Alcotest.fail "unexpected reply shape"

(* [Server]'s connection table hashes an id by itself and its object
   tables hash a name by [Sral.Access.hash_name].  One connection
   registers 512 objects whose ids differ only in their last two bytes
   (the last one takes every byte value), checks them, departs a third
   and re-registers all; then 1,000 connections open and most close
   again, and the ones left open must still be served, each on its own
   clock, with [executed] keeping what the closed ones ran. *)
let test_server_tables () =
  let base =
    Coordinated.System.of_policy_text
      "user u\nrole r\nassign u r\ngrant r read:*@s1\n"
  in
  let id i =
    String.make 40 'o' ^ String.make 1 (Char.chr (0xf0 + (i / 256)))
    ^ String.make 1 (Char.chr (i mod 256))
  in
  let each f = List.init 512 f in
  let register i : Protocol.request =
    Register
      {
        object_id = id i;
        owner = "u";
        roles = [ "r" ];
        program = Sral.Parser.program "skip";
      }
  in
  let check op i : Protocol.request =
    Check
      {
        object_id = id i;
        access = Sral.Access.make ~op ~resource:"r1" ~server:"s1";
      }
  in
  let requests =
    each register
    @ each (fun i : Protocol.request -> Arrive { object_id = id i; server = "s1" })
    @ each (fun i -> check (if i mod 2 = 0 then Read else Write) i)
    @ List.filter_map
        (fun i : Protocol.request option ->
          if i mod 3 = 0 then Some (Depart { object_id = id i }) else None)
        (each Fun.id)
    @ each (check Read) @ each register @ each (check Read)
  in
  let script = List.map (fun req -> { Script.conn = 0; req }) requests in
  let sim = Script.run_sim ~base script in
  Alcotest.(check string) "sim = direct"
    (Script.render (Script.drive_direct ~base script))
    (Script.render sim);
  let granted = ref 0 and denied = ref 0 and refused = ref 0 in
  List.iter
    (fun (_, replies) ->
      List.iter
        (function
          | Protocol.Verdict { verdict; _ } ->
              if Coordinated.Decision.is_granted verdict then incr granted
              else incr denied
          | Rejected _ -> incr refused
          | _ -> ())
        replies)
    sim;
  (* 256 + 341 + 512 reads granted, 256 writes denied; 171 departed
     objects unknown, 341 still registered *)
  Alcotest.(check (list int)) "granted, denied, refused" [ 1109; 256; 512 ]
    [ !granted; !denied; !refused ];
  let server = Server.create ~base () in
  let ping = frame_req Ping in
  let kept =
    List.filter_map
      (fun i ->
        let conn = Server.open_conn server in
        ignore (Server.feed server ~conn ping);
        if i mod 4 = 0 then Some conn
        else begin
          Server.close_conn server ~conn;
          None
        end)
      (List.init 1000 Fun.id)
  in
  Alcotest.(check int) "ids stay distinct" 250
    (List.length (List.sort_uniq Int.compare kept));
  Alcotest.(check int) "executed before the closes" 1000
    (Server.executed server);
  List.iter
    (fun conn ->
      match feed_req server conn Ping with
      | [ Ack { seq = 2 } ] -> ()
      | _ -> Alcotest.failf "open connection %d not served" conn)
    kept;
  Alcotest.(check bool) "a closed connection is gone" false
    (Server.conn_alive server ~conn:1
    || Server.feed server ~conn:1 ping <> "");
  Alcotest.(check int) "executed keeps closed connections" 1250
    (Server.executed server)

(* sim = direct compares two drives, so a change that moved both would
   pass it unseen; this pins the reply bytes themselves.  Update the
   digest only for an intended change to the reply bytes, and name that
   change in CHANGES.md. *)
let test_replay_digest () =
  let base = Script.base_system () in
  let script = Script.generate ~requests:300 ~seed:3 () in
  Alcotest.(check string)
    "sha1 of the seed-3 replay" "32d7568b9111f8af44635e8ca1cf9bcafa8305f0"
    (Crypto.Sha1.hex_of_string (Script.render (Script.run_sim ~base script)))

(* The wire path against the naive oracle: an svc-deep-shaped script
   (two objects, a long mixed warm-up, then a window of checks) through
   the full stack on the lazy decision path must render the replies
   the direct drive renders on the naive one.  sim = direct decides
   both drives on one path, so a wrong decision there shows in
   neither. *)
let wire_servers = [ "s1"; "s2"; "s3" ]
let wire_resources = [ "r1"; "r2"; "r3" ]

let deep_script ~seed =
  let rng = Random.State.make [| 0xdee9; seed |] in
  let objects = [ "o0"; "o1" ] in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let access () =
    let r = pick wire_resources and s = pick wire_servers in
    match Random.State.int rng 3 with
    | 0 -> Sral.Access.read r ~at:s
    | 1 -> Sral.Access.write r ~at:s
    | _ -> Sral.Access.execute r ~at:s
  in
  let check () : Protocol.request =
    Check { object_id = pick objects; access = access () }
  in
  let mixed () : Protocol.request =
    let object_id = pick objects in
    match Random.State.int rng 100 with
    | r when r < 70 -> check ()
    | r when r < 82 -> Arrive { object_id; server = pick wire_servers }
    | r when r < 90 -> Activate { object_id; role = pick Parallel.Workload.roles }
    | r when r < 95 -> Join { object_id; team = pick Parallel.Workload.team_names }
    | _ -> Ping
  in
  let opening =
    List.mapi
      (fun k object_id : Protocol.request ->
        Register
          {
            object_id;
            owner = List.nth Parallel.Workload.users k;
            roles = Parallel.Workload.roles;
            program = Lazy.force a_program;
          })
      objects
    @ List.map
        (fun object_id : Protocol.request -> Arrive { object_id; server = "s1" })
        objects
  in
  List.map
    (fun req -> { Script.conn = 0; req })
    (opening @ List.init 1500 (fun _ -> mixed ()) @ List.init 300 (fun _ -> check ()))

let test_wire_vs_naive_oracle () =
  let lazy_base = Script.base_system ~mode:Coordinated.System.Lazy () in
  let naive_base = Script.base_system ~mode:Coordinated.System.Naive () in
  List.iter
    (fun seed ->
      let script = deep_script ~seed in
      let sim = Script.render (Script.run_sim ~base:lazy_base script) in
      let oracle = Script.render (Script.drive_direct ~base:naive_base script) in
      if not (String.equal sim oracle) then
        Alcotest.failf "seed %d: the wire path on lazy differs from the naive oracle"
          seed)
    [ 1; 2 ]

(* A warm [Server.feed] of one [Check] frame, on a connection with an
   arrived object and no trace sink, allocates at most [budget] minor
   words on average: once for a granted access, once for an
   RBAC-denied one. *)
let words_per_feed_budget = 64.

let warm_check_conn () =
  let server = Server.create ~base:(Script.base_system ()) () in
  let conn = Server.open_conn server in
  ignore
    (feed_req server conn
       (Register
          {
            object_id = "obj";
            owner = user0;
            roles = Parallel.Workload.roles;
            program = Lazy.force a_program;
          }));
  ignore (feed_req server conn (Arrive { object_id = "obj"; server = "s1" }));
  (server, conn)

let verdict_of server conn access =
  match feed_req server conn (Check { object_id = "obj"; access }) with
  | [ Verdict { verdict; _ } ] -> verdict
  | _ -> Alcotest.fail "check did not produce one verdict"

let test_feed_allocation () =
  let server, conn = warm_check_conn () in
  let candidates =
    List.concat_map
      (fun r ->
        List.concat_map
          (fun s ->
            [ Sral.Access.read r ~at:s; Sral.Access.write r ~at:s; Sral.Access.execute r ~at:s ])
          wire_servers)
      wire_resources
  in
  let find what p =
    match List.find_opt (fun a -> p (verdict_of server conn a)) candidates with
    | Some a -> a
    | None -> Alcotest.failf "no %s access in the service population" what
  in
  let granted = find "granted" Obs.Verdict.is_granted in
  let denied =
    find "RBAC-denied" (function Obs.Verdict.Denied (Rbac_denied _) -> true | _ -> false)
  in
  let feeds = 2_000 in
  List.iter
    (fun (what, access) ->
      let frame = frame_req (Check { object_id = "obj"; access }) in
      for _ = 1 to 64 do
        ignore (Server.feed server ~conn frame)
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to feeds do
        ignore (Server.feed server ~conn frame)
      done;
      let words = (Gc.minor_words () -. w0) /. float_of_int feeds in
      Printf.printf "%s check: %.1f minor words per feed\n" what words;
      if words > words_per_feed_budget then
        Alcotest.failf "%s check: %.1f minor words per feed, budget %.0f" what words
          words_per_feed_budget)
    [ ("granted", granted); ("RBAC-denied", denied) ]

(* --- the real transport --- *)

let with_listener f =
  let path = Filename.temp_file "stacc_serve" ".sock" in
  let listener = Net_unix.listen (Unix_path path) in
  let server = Server.create ~base:(Script.base_system ()) () in
  let finally () = Net_unix.shutdown listener in
  Fun.protect ~finally (fun () -> f path listener server)

(* Pump until the client's reply lands; client and server share this
   thread. *)
let await listener server client =
  let rec go n =
    if n = 0 then Alcotest.fail "no reply from unix transport"
    else begin
      ignore (Net_unix.step listener ~server ~timeout:0.05);
      match Net_unix.Client.drain client with
      | [] -> go (n - 1)
      | replies -> replies
    end
  in
  go 100

(* A raw peer, for byte streams [Net_unix.Client] will not send. *)
let raw_connect path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX path);
  fd

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let test_unix_transport () =
  with_listener (fun path listener server ->
      let client = Net_unix.Client.connect (Unix_path path) in
      let await () = await listener server client in
      Net_unix.Client.send client Ping;
      (match await () with
      | [ Ack { seq = 1 } ] -> ()
      | _ -> Alcotest.fail "ping not acked over unix socket");
      Net_unix.Client.send client
        (Register
           {
             object_id = "obj";
             owner = user0;
             roles = [ role0 ];
             program = Lazy.force a_program;
           });
      (match await () with
      | [ Ack { seq = 2 } ] -> ()
      | _ -> Alcotest.fail "register not acked over unix socket");
      Net_unix.Client.send client (Arrive { object_id = "obj"; server = "s1" });
      ignore (await ());
      Net_unix.Client.send client
        (Check { object_id = "obj"; access = Sral.Access.read "r1" ~at:"s1" });
      (match await () with
      | [ Verdict { seq = 4; _ } ] -> ()
      | _ -> Alcotest.fail "check not answered over unix socket");
      Net_unix.Client.close client)

(* [Client.request] against a peer that streams more events ahead of
   its reply than one read returns: every event comes back, in order,
   before the reply, and an event sent behind the reply is left for the
   next [drain]. *)
let test_client_request_streams_events () =
  let path = Filename.temp_file "stacc_client" ".sock" in
  Sys.remove path;
  let listener = Unix.socket PF_UNIX SOCK_STREAM 0 in
  let finally () =
    Unix.close listener;
    try Sys.remove path with Sys_error _ -> ()
  in
  Fun.protect ~finally (fun () ->
      Unix.bind listener (ADDR_UNIX path);
      Unix.listen listener 1;
      let client = Net_unix.Client.connect (Unix_path path) in
      let peer, _ = Unix.accept listener in
      let finally () =
        Net_unix.Client.close client;
        Unix.close peer
      in
      Fun.protect ~finally (fun () ->
          let event k =
            Protocol.Event
              (Obs.Trace.Completed { time = Q.of_int k; agent = "a" })
          in
          let events = List.init 2_000 event in
          let behind = event 2_000 in
          let bytes =
            String.concat ""
              (List.map
                 (fun r -> Frame.encode (Protocol.encode_reply r))
                 (events @ [ Protocol.Ack { seq = 1 }; behind ]))
          in
          Alcotest.(check bool) "more than one read's worth" true
            (String.length bytes > 65536);
          (* written whole before the client reads: the socket buffer
             must hold it *)
          Unix.setsockopt_int peer SO_SNDBUF (4 * String.length bytes);
          write_all peer bytes;
          (match Net_unix.Client.request client Ping with
          | Protocol.Ack { seq = 1 }, got ->
              Alcotest.(check int) "every event" 2_000 (List.length got);
              Alcotest.(check bool) "in order" true (got = events)
          | _ -> Alcotest.fail "no Ack after the events");
          Alcotest.(check bool) "the event behind the reply waits" true
            (Net_unix.Client.drain client = [ behind ])))

(* The server must outlive a misbehaving peer, and keep serving the
   others. *)
let bystander_served listener server bystander =
  Net_unix.Client.send bystander Ping;
  match await listener server bystander with
  | [ Ack _ ] -> ()
  | _ -> Alcotest.fail "bystander not served after a peer failed"

let test_unix_peer_hangs_up () =
  with_listener (fun path listener server ->
      let bystander = Net_unix.Client.connect (Unix_path path) in
      let fd = raw_connect path in
      write_all fd (String.concat "" (List.init 10 (fun _ -> frame_req Ping)));
      Unix.close fd;
      (* its replies go to a closed socket: EPIPE, not a fatal SIGPIPE *)
      for _ = 1 to 5 do
        ignore (Net_unix.step listener ~server ~timeout:0.05)
      done;
      Alcotest.(check int) "the hung-up peer's pings ran" 10 (Server.executed server);
      bystander_served listener server bystander;
      Net_unix.Client.close bystander)

let test_unix_reader_never_drains () =
  with_listener (fun path listener server ->
      let bystander = Net_unix.Client.connect (Unix_path path) in
      let fd = raw_connect path in
      let burst = String.concat "" (List.init 200 (fun _ -> frame_req Ping)) in
      (* its socket fills until a reply write would block; the server
         then drops it, and the peer's next write fails *)
      let rec pump n =
        if n = 0 then Alcotest.fail "a peer that never reads was never dropped"
        else
          match write_all fd burst with
          | exception Unix.Unix_error _ -> ()
          | () ->
              ignore (Net_unix.step listener ~server ~timeout:0.05);
              pump (n - 1)
      in
      pump 2000;
      Unix.close fd;
      bystander_served listener server bystander;
      Net_unix.Client.close bystander)

(* --- the load harness --- *)

let test_load_closed () =
  let r = Service.Load.closed ~base:(Script.base_system ()) ~requests:300 () in
  Alcotest.(check int) "every request completed" 300 r.completed;
  Alcotest.(check int) "none shed" 0 r.shed;
  Alcotest.(check int) "one latency sample each" 300 (Obs.Stats.hist_count r.latency)

(* Far past saturation with one frame per feed allowed: at 10⁹/s every
   request is due within microseconds, so the per-connection chunks
   carry more than one frame and the tails are shed. *)
let test_load_open_loop_sheds () =
  let r =
    Service.Load.open_loop ~queue:1 ~base:(Script.base_system ()) ~requests:2000
      ~rate:1e9 ()
  in
  Alcotest.(check int) "completed + shed = requests" 2000 (r.completed + r.shed);
  Alcotest.(check bool) "saturated" true (r.shed > 0);
  Alcotest.(check int) "a latency sample per completed request" r.completed
    (Obs.Stats.hist_count r.latency)

(* The build tree this test runs from ([_build/default] under dune),
   found from the executable, so the suite runs from any directory. *)
let build_root = Filename.dirname (Filename.dirname Sys.executable_name)
let stacc_exe = Filename.concat build_root "bin/stacc.exe"

(* The daemon itself, as a separate process: two pings over its socket,
   then a clean exit at --max-requests.  Every wait has a deadline, and
   the process is killed whatever happens. *)
let test_serve_end_to_end () =
  let path = Filename.temp_file "stacc_serve" ".sock" in
  Sys.remove path;
  let null = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let pid =
    Unix.create_process stacc_exe
      [| "stacc"; "serve"; "--socket"; path; "--max-requests"; "2" |]
      null null null
  in
  Unix.close null;
  let reaped = ref None in
  let finally () =
    if !reaped = None then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    end;
    try Sys.remove path with Sys_error _ -> ()
  in
  let wait_until ~what ready =
    let deadline = Unix.gettimeofday () +. 10.0 in
    while not (ready ()) do
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "stacc serve: %s within 10 s" what;
      Unix.sleepf 0.01
    done
  in
  Fun.protect ~finally (fun () ->
      (* the socket file appears at bind, before the daemon listens, so
         readiness is a connect that succeeds *)
      let client = ref None in
      wait_until ~what:"no connection" (fun () ->
          match Net_unix.Client.connect (Unix_path path) with
          | c ->
              client := Some c;
              true
          | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) -> false);
      let client = Option.get !client in
      Fun.protect
        ~finally:(fun () -> Net_unix.Client.close client)
        (fun () ->
          List.iter
            (fun want ->
              match Net_unix.Client.request client Ping with
              | Ack { seq }, [] when seq = want -> ()
              | _ -> Alcotest.failf "ping %d not acked" want)
            [ 1; 2 ]);
      wait_until ~what:"no exit after two requests" (fun () ->
          match Unix.waitpid [ WNOHANG ] pid with
          | 0, _ -> false
          | _, status ->
              reaped := Some status;
              true);
      match !reaped with
      | Some (WEXITED 0) -> ()
      | _ -> Alcotest.fail "stacc serve did not exit 0")

(* --- normalized CLI exit codes (PR 8 satellite) --- *)

let stacc args =
  Sys.command
    (Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote stacc_exe) args)

let test_cli_bad_usage_exits_2 () =
  let subcommands =
    [
      "parse"; "traces"; "check"; "dot"; "audit"; "trace"; "chaos"; "workflow";
      "bench-parallel"; "policy"; "lint"; "analyze"; "simulate"; "serve"; "load";
    ]
  in
  List.iter
    (fun sub ->
      let rc = stacc (sub ^ " --definitely-not-a-flag") in
      if rc <> 2 then
        Alcotest.failf "%s: bad flag exited %d, want 2" sub rc)
    subcommands;
  Alcotest.(check int) "unknown subcommand" 2 (stacc "frobnicate");
  Alcotest.(check int) "bad rational deadline" 2
    (stacc
       ("audit --deadline not-a-q "
       ^ Filename.concat build_root "examples/policies/fig1.policy"));
  Alcotest.(check int) "missing file is usage" 2 (stacc "check /no/such/file");
  List.iter
    (fun args -> Alcotest.(check int) args 2 (stacc args))
    [ "load --rate 0"; "load --rate=-5" ]

let test_cli_help_exits_0 () =
  Alcotest.(check int) "group help" 0 (stacc "--help");
  Alcotest.(check int) "subcommand help" 0 (stacc "serve --help");
  Alcotest.(check int) "load help" 0 (stacc "load --help")

let () =
  Alcotest.run "service"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip and reassembly" `Quick
            test_frame_roundtrip;
          Alcotest.test_case "oversized prefix poisons" `Quick
            test_frame_oversized_poisons;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "fuzz roundtrip + adversarial" `Quick
            test_protocol_fuzz;
          Alcotest.test_case "bad tag and trailing bytes" `Quick
            test_protocol_bad_tag_and_trailing;
        ] );
      ( "server",
        [
          Alcotest.test_case "basic request flow" `Quick test_server_basic_flow;
          Alcotest.test_case "depart forgets the object" `Quick
            test_server_depart;
          Alcotest.test_case "subscribe streams trace events" `Quick
            test_server_subscribe_streams_events;
          Alcotest.test_case "late subscribe streams later events once" `Quick
            test_server_late_subscribe;
          Alcotest.test_case "malformed payload kills fail-closed" `Quick
            test_server_malformed_kills;
          Alcotest.test_case "oversized frame kills fail-closed" `Quick
            test_server_oversized_frame_kills;
          Alcotest.test_case "overload sheds auditable" `Quick
            test_server_sheds_overload;
          Alcotest.test_case "refusals quote a bounded prefix" `Quick
            test_refusals_bounded;
          Alcotest.test_case "feed_batch = feed" `Quick test_feed_batch_conforms;
          Alcotest.test_case "tables: near-twin ids, connection churn" `Quick
            test_server_tables;
          Alcotest.test_case "one chunk, several outcomes" `Quick
            test_server_chunk_outcomes;
          Alcotest.test_case "segmentation leaves replies alone" `Quick
            test_feed_segmentation;
          Alcotest.test_case "RBAC denials quote a bounded prefix" `Quick
            test_rbac_denial_bounded;
        ] );
      ( "program memo",
        [
          Alcotest.test_case "one text, one program across connections"
            `Quick test_memo_shares_programs;
          Alcotest.test_case "bad programs refused alike, not kept" `Quick
            test_memo_skips_bad_programs;
          Alcotest.test_case "bounded in entries and text size" `Quick
            test_memo_bounded;
        ] );
      ( "differential",
        [
          Alcotest.test_case "sim = direct, byte-identical" `Quick
            test_differential_gate;
          Alcotest.test_case "replay bytes pinned" `Quick test_replay_digest;
          Alcotest.test_case "re-registered object keeps its monitor" `Quick
            test_reregister_keeps_monitor;
          Alcotest.test_case "wire path on lazy = naive oracle" `Quick
            test_wire_vs_naive_oracle;
          Alcotest.test_case "warm check feed allocation" `Quick
            test_feed_allocation;
        ] );
      ( "transport",
        [
          Alcotest.test_case "unix socket smoke" `Quick test_unix_transport;
          Alcotest.test_case "request streams events in order" `Quick
            test_client_request_streams_events;
          Alcotest.test_case "peer hangs up before reading" `Quick
            test_unix_peer_hangs_up;
          Alcotest.test_case "peer never drains its socket" `Quick
            test_unix_reader_never_drains;
          Alcotest.test_case "stacc serve end to end" `Quick
            test_serve_end_to_end;
        ] );
      ( "load",
        [
          Alcotest.test_case "closed loop completes all" `Quick test_load_closed;
          Alcotest.test_case "open loop accounts for all" `Quick
            test_load_open_loop_sheds;
        ] );
      ( "cli",
        [
          Alcotest.test_case "bad usage exits 2" `Quick
            test_cli_bad_usage_exits_2;
          Alcotest.test_case "help exits 0" `Quick test_cli_help_exits_0;
        ] );
    ]
