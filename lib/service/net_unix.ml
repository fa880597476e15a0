type addr = Unix_path of string | Tcp of int

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

type peer = { fd : Unix.file_descr; conn : int }

(* One read buffer per listener (and per client): reads copy out only
   the bytes they got, so the buffer is reused across reads. *)
let read_buffer_size = 65536

type t = {
  addr : addr;
  listener : Unix.file_descr;
  mutable peers : peer list;
  buf : Bytes.t;
}

let listen addr =
  (* a peer that hangs up before reading its replies must cost only that
     peer: the write then fails with EPIPE, which [step] handles *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (match addr with
  | Unix_path p when Sys.file_exists p -> Sys.remove p
  | _ -> ());
  let domain = match addr with Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix_path _ -> ());
  Unix.bind fd (sockaddr_of addr);
  Unix.listen fd 64;
  { addr; listener = fd; peers = []; buf = Bytes.create read_buffer_size }

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let read_chunk buf fd =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | 0 -> None (* EOF *)
  | n -> Some (Bytes.sub_string buf 0 n)
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      Some ""
  | exception Unix.Unix_error _ -> None (* a failed peer is gone, like EOF *)

let step t ~server ~timeout =
  let fds = t.listener :: List.map (fun p -> p.fd) t.peers in
  let ready, _, _ = try Unix.select fds [] [] timeout with
    | Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  (* accept first so a connect+send in the same pump gets served *)
  if List.mem t.listener ready then begin
    let rec accept_all () =
      match Unix.accept t.listener with
      | fd, _ ->
          Unix.set_nonblock fd;
          t.peers <- t.peers @ [ { fd; conn = Server.open_conn server } ];
          accept_all ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    in
    Unix.set_nonblock t.listener;
    accept_all ()
  end;
  let lost = ref [] in
  let batch =
    List.filter_map
      (fun p ->
        if List.mem p.fd ready then
          match read_chunk t.buf p.fd with
          | None ->
              lost := p :: !lost;
              None
          | Some "" -> None
          | Some bytes -> Some (p, bytes)
        else None)
      t.peers
  in
  let replies = Server.feed_batch server (List.map (fun (p, b) -> (p.conn, b)) batch) in
  let peer_of_conn = List.map (fun (p, _) -> (p.conn, p)) batch in
  List.iter
    (fun (conn, out) ->
      let p = List.assoc conn peer_of_conn in
      (* no reply is queued: a peer that hung up, or whose socket is
         full because it never reads, is lost *)
      if String.length out > 0 then
        try write_all p.fd out with Unix.Unix_error _ -> lost := p :: !lost)
    replies;
  (* disconnect lost peers and peers the server killed fail-closed *)
  let gone p =
    List.memq p !lost
    || (not (Server.conn_alive server ~conn:p.conn))
       && List.exists (fun (q, _) -> q == p) batch
  in
  let dropped, kept = List.partition gone t.peers in
  List.iter
    (fun p ->
      Server.close_conn server ~conn:p.conn;
      try Unix.close p.fd with Unix.Unix_error _ -> ())
    dropped;
  t.peers <- kept;
  List.length batch

let serve t ~server ?max_requests () =
  let done_ () =
    match max_requests with
    | None -> false
    | Some n -> Server.executed server + Server.shed server >= n
  in
  while not (done_ ()) do
    ignore (step t ~server ~timeout:0.1)
  done

let shutdown t =
  List.iter (fun p -> try Unix.close p.fd with Unix.Unix_error _ -> ()) t.peers;
  t.peers <- [];
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  match t.addr with
  | Unix_path p when Sys.file_exists p -> Sys.remove p
  | _ -> ()

module Client = struct
  type t = { fd : Unix.file_descr; decoder : Frame.Decoder.t; buf : Bytes.t }

  let connect addr =
    let domain =
      match addr with Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (sockaddr_of addr)
     with e ->
       Unix.close fd;
       raise e);
    {
      fd;
      decoder = Frame.Decoder.create ();
      buf = Bytes.create read_buffer_size;
    }

  let send t req = write_all t.fd (Frame.encode (Protocol.encode_request req))

  (* The next whole reply in the decoder, if one has arrived. *)
  let next_reply t =
    match Frame.Decoder.next t.decoder with
    | Ok (Some payload) -> (
        match Protocol.decode_reply payload with
        | Ok reply -> Some reply
        | Error err ->
            failwith ("Client: undecodable reply: " ^ Protocol.describe err))
    | Ok None -> None
    | Error e -> failwith ("Client: reply framing: " ^ e)

  (* The one read step: wait up to [timeout] for the socket, then feed
     what one read returns to the decoder. *)
  let read_step t ~timeout =
    match Unix.select [ t.fd ] [] [] timeout with
    | [], _, _ -> `Timed_out
    | _ -> (
        match read_chunk t.buf t.fd with
        | None -> `Closed
        | Some "" -> `Nothing
        | Some bytes ->
            Frame.Decoder.feed t.decoder bytes;
            `Fed)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Nothing

  let drain t =
    while read_step t ~timeout:0.0 = `Fed do
      ()
    done;
    let rec go acc =
      match next_reply t with Some r -> go (r :: acc) | None -> List.rev acc
    in
    go []

  (* Replies are taken one at a time, so the direct reply ends the
     wait and whatever arrived behind it stays for the next call. *)
  let request t req =
    send t req;
    let rec loop events =
      match next_reply t with
      | Some (Protocol.Event _ as ev) -> loop (ev :: events)
      | Some reply -> (reply, List.rev events)
      | None -> (
          match read_step t ~timeout:5.0 with
          | `Timed_out -> failwith "Client.request: timed out"
          | `Closed -> failwith "Client.request: connection closed"
          | `Fed | `Nothing -> loop events)
    in
    loop []

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end
