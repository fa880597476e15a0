let max_frame_default = 1 lsl 20

let check_length n =
  if n > 0xFFFFFFFF then invalid_arg "Frame.encode: payload too large"

let encode payload =
  let n = String.length payload in
  check_length n;
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

let add_frame out payload =
  let n = Buffer.length payload in
  check_length n;
  Buffer.add_int32_be out (Int32.of_int n);
  Buffer.add_buffer out payload

module Decoder = struct
  type t = {
    max_frame : int;
    mutable buf : Bytes.t;
    mutable len : int;  (* valid bytes in [buf] *)
    mutable off : int;  (* consumed prefix of the valid bytes *)
    mutable error : string option;
    mutable payload_off : int;  (* the last payload [advance] exposed *)
    mutable payload_len : int;
  }

  type step = Payload | Await | Poisoned of string

  let create ?(max_frame = max_frame_default) () =
    {
      max_frame;
      buf = Bytes.create 256;
      len = 0;
      off = 0;
      error = None;
      payload_off = 0;
      payload_len = 0;
    }

  let buffered t = t.len - t.off

  let compact t =
    if t.off > 0 then begin
      Bytes.blit t.buf t.off t.buf 0 (buffered t);
      t.len <- buffered t;
      t.off <- 0
    end

  let feed t s =
    match t.error with
    | Some _ -> ()
    | None ->
        let n = String.length s in
        if t.len + n > Bytes.length t.buf then begin
          compact t;
          if t.len + n > Bytes.length t.buf then begin
            let cap = max (t.len + n) (2 * Bytes.length t.buf) in
            let bigger = Bytes.create cap in
            Bytes.blit t.buf 0 bigger 0 t.len;
            t.buf <- bigger
          end
        end;
        Bytes.blit_string s 0 t.buf t.len n;
        t.len <- t.len + n

  (* Consuming a payload only moves offsets: its bytes stay where they
     are until the next [feed] compacts or grows the buffer. *)
  let advance t =
    match t.error with
    | Some e -> Poisoned e
    | None ->
        if buffered t < 4 then Await
        else begin
          (* mask away Int32's sign extension on 64-bit ints *)
          let n = Int32.to_int (Bytes.get_int32_be t.buf t.off) land 0xFFFFFFFF in
          if n > t.max_frame then begin
            let e =
              Printf.sprintf "frame length %d exceeds limit %d" n t.max_frame
            in
            t.error <- Some e;
            t.len <- 0;
            t.off <- 0;
            Poisoned e
          end
          else if buffered t < 4 + n then Await
          else begin
            t.payload_off <- t.off + 4;
            t.payload_len <- n;
            t.off <- t.off + 4 + n;
            if t.off = t.len then begin
              t.off <- 0;
              t.len <- 0
            end;
            Payload
          end
        end

  let bytes t = t.buf
  let payload_off t = t.payload_off
  let payload_len t = t.payload_len

  let next t =
    match advance t with
    | Payload -> Ok (Some (Bytes.sub_string t.buf t.payload_off t.payload_len))
    | Await -> Ok None
    | Poisoned e -> Error e
end
