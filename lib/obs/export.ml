module Q = Temporal.Q

(* ------------------------------------------------------------------ *)
(* Writer.  One JSON object per line, fields in a fixed order, strings
   escaped canonically, ℚ timestamps as exact "num/den" strings — so
   identical traces export to identical bytes. *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  escape_into buf s;
  Buffer.contents buf

let quoted buf s =
  Buffer.add_char buf '"';
  escape_into buf s;
  Buffer.add_char buf '"'

let obj buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, write_value) ->
      if i > 0 then Buffer.add_char buf ',';
      quoted buf k;
      Buffer.add_char buf ':';
      write_value buf)
    fields;
  Buffer.add_char buf '}'

let jstr s buf = quoted buf s
let jbool b buf = Buffer.add_string buf (if b then "true" else "false")
let jint64 n buf = Buffer.add_string buf (Int64.to_string n)
let jint n buf = Buffer.add_string buf (string_of_int n)
let jq q buf = quoted buf (Q.to_string q)
let jobj fields buf = obj buf fields

let access_fields (a : Sral.Access.t) =
  [
    ("op", jstr (Sral.Access.operation_name a.Sral.Access.op));
    ("r", jstr a.Sral.Access.resource);
    ("s", jstr a.Sral.Access.server);
  ]

let verdict_fields = function
  | Verdict.Granted -> [ ("v", jstr "granted") ]
  | Verdict.Denied reason ->
      let reason_fields =
        match reason with
        | Verdict.Rbac_denied msg ->
            [ ("kind", jstr "rbac"); ("msg", jstr msg) ]
        | Verdict.Spatial_violation { binding; detail } ->
            [
              ("kind", jstr "spatial");
              ("binding", jstr binding);
              ("detail", jstr detail);
            ]
        | Verdict.Temporal_expired { binding; spent } ->
            [
              ("kind", jstr "temporal");
              ("binding", jstr binding);
              ("spent", jq spent);
            ]
        | Verdict.Not_active binding ->
            [ ("kind", jstr "not_active"); ("binding", jstr binding) ]
        | Verdict.Not_arrived -> [ ("kind", jstr "not_arrived") ]
        | Verdict.Server_unavailable server ->
            [ ("kind", jstr "server_unavailable"); ("server", jstr server) ]
      in
      [ ("v", jstr "denied"); ("reason", jobj reason_fields) ]

let fields_of_event ev =
  let tag name = ("ev", jstr name) in
  let t time = ("t", jq time) in
  match ev with
  | Trace.Stage_start { time; object_id; stage } ->
      [
        tag "stage_start";
        t time;
        ("obj", jstr object_id);
        ("stage", jstr (Trace.stage_name stage));
      ]
  | Trace.Stage_end { time; object_id; stage; ok; elapsed_ns } ->
      [
        tag "stage_end";
        t time;
        ("obj", jstr object_id);
        ("stage", jstr (Trace.stage_name stage));
        ("ok", jbool ok);
        ("ns", jint64 elapsed_ns);
      ]
  | Trace.Decision { time; object_id; access; verdict } ->
      [
        tag "decision";
        t time;
        ("obj", jstr object_id);
        ("access", jobj (access_fields access));
        ("verdict", jobj (verdict_fields verdict));
      ]
  | Trace.Arrival { time; object_id; server } ->
      [ tag "arrival"; t time; ("obj", jstr object_id); ("server", jstr server) ]
  | Trace.Role_rejected { time; object_id; role; reason } ->
      [
        tag "role_rejected";
        t time;
        ("obj", jstr object_id);
        ("role", jstr role);
        ("reason", jstr reason);
      ]
  | Trace.Spawned { time; agent; home } ->
      [ tag "spawned"; t time; ("agent", jstr agent); ("home", jstr home) ]
  | Trace.Migrated { time; agent; from_; to_ } ->
      [
        tag "migrated";
        t time;
        ("agent", jstr agent);
        ("from", jstr from_);
        ("to", jstr to_);
      ]
  | Trace.Message_sent { time; agent; channel } ->
      [
        tag "message_sent";
        t time;
        ("agent", jstr agent);
        ("channel", jstr channel);
      ]
  | Trace.Message_received { time; agent; channel } ->
      [
        tag "message_received";
        t time;
        ("agent", jstr agent);
        ("channel", jstr channel);
      ]
  | Trace.Signal_raised { time; agent; signal } ->
      [
        tag "signal_raised";
        t time;
        ("agent", jstr agent);
        ("signal", jstr signal);
      ]
  | Trace.Completed { time; agent } ->
      [ tag "completed"; t time; ("agent", jstr agent) ]
  | Trace.Aborted { time; agent; reason } ->
      [ tag "aborted"; t time; ("agent", jstr agent); ("reason", jstr reason) ]
  | Trace.Deadlocked { time; agent } ->
      [ tag "deadlocked"; t time; ("agent", jstr agent) ]
  | Trace.Fault_injected { time; agent; fault; target } ->
      [
        tag "fault_injected";
        t time;
        ("agent", jstr agent);
        ("fault", jstr (Trace.fault_name fault));
        ("target", jstr target);
      ]
  | Trace.Server_down { time; server } ->
      [ tag "server_down"; t time; ("server", jstr server) ]
  | Trace.Server_up { time; server } ->
      [ tag "server_up"; t time; ("server", jstr server) ]
  | Trace.Retry_scheduled { time; agent; attempt; at } ->
      [
        tag "retry_scheduled";
        t time;
        ("agent", jstr agent);
        ("attempt", jint attempt);
        ("at", jq at);
      ]
  | Trace.Gave_up { time; agent; attempts } ->
      [ tag "gave_up"; t time; ("agent", jstr agent); ("attempts", jint attempts) ]
  | Trace.Policy_changed { time; op; version } ->
      [ tag "policy_changed"; t time; ("op", jstr op); ("version", jint version) ]
  | Trace.Run_finished { time } -> [ tag "run_finished"; t time ]

let to_line ev =
  let buf = Buffer.create 128 in
  obj buf (fields_of_event ev);
  Buffer.contents buf

let verdict_to_json v =
  let buf = Buffer.create 64 in
  obj buf (verdict_fields v);
  Buffer.contents buf

let to_string events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ev ->
      obj buf (fields_of_event ev);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let to_channel oc events =
  List.iter
    (fun ev ->
      output_string oc (to_line ev);
      output_char oc '\n')
    events

(* ------------------------------------------------------------------ *)
(* Reader.  A minimal recursive-descent JSON parser (no dependency);
   numbers are kept as raw strings so int64 spans survive exactly. *)

type json =
  | Jobj of (string * json) list
  | Jarr of json list
  | Jstr of string
  | Jnum of string
  | Jbool of bool
  | Jnull

(* Parse errors carry the byte offset of the offending input within the
   line being parsed; [of_string]/[read] rebase it to an absolute
   offset in the whole document.  Structural errors discovered after
   parsing (missing field, unknown tag) report offset 0 — the start of
   the line. *)
exception Parse_error of int * string

let fail_at off msg = raise (Parse_error (off, msg))
let fail msg = fail_at 0 msg

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = fail_at !pos msg in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' ->
              Buffer.add_char buf '"';
              advance ()
          | '\\' ->
              Buffer.add_char buf '\\';
              advance ()
          | '/' ->
              Buffer.add_char buf '/';
              advance ()
          | 'b' ->
              Buffer.add_char buf '\b';
              advance ()
          | 'f' ->
              Buffer.add_char buf '\012';
              advance ()
          | 'n' ->
              Buffer.add_char buf '\n';
              advance ()
          | 'r' ->
              Buffer.add_char buf '\r';
              advance ()
          | 't' ->
              Buffer.add_char buf '\t';
              advance ()
          | 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let code =
                try int_of_string ("0x" ^ String.sub s !pos 4)
                with _ -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf
                  (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
          | c -> fail (Printf.sprintf "bad escape \\%c" c));
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_literal word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "expected a number";
    Jnum (String.sub s start (!pos - start))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' -> parse_obj ()
    | Some '[' -> parse_arr ()
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> parse_literal "true" (Jbool true)
    | Some 'f' -> parse_literal "false" (Jbool false)
    | Some 'n' -> parse_literal "null" Jnull
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "unexpected input"
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Jobj []
    end
    else
      let rec members acc =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            members ((k, v) :: acc)
        | Some '}' ->
            advance ();
            Jobj (List.rev ((k, v) :: acc))
        | _ -> fail "expected , or } in object"
      in
      members []
  and parse_arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      Jarr []
    end
    else
      let rec elements acc =
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            elements (v :: acc)
        | Some ']' ->
            advance ();
            Jarr (List.rev (v :: acc))
        | _ -> fail "expected , or ] in array"
      in
      elements []
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

(* ---------- JSON -> event ---------- *)

let get fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> fail ("missing field " ^ k)

let get_str fields k =
  match get fields k with
  | Jstr s -> s
  | _ -> fail ("field " ^ k ^ " must be a string")

let get_bool fields k =
  match get fields k with
  | Jbool b -> b
  | _ -> fail ("field " ^ k ^ " must be a boolean")

let get_obj fields k =
  match get fields k with
  | Jobj o -> o
  | _ -> fail ("field " ^ k ^ " must be an object")

let get_int fields k =
  match get fields k with
  | Jnum raw -> (
      try int_of_string raw
      with _ -> fail ("field " ^ k ^ " must be an integer"))
  | _ -> fail ("field " ^ k ^ " must be a number")

let get_int64 fields k =
  match get fields k with
  | Jnum raw -> (
      try Int64.of_string raw
      with _ -> fail ("field " ^ k ^ " must be an integer"))
  | _ -> fail ("field " ^ k ^ " must be a number")

let get_q fields k =
  let s = get_str fields k in
  try Q.of_string s
  with Invalid_argument _ -> fail ("field " ^ k ^ " is not a rational")

let get_stage fields k =
  match Trace.stage_of_name (get_str fields k) with
  | Some stage -> stage
  | None -> fail ("field " ^ k ^ " is not a stage name")

let access_of fields =
  Sral.Access.make
    ~op:(Sral.Access.operation_of_name (get_str fields "op"))
    ~resource:(get_str fields "r") ~server:(get_str fields "s")

let verdict_of fields =
  match get_str fields "v" with
  | "granted" -> Verdict.Granted
  | "denied" ->
      let r = get_obj fields "reason" in
      let reason =
        match get_str r "kind" with
        | "rbac" -> Verdict.Rbac_denied (get_str r "msg")
        | "spatial" ->
            Verdict.Spatial_violation
              { binding = get_str r "binding"; detail = get_str r "detail" }
        | "temporal" ->
            Verdict.Temporal_expired
              { binding = get_str r "binding"; spent = get_q r "spent" }
        | "not_active" -> Verdict.Not_active (get_str r "binding")
        | "not_arrived" -> Verdict.Not_arrived
        | "server_unavailable" ->
            Verdict.Server_unavailable (get_str r "server")
        | k -> fail ("unknown denial kind " ^ k)
      in
      Verdict.Denied reason
  | v -> fail ("unknown verdict " ^ v)

let event_of_fields fields =
  let time = get_q fields "t" in
  match get_str fields "ev" with
  | "stage_start" ->
      Trace.Stage_start
        {
          time;
          object_id = get_str fields "obj";
          stage = get_stage fields "stage";
        }
  | "stage_end" ->
      Trace.Stage_end
        {
          time;
          object_id = get_str fields "obj";
          stage = get_stage fields "stage";
          ok = get_bool fields "ok";
          elapsed_ns = get_int64 fields "ns";
        }
  | "decision" ->
      Trace.Decision
        {
          time;
          object_id = get_str fields "obj";
          access = access_of (get_obj fields "access");
          verdict = verdict_of (get_obj fields "verdict");
        }
  | "arrival" ->
      Trace.Arrival
        {
          time;
          object_id = get_str fields "obj";
          server = get_str fields "server";
        }
  | "role_rejected" ->
      Trace.Role_rejected
        {
          time;
          object_id = get_str fields "obj";
          role = get_str fields "role";
          reason = get_str fields "reason";
        }
  | "spawned" ->
      Trace.Spawned
        { time; agent = get_str fields "agent"; home = get_str fields "home" }
  | "migrated" ->
      Trace.Migrated
        {
          time;
          agent = get_str fields "agent";
          from_ = get_str fields "from";
          to_ = get_str fields "to";
        }
  | "message_sent" ->
      Trace.Message_sent
        {
          time;
          agent = get_str fields "agent";
          channel = get_str fields "channel";
        }
  | "message_received" ->
      Trace.Message_received
        {
          time;
          agent = get_str fields "agent";
          channel = get_str fields "channel";
        }
  | "signal_raised" ->
      Trace.Signal_raised
        {
          time;
          agent = get_str fields "agent";
          signal = get_str fields "signal";
        }
  | "completed" -> Trace.Completed { time; agent = get_str fields "agent" }
  | "aborted" ->
      Trace.Aborted
        {
          time;
          agent = get_str fields "agent";
          reason = get_str fields "reason";
        }
  | "deadlocked" -> Trace.Deadlocked { time; agent = get_str fields "agent" }
  | "fault_injected" ->
      let name = get_str fields "fault" in
      let fault =
        match Trace.fault_of_name name with
        | Some f -> f
        | None -> fail ("unknown fault kind " ^ name)
      in
      Trace.Fault_injected
        { time; agent = get_str fields "agent"; fault; target = get_str fields "target" }
  | "server_down" -> Trace.Server_down { time; server = get_str fields "server" }
  | "server_up" -> Trace.Server_up { time; server = get_str fields "server" }
  | "retry_scheduled" ->
      Trace.Retry_scheduled
        {
          time;
          agent = get_str fields "agent";
          attempt = get_int fields "attempt";
          at = get_q fields "at";
        }
  | "gave_up" ->
      Trace.Gave_up
        {
          time;
          agent = get_str fields "agent";
          attempts = get_int fields "attempts";
        }
  | "policy_changed" ->
      Trace.Policy_changed
        { time; op = get_str fields "op"; version = get_int fields "version" }
  | "run_finished" -> Trace.Run_finished { time }
  | ev -> fail ("unknown event tag " ^ ev)

(* Per-line parse, error as [(byte offset within line, message)] so
   document-level readers can rebase to absolute offsets. *)
let of_line_at line =
  match parse_json line with
  | exception Parse_error (off, msg) -> Error (off, msg)
  | Jobj fields -> (
      match event_of_fields fields with
      | ev -> Ok ev
      | exception Parse_error (off, msg) -> Error (off, msg))
  | _ -> Error (0, "expected a JSON object")

let of_line line =
  match of_line_at line with
  | Ok ev -> Ok ev
  | Error (off, msg) -> Error (Printf.sprintf "byte %d: %s" off msg)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno start acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go (lineno + 1) (start + 1) acc rest
    | line :: rest -> (
        match of_line_at line with
        | Ok ev ->
            go (lineno + 1) (start + String.length line + 1) (ev :: acc) rest
        | Error (off, msg) ->
            Error
              (Printf.sprintf "line %d: byte %d: %s" lineno (start + off) msg))
  in
  go 1 0 [] lines

(* Streaming variant of [of_string]: events are parsed line by line as
   they are read, so a malformed (e.g. truncated) line is reported with
   its 1-based line number and absolute byte offset instead of surfacing
   as a bare exception from the parser. *)
let read ic =
  let rec go lineno start acc =
    match input_line ic with
    | exception End_of_file -> Ok (List.rev acc)
    | "" -> go (lineno + 1) (start + 1) acc
    | line -> (
        match of_line_at line with
        | Ok ev -> go (lineno + 1) (start + String.length line + 1) (ev :: acc)
        | Error (off, msg) ->
            Error
              (Printf.sprintf "line %d: byte %d: %s" lineno (start + off) msg))
  in
  go 1 0 []
