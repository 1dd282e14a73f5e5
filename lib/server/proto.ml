type request = {
  k : int;
  algo : Mpl.Decomposer.algorithm;
  jobs : int;
  min_s : int option;
  cache : bool;
  inject : Mpl_engine.Fault.spec option;
  deadline_ms : int option;
  windows : int;
}

let default_request =
  {
    k = 4;
    algo = Mpl.Decomposer.Linear;
    jobs = 1;
    min_s = None;
    cache = true;
    inject = None;
    deadline_ms = None;
    windows = 1;
  }

let algorithm_of_name = function
  | "ilp" -> Some Mpl.Decomposer.Ilp
  | "exact" -> Some Mpl.Decomposer.Exact
  | "sdp-backtrack" | "sdp" -> Some Mpl.Decomposer.Sdp_backtrack
  | "sdp-greedy" -> Some Mpl.Decomposer.Sdp_greedy
  | "linear" -> Some Mpl.Decomposer.Linear
  | _ -> None

let name_of_algorithm = function
  | Mpl.Decomposer.Ilp -> "ilp"
  | Mpl.Decomposer.Exact -> "exact"
  | Mpl.Decomposer.Sdp_backtrack -> "sdp-backtrack"
  | Mpl.Decomposer.Sdp_greedy -> "sdp-greedy"
  | Mpl.Decomposer.Linear -> "linear"

type command =
  | Decompose of int * request
  | Redecompose of int * string * request
      (** body length, previous-layout session hash, request *)
  | Stats
  | Metrics
  | Ping
  | Quit

let encode_request_with ~verb ?hash r ~body_len =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "%s %d k=%d algo=%s jobs=%d cache=%d" verb body_len r.k
       (name_of_algorithm r.algo) r.jobs
       (if r.cache then 1 else 0));
  (match hash with
  | Some h -> Buffer.add_string b (Printf.sprintf " hash=%s" h)
  | None -> ());
  (match r.min_s with
  | Some m -> Buffer.add_string b (Printf.sprintf " min_s=%d" m)
  | None -> ());
  (match r.inject with
  | Some spec ->
    Buffer.add_string b (" inject=" ^ Mpl_engine.Fault.spec_to_string spec)
  | None -> ());
  (match r.deadline_ms with
  | Some ms -> Buffer.add_string b (Printf.sprintf " deadline=%d" ms)
  | None -> ());
  if r.windows <> 1 then
    Buffer.add_string b (Printf.sprintf " windows=%d" r.windows);
  Buffer.add_char b '\n';
  Buffer.contents b

let encode_request r ~body_len =
  encode_request_with ~verb:"DECOMPOSE" r ~body_len

let encode_redecompose r ~hash ~body_len =
  encode_request_with ~verb:"REDECOMPOSE" ~hash r ~body_len

(* Tokenizer shared by both directions: space-separated words, a
   trailing \r stripped (so CRLF clients work over TCP). *)
let tokens line =
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  List.filter (fun s -> s <> "") (String.split_on_char ' ' line)

let int_of s = int_of_string_opt s

(* key=value fields; unknown keys are ignored so the protocol can grow
   without breaking older peers. *)
let apply_field r tok =
  match String.index_opt tok '=' with
  | None -> Error (Printf.sprintf "malformed field %S (expected key=value)" tok)
  | Some i -> (
    let key = String.sub tok 0 i in
    let v = String.sub tok (i + 1) (String.length tok - i - 1) in
    let as_int f =
      match int_of v with
      | Some n -> Ok (f n)
      | None -> Error (Printf.sprintf "field %s: not an integer: %S" key v)
    in
    match key with
    | "k" -> as_int (fun k -> { r with k })
    | "jobs" -> as_int (fun jobs -> { r with jobs })
    | "min_s" -> as_int (fun m -> { r with min_s = Some m })
    | "deadline" -> (
      match int_of v with
      | Some ms when ms > 0 -> Ok { r with deadline_ms = Some ms }
      | Some _ -> Error "field deadline: must be positive milliseconds"
      | None -> Error (Printf.sprintf "field deadline: not an integer: %S" v))
    | "cache" -> as_int (fun c -> { r with cache = c <> 0 })
    | "windows" -> (
      match int_of v with
      | Some n when n >= 1 -> Ok { r with windows = n }
      | Some _ -> Error "field windows: must be >= 1"
      | None -> Error (Printf.sprintf "field windows: not an integer: %S" v))
    | "algo" -> (
      match algorithm_of_name v with
      | Some algo -> Ok { r with algo }
      | None -> Error (Printf.sprintf "unknown algorithm %S" v))
    | "inject" -> (
      match Mpl_engine.Fault.parse v with
      | Ok spec -> Ok { r with inject = Some spec }
      | Error msg -> Error (Printf.sprintf "field inject: %s" msg))
    | _ -> Ok r)

let parse_command line =
  match tokens line with
  | [] -> Error "empty request line"
  | [ "STATS" ] -> Ok Stats
  | [ "METRICS" ] -> Ok Metrics
  | [ "PING" ] -> Ok Ping
  | [ "QUIT" ] -> Ok Quit
  | "DECOMPOSE" :: nbytes :: fields -> (
    match int_of nbytes with
    | None -> Error (Printf.sprintf "DECOMPOSE: bad body length %S" nbytes)
    | Some n when n < 0 -> Error "DECOMPOSE: negative body length"
    | Some n ->
      let rec go r = function
        | [] -> Ok (Decompose (n, r))
        | tok :: rest -> (
          match apply_field r tok with
          | Ok r -> go r rest
          | Error _ as e -> e)
      in
      go default_request fields)
  | "REDECOMPOSE" :: nbytes :: fields -> (
    match int_of nbytes with
    | None -> Error (Printf.sprintf "REDECOMPOSE: bad body length %S" nbytes)
    | Some n when n < 0 -> Error "REDECOMPOSE: negative body length"
    | Some n ->
      (* the session hash is the only REDECOMPOSE-specific field; the
         rest shares DECOMPOSE's vocabulary *)
      let hash = ref None in
      let rec go r = function
        | [] -> (
          match !hash with
          | Some h -> Ok (Redecompose (n, h, r))
          | None -> Error "REDECOMPOSE: missing hash= field")
        | tok :: rest -> (
          if String.length tok > 5 && String.sub tok 0 5 = "hash=" then begin
            hash := Some (String.sub tok 5 (String.length tok - 5));
            go r rest
          end
          else
            match apply_field r tok with
            | Ok r -> go r rest
            | Error _ as e -> e)
      in
      go default_request fields)
  | verb :: _ -> Error (Printf.sprintf "unknown request %S" verb)

type cost_reply = {
  conflicts : int;
  stitches : int;
  scaled : int;
  elapsed_s : float;
  timed_out : bool;
}

type resilience_reply = {
  degraded : int;
  piece_failures : int;
  fallbacks : int;
  fired : bool;
}

type cache_reply = {
  entries : int;
  bytes : int;
  hits : int;
  misses : int;
  corrupt_drops : int;
  evictions : int;
}

type reply =
  | Ack of int option
  | Busy of int * int
  | Piece of { idx : int; cells : (int * int) array }
  | Cost of cost_reply
  | Engine of Mpl_engine.Engine.stats
  | Resilience of resilience_reply
  | Cache_info of cache_reply
  | Reused of { reused : int; dirty : int; features : int }
  | Done of int array
  | Timeout of { deadline_ms : int; elapsed_ms : int }
  | Cancelled of string
  | Err of { code : string; line : int option; msg : string }
  | Pong
  | Bye
  | Json of string

let ack_line ?rid () =
  match rid with
  | Some id -> Printf.sprintf "ACK rid=%d\n" id
  | None -> "ACK\n"
let pong_line = "PONG\n"
let bye_line = "BYE\n"

let busy_line ~inflight ~limit = Printf.sprintf "BUSY %d %d\n" inflight limit

let piece_line ~idx ~back ~colors =
  let b = Buffer.create (16 + (8 * Array.length back)) in
  Buffer.add_string b (Printf.sprintf "PIECE %d %d" idx (Array.length back));
  Array.iteri
    (fun j v -> Buffer.add_string b (Printf.sprintf " %d:%d" v colors.(j)))
    back;
  Buffer.add_char b '\n';
  Buffer.contents b

let cost_line (c : cost_reply) =
  Printf.sprintf
    "COST conflicts=%d stitches=%d scaled=%d elapsed=%.6f timed_out=%d\n"
    c.conflicts c.stitches c.scaled c.elapsed_s
    (if c.timed_out then 1 else 0)

let engine_line (e : Mpl_engine.Engine.stats) =
  Printf.sprintf
    "ENGINE pieces=%d solved=%d hits=%d reused=%d failed=%d rejected=%d\n"
    e.Mpl_engine.Engine.pieces e.Mpl_engine.Engine.solved
    e.Mpl_engine.Engine.hits e.Mpl_engine.Engine.reused
    e.Mpl_engine.Engine.failed e.Mpl_engine.Engine.rejected

let resilience_line (r : resilience_reply) =
  Printf.sprintf
    "RESILIENCE degraded=%d piece_failures=%d fallbacks=%d fired=%d\n"
    r.degraded r.piece_failures r.fallbacks
    (if r.fired then 1 else 0)

let cache_line (c : cache_reply) =
  Printf.sprintf
    "CACHE entries=%d bytes=%d hits=%d misses=%d drops=%d evictions=%d\n"
    c.entries c.bytes c.hits c.misses c.corrupt_drops c.evictions

let reused_line ~reused ~dirty ~features =
  Printf.sprintf "REUSED n=%d dirty=%d features=%d\n" reused dirty features

let done_line colors =
  let b = Buffer.create (8 + (4 * Array.length colors)) in
  Buffer.add_string b (Printf.sprintf "DONE %d" (Array.length colors));
  Array.iter (fun c -> Buffer.add_string b (Printf.sprintf " %d" c)) colors;
  Buffer.add_char b '\n';
  Buffer.contents b

let timeout_line ~deadline_ms ~elapsed_ms =
  Printf.sprintf "TIMEOUT deadline_ms=%d elapsed_ms=%d\n" deadline_ms
    elapsed_ms

(* Reasons are single lower-case tokens ("disconnected", "shutdown")
   so the line stays trivially tokenizable. *)
let cancelled_line ~reason = Printf.sprintf "CANCELLED %s\n" reason

let flatten_msg msg =
  String.concat "; "
    (List.filter (fun s -> s <> "") (String.split_on_char '\n' msg))

let err_line ~code ?line msg =
  match line with
  | Some l -> Printf.sprintf "ERR %s line=%d %s\n" code l (flatten_msg msg)
  | None -> Printf.sprintf "ERR %s %s\n" code (flatten_msg msg)

(* Reply-side key=value parsing: fields are fixed per line kind, so a
   missing or malformed field is a protocol error. *)
let field_int fields key =
  let prefix = key ^ "=" in
  let rec go = function
    | [] -> Error (Printf.sprintf "missing field %s" key)
    | tok :: rest ->
      if String.length tok > String.length prefix
         && String.sub tok 0 (String.length prefix) = prefix
      then
        match
          int_of
            (String.sub tok (String.length prefix)
               (String.length tok - String.length prefix))
        with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "bad field %S" tok)
      else go rest
  in
  go fields

let field_float fields key =
  let prefix = key ^ "=" in
  let rec go = function
    | [] -> Error (Printf.sprintf "missing field %s" key)
    | tok :: rest ->
      if String.length tok > String.length prefix
         && String.sub tok 0 (String.length prefix) = prefix
      then
        match
          float_of_string_opt
            (String.sub tok (String.length prefix)
               (String.length tok - String.length prefix))
        with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "bad field %S" tok)
      else go rest
  in
  go fields

let ( let* ) r f = Result.bind r f

let parse_reply line =
  if String.length line > 0 && line.[0] = '{' then Ok (Json line)
  else
    match tokens line with
    | [] -> Error "empty reply line"
    | "ACK" :: fields ->
      (* rid= is optional so pre-telemetry servers still parse *)
      Ok (Ack (Result.to_option (field_int fields "rid")))
    | [ "PONG" ] -> Ok Pong
    | [ "BYE" ] -> Ok Bye
    | [ "BUSY"; a; b ] -> (
      match (int_of a, int_of b) with
      | Some x, Some y -> Ok (Busy (x, y))
      | _ -> Error "BUSY: bad counters")
    | "PIECE" :: idx :: n :: cells -> (
      match (int_of idx, int_of n) with
      | Some idx, Some n when List.length cells = n -> (
        let parse_cell tok =
          match String.index_opt tok ':' with
          | None -> None
          | Some i -> (
            match
              ( int_of (String.sub tok 0 i),
                int_of
                  (String.sub tok (i + 1) (String.length tok - i - 1)) )
            with
            | Some v, Some c -> Some (v, c)
            | _ -> None)
        in
        let parsed = List.filter_map parse_cell cells in
        match List.length parsed = n with
        | true -> Ok (Piece { idx; cells = Array.of_list parsed })
        | false -> Error "PIECE: malformed cell")
      | _ -> Error "PIECE: bad header")
    | "COST" :: fields ->
      let* conflicts = field_int fields "conflicts" in
      let* stitches = field_int fields "stitches" in
      let* scaled = field_int fields "scaled" in
      let* elapsed_s = field_float fields "elapsed" in
      let* t = field_int fields "timed_out" in
      Ok (Cost { conflicts; stitches; scaled; elapsed_s; timed_out = t <> 0 })
    | "ENGINE" :: fields ->
      let* pieces = field_int fields "pieces" in
      let* solved = field_int fields "solved" in
      let* hits = field_int fields "hits" in
      let* reused = field_int fields "reused" in
      let* failed = field_int fields "failed" in
      let* rejected = field_int fields "rejected" in
      Ok
        (Engine
           {
             Mpl_engine.Engine.pieces;
             solved;
             hits;
             reused;
             failed;
             rejected;
           })
    | "RESILIENCE" :: fields ->
      let* degraded = field_int fields "degraded" in
      let* piece_failures = field_int fields "piece_failures" in
      let* fallbacks = field_int fields "fallbacks" in
      let* fired = field_int fields "fired" in
      Ok (Resilience { degraded; piece_failures; fallbacks; fired = fired <> 0 })
    | "CACHE" :: fields ->
      let* entries = field_int fields "entries" in
      let* bytes = field_int fields "bytes" in
      let* hits = field_int fields "hits" in
      let* misses = field_int fields "misses" in
      let* corrupt_drops = field_int fields "drops" in
      let* evictions = field_int fields "evictions" in
      Ok
        (Cache_info
           {
             entries;
             bytes;
             hits;
             misses;
             corrupt_drops;
             evictions;
           })
    | "REUSED" :: fields ->
      let* reused = field_int fields "n" in
      let* dirty = field_int fields "dirty" in
      let* features = field_int fields "features" in
      Ok (Reused { reused; dirty; features })
    | "DONE" :: n :: colors -> (
      match int_of n with
      | Some n when List.length colors = n -> (
        let parsed = List.filter_map int_of colors in
        match List.length parsed = n with
        | true -> Ok (Done (Array.of_list parsed))
        | false -> Error "DONE: malformed color")
      | _ -> Error "DONE: bad length")
    | "TIMEOUT" :: fields ->
      let* deadline_ms = field_int fields "deadline_ms" in
      let* elapsed_ms = field_int fields "elapsed_ms" in
      Ok (Timeout { deadline_ms; elapsed_ms })
    | [ "CANCELLED"; reason ] -> Ok (Cancelled reason)
    | [ "CANCELLED" ] -> Ok (Cancelled "unknown")
    | "ERR" :: code :: rest -> (
      match rest with
      | tok :: more
        when String.length tok > 5 && String.sub tok 0 5 = "line=" -> (
        match int_of (String.sub tok 5 (String.length tok - 5)) with
        | Some l ->
          Ok (Err { code; line = Some l; msg = String.concat " " more })
        | None -> Error "ERR: bad line field")
      | _ -> Ok (Err { code; line = None; msg = String.concat " " rest }))
    | verb :: _ -> Error (Printf.sprintf "unknown reply %S" verb)
