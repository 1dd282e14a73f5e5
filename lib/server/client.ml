type t = { fd : Unix.file_descr; ic : in_channel }

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd }

let connect_tcp host port =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (addr, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd }

let close t = close_in_noerr t.ic

type outcome = {
  colors : int array;
  rid : int option;
  streamed_pieces : int;
  streamed_cells : int;
  streams_consistent : bool;
  cost : Proto.cost_reply;
  engine : Mpl_engine.Engine.stats option;
  resilience : Proto.resilience_reply;
  cache : Proto.cache_reply option;
  reused : (int * int * int) option;
}

type error =
  | Busy of int * int
  | Timed_out of { deadline_ms : int; elapsed_ms : int }
  | Cancelled of string
  | Remote of { code : string; line : int option; msg : string }
  | Protocol of string

let error_to_string = function
  | Busy (inflight, limit) ->
    Printf.sprintf "server busy (%d/%d requests in flight)" inflight limit
  | Timed_out { deadline_ms; elapsed_ms } ->
    Printf.sprintf "request timed out (deadline %d ms, elapsed %d ms)"
      deadline_ms elapsed_ms
  | Cancelled reason -> Printf.sprintf "request cancelled (%s)" reason
  | Remote { code; line = Some l; msg } ->
    Printf.sprintf "server error [%s] line %d: %s" code l msg
  | Remote { code; line = None; msg } ->
    Printf.sprintf "server error [%s]: %s" code msg
  | Protocol msg -> Printf.sprintf "protocol error: %s" msg

let retryable = function
  | Busy _ | Protocol _ -> true
  | Timed_out _ | Cancelled _ | Remote _ -> false

let transient_connect_error = function
  | Unix.Unix_error
      ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ECONNABORTED
        | Unix.ENOENT | Unix.EAGAIN | Unix.EINTR | Unix.ETIMEDOUT ),
        _,
        _ ) ->
    true
  | _ -> false

(* Exponential backoff capped at 2 s with deterministic ±25% jitter:
   the jitter stream is a fixed-seed SplitMix64, so two runs with the
   same arguments sleep the same schedule (reproducible tests). *)
let backoff_schedule ~base_ms ~retries () =
  let rng = Mpl_util.Rng.create 0x6d706c64 in
  List.init (max 0 retries) (fun i ->
      let base =
        Float.min 2000.
          (float_of_int (max 1 base_ms) *. (2. ** float_of_int i))
      in
      let jitter = 0.75 +. (0.5 *. Mpl_util.Rng.float rng 1.0) in
      base *. jitter /. 1000.)

(* A send to a server that vanished (reaped this connection, crashed)
   must surface as a retryable error, not an exception: EPIPE here is
   routine lifecycle, not a bug. *)
let send t s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off >= n then Ok ()
    else
      match Unix.write t.fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception
          Unix.Unix_error
            ( ( Unix.EPIPE | Unix.ECONNRESET | Unix.ECONNABORTED
              | Unix.EBADF | Unix.ENOTCONN ),
              _,
              _ ) ->
        Error (Protocol "connection closed by server")
  in
  go 0

let read_reply t =
  match input_line t.ic with
  | exception End_of_file -> Error (Protocol "connection closed by server")
  | exception Sys_error msg -> Error (Protocol msg)
  | line -> (
    match Proto.parse_reply line with
    | Ok r -> Ok r
    | Error msg -> Error (Protocol msg))

let ( let* ) r f = Result.bind r f

(* Accumulate one reply stream until DONE; any ERR/BUSY ends it. The
   same stream shape serves DECOMPOSE and REDECOMPOSE — the latter just
   adds one REUSED line before DONE. *)
let read_stream t =
  let pieces = ref [] in
  let cost = ref None in
  let engine = ref None in
  let resilience = ref None in
  let cache = ref None in
  let reused = ref None in
  let rid = ref None in
  let rec loop () =
    let* reply = read_reply t in
    match reply with
    | Proto.Ack r ->
      rid := r;
      loop ()
    | Proto.Busy (i, l) -> Error (Busy (i, l))
    | Proto.Err { code; line; msg } -> Error (Remote { code; line; msg })
    | Proto.Piece { idx = _; cells } ->
      pieces := cells :: !pieces;
      loop ()
    | Proto.Cost c ->
      cost := Some c;
      loop ()
    | Proto.Engine e ->
      engine := Some e;
      loop ()
    | Proto.Resilience r ->
      resilience := Some r;
      loop ()
    | Proto.Cache_info c ->
      cache := Some c;
      loop ()
    | Proto.Reused { reused = r; dirty; features } ->
      reused := Some (r, dirty, features);
      loop ()
    | Proto.Done colors -> (
      match (!cost, !resilience) with
      | Some cost, Some resilience ->
        let streamed = List.rev !pieces in
        let streamed_cells =
          List.fold_left (fun n cs -> n + Array.length cs) 0 streamed
        in
        let streams_consistent =
          List.for_all
            (Array.for_all (fun (v, c) ->
                 v >= 0 && v < Array.length colors && colors.(v) = c))
            streamed
        in
        Ok
          {
            colors;
            rid = !rid;
            streamed_pieces = List.length streamed;
            streamed_cells;
            streams_consistent;
            cost;
            engine = !engine;
            resilience;
            cache = !cache;
            reused = !reused;
          }
      | _ -> Error (Protocol "DONE before COST/RESILIENCE"))
    | Proto.Timeout { deadline_ms; elapsed_ms } ->
      Error (Timed_out { deadline_ms; elapsed_ms })
    | Proto.Cancelled reason -> Error (Cancelled reason)
    | Proto.Pong | Proto.Bye | Proto.Json _ ->
      Error (Protocol "unexpected admin reply in a DECOMPOSE stream")
  in
  loop ()

let decompose t ?(request = Proto.default_request) body =
  let* () =
    send t (Proto.encode_request request ~body_len:(String.length body))
  in
  let* () = send t body in
  read_stream t

let redecompose t ?(request = Proto.default_request) ~hash body =
  let* () =
    send t
      (Proto.encode_redecompose request ~hash ~body_len:(String.length body))
  in
  let* () = send t body in
  read_stream t

let admin_json t verb =
  let* () = send t (verb ^ "\n") in
  let* reply = read_reply t in
  match reply with
  | Proto.Json s -> Ok s
  | Proto.Err { code; line; msg } -> Error (Remote { code; line; msg })
  | _ -> Error (Protocol ("unexpected reply to " ^ verb))

let stats t = admin_json t "STATS"
let metrics t = admin_json t "METRICS"

let ping t =
  match send t "PING\n" with
  | Error _ -> false
  | Ok () -> (
    match read_reply t with Ok Proto.Pong -> true | Ok _ | Error _ -> false)

let quit t =
  match send t "QUIT\n" with
  | Error _ -> ()
  | Ok () -> ( match read_reply t with Ok _ | Error _ -> ())

(* One-shot HTTP/1.0 fetch over the protocol socket (the server sniffs
   the request-line). The server closes after one response, so this
   consumes the connection — callers should treat [t] as spent. *)
let http t path =
  let* () = send t (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path) in
  let strip_cr l =
    let n = String.length l in
    if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l
  in
  match input_line t.ic with
  | exception End_of_file -> Error (Protocol "connection closed by server")
  | exception Sys_error msg -> Error (Protocol msg)
  | status_line -> (
    match
      List.filter
        (fun s -> s <> "")
        (String.split_on_char ' ' (strip_cr status_line))
    with
    | version :: code :: _
      when String.length version >= 5 && String.sub version 0 5 = "HTTP/" -> (
      match int_of_string_opt code with
      | None -> Error (Protocol ("bad HTTP status line: " ^ status_line))
      | Some status ->
        (* headers to the blank line, then body to EOF *)
        let rec headers () =
          match input_line t.ic with
          | exception End_of_file -> ()
          | exception Sys_error _ -> ()
          | l -> if strip_cr l <> "" then headers ()
        in
        headers ();
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec body () =
          match input t.ic chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            body ()
          | exception Sys_error _ -> ()
        in
        body ();
        Ok (status, Buffer.contents buf))
    | _ -> Error (Protocol ("bad HTTP status line: " ^ status_line)))
