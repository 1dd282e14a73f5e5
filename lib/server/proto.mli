(** Wire protocol of the decomposition server.

    Text-based, newline-framed control lines with one length-prefixed
    binary body. A connection carries any number of requests in
    sequence. Client speaks first:

    {v
    DECOMPOSE <nbytes> k=4 algo=linear cache=1 [min_s=N] [jobs=N] [inject=SPEC] [deadline=MS]
    <nbytes bytes of layout text (Layout_io format)>
    STATS | METRICS | PING | QUIT
    v}

    Server replies to a [DECOMPOSE] with either one [BUSY] line
    (admission control rejected it), one [ERR] line (bad layout /
    internal failure), or a stream

    {v
    ACK rid=<id>
    PIECE <idx> <n> <v>:<c> ...     (one per independent component,
                                     in deterministic component order)
    COST conflicts=.. stitches=.. scaled=.. elapsed=.. timed_out=0|1
    ENGINE pieces=.. solved=.. hits=.. reused=.. failed=.. rejected=..
    RESILIENCE degraded=.. piece_failures=.. fallbacks=.. fired=0|1
    CACHE entries=.. bytes=.. hits=.. misses=.. drops=.. evictions=..
    DONE <n> <c0> ... <c(n-1)>
    v}

    where [PIECE] vertex ids and the [DONE] coloring are in the
    original decomposition-graph indexing. [STATS] and [METRICS] each
    return a single JSON line; [PING] returns [PONG]; [QUIT] returns
    [BYE] and starts a graceful server shutdown. All replies to one
    request finish before the next request on the connection is read,
    so a client never has to demultiplex.

    Unknown [key=value] fields are ignored in both directions, so the
    protocol can grow without breaking older peers: an older client's
    [permuted=1] or [priority=N] is served exactly as without it, and
    an older server's [warm=] cache field is skipped.

    A request armed with [deadline=MS] may instead end with a
    [TIMEOUT deadline_ms=.. elapsed_ms=..] terminal line (the deadline
    expired before the assignment completed);
    a request torn down for another reason ends with
    [CANCELLED <reason>]. Both are terminal: no [DONE] follows. *)

type request = {
  k : int;  (** number of masks (default 4) *)
  algo : Mpl.Decomposer.algorithm;  (** default Linear *)
  jobs : int;
      (** ignored by the server: every request solves on its one shared
          pool, whose width is [mpld serve -j]; still parsed and
          encoded, so a client may state it *)
  min_s : int option;  (** coloring distance; [None] = paper default for k *)
  cache : bool;  (** consult/populate the server's shared cache (default on) *)
  inject : Mpl_engine.Fault.spec option;  (** deterministic fault injection *)
  deadline_ms : int option;
      (** per-request deadline in milliseconds, counted from the start
          of the request's color assignment: past it the request is
          cancelled outright with a [TIMEOUT] terminal, whose
          [elapsed_ms] is counted from admission. [None] (the default)
          arms nothing *)
  windows : int;
      (** > 1 decomposes through the sharded geometric-window front-end
          ({!Mpl.Decomposer.decompose_sharded}), bounding the server's
          per-request graph residency to the largest window. Output is
          bit-identical to an unsharded run (default 1) *)
}

val default_request : request

val algorithm_of_name : string -> Mpl.Decomposer.algorithm option
(** The short algorithm names of the protocol's [algo=] key and of
    [mpld -a]: [ilp], [exact], [sdp-backtrack] (alias [sdp]),
    [sdp-greedy], [linear]. *)

val name_of_algorithm : Mpl.Decomposer.algorithm -> string
(** The canonical short name: the inverse of {!algorithm_of_name}. *)

type command =
  | Decompose of int * request  (** body byte count + parameters *)
  | Redecompose of int * string * request
      (** body byte count + session layout hash + parameters. The body
          is an edit script in [Mpl.Eco] text format; the hash names the
          server-side session (captured by a previous [DECOMPOSE] or
          [REDECOMPOSE] of the base layout) the edits apply to. *)
  | Stats
  | Metrics
  | Ping
  | Quit

val encode_request : request -> body_len:int -> string
(** The [DECOMPOSE] header line, newline included; the caller appends
    exactly [body_len] body bytes. *)

val encode_redecompose : request -> hash:string -> body_len:int -> string
(** The [REDECOMPOSE] header line, newline included; identical field
    vocabulary to {!encode_request} plus [hash=]. The caller appends
    exactly [body_len] bytes of edit-script text. *)

val parse_command : string -> (command, string) result
(** Parse one client control line (no trailing newline; a trailing
    [\r] is tolerated). *)

(** {1 Reply lines}

    Encoders return the full line, newline included. *)

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
      (** [Some rid]: the server-assigned request id ([ACK rid=N]);
          [None] from servers predating request telemetry *)
  | Busy of int * int  (** in-flight, limit *)
  | Piece of { idx : int; cells : (int * int) array }
      (** [(vertex, color)] pairs in the original graph indexing *)
  | Cost of cost_reply
  | Engine of Mpl_engine.Engine.stats
  | Resilience of resilience_reply
  | Cache_info of cache_reply
  | Reused of { reused : int; dirty : int; features : int }
      (** [REDECOMPOSE] only: components reused verbatim from the
          session, components re-solved, and features re-solved *)
  | Done of int array
  | Timeout of { deadline_ms : int; elapsed_ms : int }
      (** terminal: the request's deadline expired before its
          assignment finished *)
  | Cancelled of string
      (** terminal: the request was torn down; the payload is a
          one-token reason (e.g. ["shutdown"]) *)
  | Err of { code : string; line : int option; msg : string }
      (** [code] is [parse] (layout rejected, [line] set), [proto]
          (malformed request), or [internal] *)
  | Pong
  | Bye
  | Json of string  (** a [STATS] / [METRICS] JSON payload line *)

val ack_line : ?rid:int -> unit -> string
(** [ACK rid=N] when [rid] is given, bare [ACK] otherwise. *)

val busy_line : inflight:int -> limit:int -> string
val piece_line : idx:int -> back:int array -> colors:int array -> string
val cost_line : cost_reply -> string
val engine_line : Mpl_engine.Engine.stats -> string
val resilience_line : resilience_reply -> string
val cache_line : cache_reply -> string
val reused_line : reused:int -> dirty:int -> features:int -> string
val done_line : int array -> string
val timeout_line : deadline_ms:int -> elapsed_ms:int -> string
val cancelled_line : reason:string -> string
(** [reason] must be a single token without spaces or newlines. *)

val err_line : code:string -> ?line:int -> string -> string
(** Newlines in the message are flattened to ["; "]. *)

val pong_line : string
val bye_line : string

val parse_reply : string -> (reply, string) result
(** Parse one server reply line (client side). A line starting with
    [{] is returned as {!Json} verbatim. *)
