(** Non-blocking connection I/O for the server: timed reads, buffered
    timed writes, and deterministic network fault injection.

    One [t] wraps one accepted socket. The fd is switched to
    non-blocking mode and every wait goes through [select], so a
    handler thread can never be pinned by a peer that stops reading or
    writing:

    - {b reads} — {!read_line} waits forever for the *first* byte of a
      line (an idle keep-alive connection is fine) but applies the
      read timeout as soon as a line is partially received (slowloris
      protection); {!read_exact} applies the read timeout to every
      wait with no progress (a slow-but-moving body upload never
      trips it, a stalled one does).
    - {b writes} — {!send} appends to a per-connection buffer and
      flushes it past a threshold; {!flush} writes the buffer out
      under one absolute write deadline. A reader that stops draining
      its socket surfaces as [Error Timeout]; a vanished peer
      ([EPIPE]/[ECONNRESET]) as [Error Closed]. Neither raises.

    When the injector is armed for a network site, each {!send} probes
    it: [Conn_drop] shuts the connection down, [Write_stall] reports
    an exhausted write deadline (without sleeping), [Torn_frame]
    writes half the payload and shuts down — so every teardown path is
    reachable deterministically. {!read_exact} additionally probes
    [Conn_drop], modeling a client vanishing mid-upload. After any
    fault or I/O failure the connection is dead and all further
    operations fail fast. *)

type t

type werr =
  | Timeout  (** write deadline exhausted: the peer stopped reading *)
  | Closed  (** peer gone ([EPIPE]/[ECONNRESET]/...) or already dead *)

val create :
  ?fault:Mpl_engine.Fault.t ->
  ?read_timeout_s:float ->
  ?write_timeout_s:float ->
  Unix.file_descr ->
  t
(** Wrap an accepted socket (sets [O_NONBLOCK]). Timeouts [<= 0]
    disable the respective deadline (waits become infinite). Defaults:
    10 s each, no fault. *)

val read_line : ?timed:bool -> t -> (string, [ `Eof | `Timeout | `Too_long ]) result
(** Next newline-terminated line, newline stripped (lines are capped
    at 64 KiB — [`Too_long] past that). The wait for the first byte is
    unbounded (an idle keep-alive connection is fine); once any byte
    of the line arrived, each subsequent wait is bounded by the read
    timeout. With [~timed:true] the first byte is bounded too — used
    for HTTP header drains, where the peer already owes us a line. *)

val read_exact : t -> int -> (string, [ `Eof | `Timeout ]) result
(** Exactly [n] bytes (the length-prefixed request body). Every wait
    without progress is bounded by the read timeout. *)

val send : t -> string -> (unit, werr) result
(** Buffer [s] for writing, flushing if the buffer passed 8 KiB. *)

val flush : t -> (unit, werr) result
(** Write the buffered output out under one absolute write deadline. *)

val close : t -> unit
(** Close the fd. Idempotent. *)
