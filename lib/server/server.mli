(** The decomposition daemon behind [mpld serve].

    One process owns one work-stealing {!Mpl_engine.Pool} and one
    shared, byte-budgeted {!Mpl_engine.Cache}; any number of client
    connections (Unix-domain and/or TCP) submit {!Proto} requests that
    are scheduled onto them. Three layers:

    - {b transport}: one listener thread multiplexes the listening
      sockets; each accepted connection gets a handler thread that
      reads newline-framed requests and streams replies. Handler
      threads coordinate pool work but solve nothing themselves, so
      OCaml's systhread serialization costs nothing — the parallelism
      lives in the pool's worker domains. A connection whose first
      line is an HTTP request-line is answered as HTTP/1.0 instead
      (see below) and closed after one response.
    - {b scheduler}: admission control bounds the number of requests
      decomposing at once ([max_inflight]); a request over the bound
      gets an immediate [BUSY] reply instead of queueing (the client
      owns its retry policy). Admitted requests share the pool's one
      queue, where each leaf piece's priority is its vertex count.
    - {b shared cache}: all requests with [cache=1] share one cache;
      piece signatures are salted with each request's solver-parameter
      fingerprint, so entries can never cross parameter settings. The
      cache is optionally persisted: loaded on boot, saved on graceful
      shutdown and every [persist_every] served requests.

    {b Request telemetry}: every [DECOMPOSE] gets a server-assigned id
    (echoed as [ACK rid=N]). With [ring > 0] each admitted request
    runs under a private span sink tagged with its id/circuit/k/algo
    (sharing the server-lifetime metrics registry), and every outcome
    — ok, error, parse, busy — lands a summary in a bounded in-memory
    ring and, with [access_log], one JSONL line in a size-rotated
    access log. Latency SLO histograms (queue wait,
    admission-to-first-piece, end-to-end) feed the p50/p90/p99
    estimates in [STATS]. With [ring = 0] and no access log the
    serving path reads no extra clocks per pipeline span and produces
    bit-identical colorings — the pre-telemetry behaviour.

    {b HTTP admin plane} (same listeners, sniffed per connection):
    [GET /metrics] (Prometheus text exposition), [GET /healthz]
    (admission/queue/cache gates; 200 or 503 + JSON), [GET /requests]
    (the ring as JSON, newest first), [GET /trace?id=N] (one request's
    Chrome trace). [HEAD] is honoured; anything else is 400/404.

    {b Request lifecycle}: every admitted request carries a
    {!Mpl_engine.Pool} cancel token threaded through the decomposition
    pipeline. A request with [deadline=MS] arms that token with one
    instant, [MS] after its assignment starts; past it the token reads
    as cancelled: queued pieces are dropped at dequeue without
    running, the coordinator unwinds at its next checkpoint, the client
    gets a [TIMEOUT] terminal, and [server.timeouts] ticks. No thread
    watches the clock. A client that
    disconnects or stops reading mid-stream is detected at the next
    piece flush: the token is cancelled, queued pieces are swept out
    of the shared pool ([server.dropped_tasks] counts them), the
    connection is reaped ([server.reaped_conns]) and the outcome lands
    in the ring/access log as ["disconnected"] — never a stuck handler
    thread, never an unhandled [EPIPE]. All connection I/O is
    non-blocking with read/write deadlines ({!Connio}), and the
    deterministic fault injector can tear any of these paths open on
    demand ([config.fault]).

    Shutdown (SIGTERM via {!request_stop}, or a client [QUIT]) is a
    clean drain: stop accepting, let in-flight requests finish, close
    lingering idle connections, persist the cache, then release the
    pool. *)

type config = {
  unix_socket : string option;  (** path to bind a Unix-domain listener *)
  tcp_port : int option;  (** port to bind a TCP listener *)
  tcp_host : string;  (** TCP bind address (default "127.0.0.1") *)
  jobs : int;  (** worker domains of the shared pool *)
  max_inflight : int;  (** concurrent DECOMPOSE bound; excess gets BUSY *)
  cache_budget : int option;  (** shared-cache byte budget *)
  persist : string option;  (** cache persistence file *)
  persist_every : int;
      (** also save the cache every N served requests (0 = only on
          shutdown) *)
  log : (string -> unit) option;  (** operational log lines (no newline) *)
  ring : int;
      (** request-summary ring capacity (default 32); 0 disables both
          the ring and per-request span tracing *)
  access_log : string option;  (** JSONL access log path (default none) *)
  log_max_bytes : int;
      (** access-log rotation threshold (default 8 MiB) *)
  read_timeout_s : float;
      (** per-connection read deadline (default 10 s; [<= 0] disables):
          bounds every wait for the rest of a partially received
          command line (slowloris) and every stalled wait inside a
          length-prefixed body upload. The wait for the {e first} byte
          of a command line is always unbounded — idle keep-alive
          connections are legitimate. *)
  write_timeout_s : float;
      (** per-connection write deadline (default 10 s; [<= 0]
          disables): one absolute deadline per buffered flush. A
          client that stops draining its socket is reaped — the
          handler thread is never pinned behind a stalled reader, and
          the request's queued pieces are cancelled. *)
  max_body_bytes : int;
      (** largest accepted [DECOMPOSE] length prefix (default 64 MiB);
          an oversize prefix is refused with [ERR proto] before any
          allocation or read. *)
  fault : Mpl_engine.Fault.spec option;
      (** server-wide fault injection, armed once at {!create}: the
          network sites ([conn_drop] / [write_stall] / [torn_frame])
          are probed by every connection's sends and body reads, and
          [worker_delay] by every task run on the shared pool, so the
          occurrence count is server-global and deterministic for
          sequential clients. *)
  sessions : int;
      (** ECO session table capacity (default 8; 0 disables). Every
          successful unsharded [DECOMPOSE] captures an
          {!Mpl.Eco.session} keyed by the layout's canonical hash; a
          [REDECOMPOSE hash=H] applies its edit-script body against
          that session, re-solves only the components inside the dirty
          window, streams only those [PIECE]s plus one [REUSED] line,
          and refreshes the table with the edited layout's session so
          edits chain. Least-recently-used sessions are dropped past
          the capacity. *)
}

val default_config : config
(** No listeners (callers must set at least one), [jobs = 1],
    [max_inflight = 4], unlimited exact-mode cache, no persistence,
    no log, [ring = 32], no access log, 10 s read/write timeouts,
    64 MiB body cap, no fault, [sessions = 8]. *)

type t

val create : config -> t
(** Allocate the pool and the shared cache; load the persisted cache
    if [persist] names a readable file (a structurally bad file is
    logged and ignored — the server boots cold rather than not at
    all); open the access log if configured.
    @raise Invalid_argument if no listener is configured, [jobs < 1],
    [max_inflight < 1], or [ring < 0]. *)

val request_stop : t -> unit
(** Begin graceful shutdown; safe to call from a signal handler and
    idempotent. {!run} returns once the drain completes. *)

val run : t -> unit
(** Bind the configured listeners and serve until {!request_stop} (or
    a client [QUIT]). Returns after the drain: all in-flight requests
    finished, sockets closed and the Unix socket path unlinked, cache
    persisted, pool shut down, access log closed.
    @raise Unix.Unix_error if a listener cannot bind. *)

val stats_json : t -> string
(** The [STATS] payload: server counters (served / rejected / errors /
    in-flight / limits / uptime / pool queue depth), request-latency
    percentiles, plus the shared cache's {!Mpl_engine.Cache.stats}, as
    one compact JSON line (no trailing newline). Exposed for tests. *)

val requests : t -> Ring.entry list
(** The telemetry ring, newest first ([[]] when [ring = 0]). Exposed
    for tests. *)

val trace_events : t -> int -> Mpl_obs.Sink.event list option
(** A finished request's captured spans by request id; [None] when the
    id left the ring (or [ring = 0]). Exposed for tests. *)
