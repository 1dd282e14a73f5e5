(** Span tracer with thread-local event buffers.

    A sink collects *complete spans* (name, category, begin timestamp,
    duration, arguments) from every thread that touches it. The hot
    path is race-free without locking: the first append from a thread
    registers a fresh buffer for that thread (one mutex acquisition per
    thread per sink, ever); every later append is a plain push onto the
    thread's own buffer. Buffers are keyed per systhread, not per
    domain, because the serving path runs several handler threads on
    domain 0 and pool helping can interleave two requests' spans on one
    domain. {!events} merges the buffers — call it only after all
    workers have finished with the sink (the decomposer flushes after
    the engine batch completes).

    {!null} is the disabled sink: {!span} on it runs the thunk with no
    clock reads and no event allocation, so an untraced run pays only a
    branch. Timestamps are monotonic ({!Mpl_util.Timer.now_ns}),
    relative to the sink's creation instant. *)

type arg = Int of int | Float of float | Str of string
(** Span argument values, rendered into the Chrome trace [args] object. *)

type event = {
  name : string;  (** span name, e.g. ["division.ghtree"] *)
  cat : string;  (** category, e.g. ["division"] — Chrome [cat] field *)
  ts_ns : int64;  (** begin time, ns since sink creation *)
  dur_ns : int64;  (** duration in ns *)
  tid : int;  (** thread id the span ran on *)
  args : (string * arg) list;
}

type t

val null : t
(** The disabled sink: every operation is a no-op. *)

val create : ?tags:(string * arg) list -> unit -> t
(** A fresh enabled sink; its epoch is the creation instant. [tags]
    are ambient span tags — appended to the [args] of every event the
    sink records, so a request-scoped sink stamps its request id,
    circuit, k and algorithm on every span without threading them
    through each call site. *)

val enabled : t -> bool

val span : t -> ?cat:string -> ?args:(string * arg) list ->
  ?late_args:(unit -> (string * arg) list) -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f ()] and, on an enabled sink, records a
    complete span around it (also when [f] raises). [cat] defaults to
    the prefix of [name] up to the first ['.'] (or [name] itself).
    [late_args] is called once [f] has returned, on an enabled sink
    only, and its arguments follow [args] — for facts known only at the
    span's end.
    Spans made by nested [span] calls on the same thread are properly
    nested by construction. *)

val events : t -> event list
(** All recorded events merged across threads, sorted by [ts_ns] (ties
    by longer duration first, so parents sort before their children).
    Only call after all threads are done recording. *)
