(** Line-oriented (JSONL) log file with size-based rotation.

    Thread-safe: concurrent {!write}s serialize on an internal mutex
    and each line is flushed whole, so readers never see a torn line.
    When appending a line would push the file past [max_bytes], the
    current file is renamed to [path ^ ".1"] (replacing any earlier
    rotation — at most two files ever exist) and a fresh file is
    opened, so the log's disk footprint is bounded by roughly
    [2 * max_bytes]. *)

type t

val open_ : ?max_bytes:int -> string -> t
(** Open (or append to) [path]. [max_bytes] defaults to 8 MiB; values
    < 1 are clamped to 1. *)

val write : t -> string -> unit
(** Append one line (a ['\n'] is added) and flush. Rotates first if
    the line would not fit. *)

val rotations : t -> int
(** Number of rotations performed since {!open_}. *)

val close : t -> unit
