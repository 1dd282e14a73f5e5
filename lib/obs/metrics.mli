(** Registry of named counters, gauges, and log-scaled histograms.

    Handles are looked up (or created) by name once — typically at the
    start of a run or the construction of a pool/cache — and then
    updated lock-free: counters and histogram buckets are [Atomic]s,
    gauges and histogram sums are CAS loops, so concurrent updates from
    pool workers never lose increments. Registration itself takes the
    registry mutex, which is why instrumented code should hoist handle
    lookups out of hot loops.

    {!null} is the disabled registry: handle lookups on it return
    no-op handles without touching any table, and every update on a
    no-op handle is a single branch — the disabled path allocates
    nothing and contends on nothing. *)

type t

val null : t
(** The disabled registry. *)

val create : unit -> t

val enabled : t -> bool

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** Find-or-create. On {!null} returns a no-op handle. *)

val incr : counter -> unit
val add : counter -> int -> unit

val incr_get : counter -> int
(** [incr] that returns the counter's new value ([0] on the no-op
    handle), for a caller that acts on every N-th event. *)

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val max_gauge : gauge -> float -> unit
(** [max_gauge g v] raises the gauge to [v] if [v] is larger. *)

(** {1 Histograms}

    Buckets are log-scaled in powers of two: bucket 0 holds values
    < 1, bucket [i >= 1] holds values in [[2^(i-1), 2^i)]. That spans
    piece sizes, solver node counts, and nanosecond latencies alike
    with 64 buckets. *)

type histogram

val histogram : t -> string -> histogram
val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type hist_snapshot = {
  count : int;
  sum : float;
  min_v : float;  (** +inf when empty *)
  max_v : float;  (** -inf when empty *)
  buckets : (float * float * int) list;
      (** non-empty buckets as [(lo, hi, count)], ascending *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

val snapshot : t -> snapshot
(** A consistent-enough point-in-time view (each cell is read
    atomically; the set of cells is read under the registry mutex).
    The {!null} registry snapshots as empty. *)

val find_counter : snapshot -> string -> int option
(** Value of a counter in a snapshot, [None] when never registered. *)

val find_gauge : snapshot -> string -> float option
(** Value of a gauge in a snapshot, [None] when never registered. *)

val find_histogram : snapshot -> string -> hist_snapshot option
(** A histogram's snapshot by name, [None] when never registered. *)

(** {1 Percentile estimation}

    Estimated from the log2 buckets by linear interpolation inside the
    bucket containing the requested rank, clamped to the histogram's
    exact [min_v, max_v]. With power-of-two buckets the relative error
    is bounded by the bucket width (≤ 2x), in practice much tighter
    for smooth distributions; constant distributions are exact thanks
    to the min/max clamp. *)

val percentile : hist_snapshot -> float -> float
(** [percentile h q] for [q] in [[0, 1]]. Returns [0.] on an empty
    histogram; [q <= 0] gives [min_v], [q >= 1] gives [max_v]. *)

val percentiles : hist_snapshot -> float list -> float list
(** [percentiles h qs = List.map (percentile h) qs]. *)
