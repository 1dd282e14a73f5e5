(** Streaming driver: route independent pieces through the {!Pool} with
    {!Cache}-based deduplication, overlapping piece production with
    solving.

    The driver is generic in the piece type ['a] and in the metadata
    the solver returns alongside each coloring ['v] (the decomposer
    threads per-piece division statistics through it). All cache probes
    and leader elections happen on the pushing thread in push order, so
    a given (piece sequence, cache contents) pair always resolves hits,
    batch reuses, and fresh solves identically — regardless of how many
    workers the pool has or how work is scheduled behind [plant]. This
    is what keeps [jobs] a pure performance knob. *)

type stats = {
  pieces : int;  (** pieces routed through the driver *)
  solved : int;  (** solved fresh (planted) *)
  hits : int;  (** served from pre-existing cache entries *)
  reused : int;  (** deduplicated against an earlier piece of this stream *)
  failed : int;  (** leaders whose solve raised and was recovered *)
  rejected : int;  (** cache hits discarded by [validate] *)
}

type ('a, 'v) t
(** A piece stream. Not thread-safe: push and force from the
    coordinating thread only (worker parallelism lives behind the
    [plant] callback). *)

type ('a, 'v) cell
(** A pushed piece's pending result; redeem with {!force}. *)

val stream :
  ?obs:Mpl_obs.Obs.t ->
  ?cache:'v Cache.t ->
  ?signature:('a -> Cache.signature option) ->
  ?validate:('a -> int array -> bool) ->
  ?recover:('a -> exn -> Printexc.raw_backtrace -> int array * 'v) ->
  plant:('a -> unit -> int array * 'v) ->
  unit ->
  ('a, 'v) t
(** Create a stream. [plant item] is invoked at {!push} time for every
    item that must be solved fresh (cache miss that is not a follower of
    an earlier pushed item); it starts the work — typically by
    submitting to a {!Pool} — and returns the join thunk {!force} later
    calls for the result.

    [signature item] is the item's cache key ([None]: never cached).
    [validate item colors] (default: always [true]) vets every cache
    hit before reuse; a rejected hit counts in [stats.rejected] and the
    item is re-solved as if it had missed.

    [recover item exn bt] isolates failures per item: when a leader's
    join raises, the exception is confined to that item and [recover]
    supplies a substitute result (which followers of the same leader
    also reuse, but which is never stored into the cache). The item
    counts in [stats.failed]. Without [recover] the failing leader's
    exception is re-raised from {!force} with its original
    backtrace. *)

val push : ('a, 'v) t -> 'a -> ('a, 'v) cell
(** Route one piece: probe the cache, elect or follow a batch leader,
    or plant a fresh solve. Returns immediately; the result is demanded
    with {!force}. For a piece whose [signature] is [Some s]: a
    validated cache hit is [Ready] at once; a piece with the same
    serialization as an earlier pushed leader that is not yet forced (or
    whose solve was recovered) follows that leader (one solve serves
    both); everything else is planted. Pieces with no signature (or no
    [cache]) are always planted. *)

val force : ('a, 'v) t -> ('a, 'v) cell -> int array * 'v
(** Redeem a cell (idempotent — the result is memoized). For a planted
    leader this joins the work, stores the result into the cache and
    forgets the leader (later duplicates hit the cache instead, so the
    stream holds no forced leader's piece), and — if the join raises —
    routes the failure through [recover] (counted
    in [stats.failed]; the substitute is never cached) or re-raises
    with the original backtrace when no [recover] was given. Forcing a
    follower forces its leader first. *)

val finish : ('a, 'v) t -> stats
(** Snapshot the stream's statistics and accumulate them into the
    [engine.pieces] / [engine.solved] / [engine.cache_hits] /
    [engine.batch_reused] / [engine.piece_failures] /
    [engine.cache_rejects] counters of [obs]. Call once, after the last
    {!force}. *)
