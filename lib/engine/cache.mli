(** Memo table for solved pieces — a shared, byte-budgeted LRU with
    optional disk persistence.

    Standard-cell layouts repeat the same small conflict cliques
    thousands of times (paper Fig. 7 patterns); after graph division the
    resulting pieces are tiny and massively duplicated, and in a
    generated layout the repeats come out with the same vertex order
    too. This cache keys every piece by its own serialization: the
    multi-relation graph (conflict / stitch / friendly edge sets) in its
    original labeling, salted with the solver parameters. A hit requires
    the probing piece to be byte-identical to the stored one, so the
    returned coloring is exactly what the deterministic solver would
    have produced: enabling the cache can never change any reported
    cost or coloring. A relabeled copy of a stored piece is simply a
    different entry.

    The table is designed to outlive a single run: [mpld serve] shares
    one instance across every request, bounds its resident size with a
    byte budget (least-recently-used entries are evicted first), and
    persists it across restarts with {!save} / {!load}. Eviction can
    only turn hits into re-solves, so sharing, budgeting and reloading
    never change any result.

    All operations are thread-safe (single internal mutex); hit/miss
    counters are [Atomic]. *)

type signature = private {
  n : int;
  serial : string;  (** salted original-labeling serialization: the key *)
}

val signature :
  n:int -> relations:(int array * int array) array -> signature
(** [signature ~n ~relations] serializes the graph on [n] vertices
    whose [relations.(r)] is relation [r] in CSR form [(off, nbr)]: the
    neighbors of [u] are [nbr.(off.(u)) .. nbr.(off.(u+1) - 1)], each
    run sorted ascending and free of duplicates and of [u] itself, and
    every edge listed in both endpoints' runs — the decomposition
    graph's own adjacency arrays. Relations are distinguished: a conflict
    edge never matches a stitch edge. Equivalent to
    {!signature_salted} with an empty salt.

    The serial is the vertex count, then each relation's edges as
    [u,v;] pairs with [u < v] in lexicographic order — the bytes the
    edge-list form of earlier versions produced from the same graph, so
    [mplcache 2] files and a server's shared table keep hitting across
    the change. Cost O(n + E), with no edge list and no sort.
    @raise Invalid_argument if [off] is not [n + 1] long or a neighbor
    is out of range. *)

val signature_salted :
  salt:string -> n:int -> relations:(int array * int array) array -> signature
(** Like {!signature}, with [salt] prefixed to the serialization,
    partitioning the table: signatures with different salts can never
    match each other. A cache shared across requests with different
    solver parameters salts each piece with a parameter fingerprint, so
    a piece solved under one (k, algorithm, ...) setting is never served
    to another.
    @raise Invalid_argument if [salt] contains a newline (salts are
    embedded in the single-line persistence format). *)

type 'v t
(** A memo table storing, per serialization, a solved coloring plus an
    arbitrary metadata payload ['v] (e.g. division statistics). *)

val create :
  ?byte_budget:int -> ?obs:Mpl_obs.Obs.t -> ?fault:Fault.t -> unit -> 'v t
(** [byte_budget] (default: unlimited) bounds the approximate resident
    size — each entry is charged its serial and coloring lengths plus a
    fixed overhead — by evicting least-recently-used entries on store
    ({!evictions}); a {!find} hit refreshes an entry's recency. When
    [obs] carries an enabled metrics registry the cache maintains
    [cache.probes] / [cache.hits] / [cache.stores] /
    [cache.corrupt_drops] / [cache.evictions] counters, [cache.bytes] /
    [cache.entries] gauges and [cache.probe_ns] / [cache.store_ns]
    latency histograms; otherwise every probe is a no-op with no clock
    read. When [fault] is armed for {!Fault.Cache_corrupt}, the
    selected stores write a corrupted coloring (checksummed first, so
    validation catches it). *)

val find : 'v t -> signature -> (int array * 'v) option
(** On a hit, returns a fresh copy of the stored coloring. Updates the
    hit/miss counters. Every stored coloring carries an integrity
    checksum computed at store time; an entry that fails validation
    (wrong length or checksum mismatch) is dropped — counted in
    {!corrupt_drops} — and the probe reports a miss, so the caller
    re-solves instead of reusing a damaged coloring. *)

val store : 'v t -> signature -> int array * 'v -> unit
(** Remember a solved piece. First writer wins: a store whose serial is
    already resident is ignored, keeping replays deterministic. May
    evict LRU entries when a byte budget is set. *)

val hits : 'v t -> int
val misses : 'v t -> int

val corrupt_drops : 'v t -> int
(** Entries dropped by checksum validation in {!find}. *)

val evictions : 'v t -> int
(** Entries evicted by the byte budget. *)

val length : 'v t -> int
(** Number of stored entries. *)

val bytes : 'v t -> int
(** Approximate resident size of all stored entries. *)

type stats = {
  entries : int;  (** resident entries *)
  resident_bytes : int;  (** approximate resident size *)
  byte_budget : int option;
  s_hits : int;
  s_misses : int;
  s_corrupt_drops : int;
  s_evictions : int;
}

val stats : 'v t -> stats
(** One consistent snapshot of the size and traffic counters. *)

(** {1 Persistence}

    The whole table round-trips through a line-oriented disk format
    (header [mplcache 2]) so a serving process can carry its
    accumulated entries across restarts. Every entry is covered by the
    same integrity checksum {!find} validates, recomputed on load:
    corrupting an entry on disk drops exactly that entry. Files record
    the LRU order. *)

exception Bad_file of string
(** Raised by {!load} on a structurally unusable file: a bad header, or
    a file written in another format version (such as the
    [mplcache 1] files of the canonical-key cache). Damaged {e entries}
    never raise — they are dropped and counted instead. *)

val save : 'v t -> value_to_string:('v -> string) -> string -> unit
(** [save t ~value_to_string path] writes every resident entry to
    [path] (via a temp file + rename, so a crash never leaves a
    half-written file). [value_to_string] must produce a single-line
    encoding of the payload.
    @raise Invalid_argument if a serialized value contains a newline. *)

val load : 'v t -> value_of_string:(string -> 'v option) -> string -> int * int
(** [load t ~value_of_string path] inserts the file's entries into [t]
    and returns [(loaded, dropped)]. An entry is dropped (never raising)
    when its checksum no longer matches, its payload fails
    [value_of_string], it would duplicate a resident entry, or the file
    is truncated mid-entry. Loading respects the byte budget, evicting
    as it fills. Saved LRU order is preserved.
    @raise Bad_file on a bad header or format version.
    @raise Sys_error if the file cannot be read. *)
