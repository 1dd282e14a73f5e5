(** Uniform-grid spatial index over rectangles.

    Decomposition-graph construction needs all feature pairs within the
    minimum coloring distance. Bucketing feature bounding boxes into a
    uniform grid of cells sized to that query radius keeps each query
    to the few cells around the query box.

    The cell table is compiled on the first query after an {!add}.
    When the cell bounding box of all entries holds at most 8 cells per
    cell incidence (one incidence is one entry covering one cell), the
    table is {e dense}: one bucket per cell of that box, found by
    arithmetic, so a query costs O(cells it covers + candidates) with
    no hashing. Otherwise the table is {e sparse}: one bucket per
    occupied cell behind a hash table whose key hash mixes every bit of
    the cell, so bucket chains stay short even for clustered layouts.
    Both tables visit candidates in the same order, so every result,
    including the order of {!query}'s list, is independent of the
    choice. *)

type t

val create : cell:int -> t
(** Fresh index with square cells of side [cell] (> 0). *)

val add : t -> int -> Rect.t -> unit
(** [add t id r] registers item [id] with bounding box [r]. *)

val query : t -> Rect.t -> radius:int -> int list
(** [query t r ~radius] returns ids whose registered boxes may lie within
    [radius] of [r] (a superset: exact distance must be re-checked by the
    caller). Each id is returned at most once. *)

val iter_pairs : t -> radius:int -> (int -> int -> unit) -> unit
(** [iter_pairs t ~radius f] calls [f i j] (with [i < j]) for every pair
    of registered items whose boxes may be within [radius]. Pairs are
    visited exactly once. *)

type stats = {
  cells : int;
      (** buckets in the table: every cell of the bounding box when
          dense, the occupied cells when sparse *)
  incidences : int;  (** (entry, covered cell) pairs *)
  dense : bool;  (** is the dense table in use? *)
  max_chain : int;
      (** longest hash-bucket chain of the sparse table; 0 when dense *)
}

val stats : t -> stats
(** Shape of the current cell table (compiled first if stale). Read
    only: it never changes what a query returns. *)

val span_args : t -> (string * Mpl_obs.Sink.arg) list
(** [cells], [incidences] and [dense] (0 or 1) of {!stats}, as trace
    span arguments. *)
