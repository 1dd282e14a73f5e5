(** Simple undirected graphs on vertices [0 .. n-1].

    This is the shared substrate for the division pipeline. Adjacency is
    stored in CSR form: a flat offset array indexing a flat neighbor
    array whose per-vertex runs are sorted and deduplicated. Edges added
    through [add_edge] accumulate in a flat endpoint buffer and are
    frozen into the CSR arrays on the first read, so the common
    build-then-traverse pattern costs two passes and allocates no
    per-edge cells. Parallel edges are collapsed; self-loops are
    rejected. *)

type t

val create : int -> t
(** [create n] is the empty graph on [n] vertices. *)

val n : t -> int
(** Vertex count. *)

val add_edge : t -> int -> int -> unit
(** Add the undirected edge. Ignores duplicates; raises
    [Invalid_argument] on self-loops or out-of-range endpoints. *)

val mem_edge : t -> int -> int -> bool
(** Binary search in the sorted neighbor run — O(log deg). *)

val degree : t -> int -> int

val neighbors : t -> int -> int list
(** Neighbor list in ascending order, no duplicates. Allocates; prefer
    [iter_neighbors] or [csr] on hot paths. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Apply to each neighbor in ascending order. Allocation-free. *)

val csr : t -> int array * int array
(** [(off, nbr)] after freezing: the neighbors of [v] are
    [nbr.(off.(v)) .. nbr.(off.(v+1) - 1)], sorted ascending. The arrays
    are owned by the graph — callers must not mutate them, and the
    reference is invalidated by a subsequent [add_edge]. *)

val of_csr : n:int -> off:int array -> nbr:int array -> t
(** Adopt prebuilt CSR arrays without copying. The caller asserts the
    representation invariants: [off] has length [n+1] with [off.(0) = 0]
    and [off.(n) = Array.length nbr], each run is strictly ascending
    with in-range endpoints and no self-loops, and adjacency is
    symmetric. Offsets are shape-checked; run contents are trusted. *)

val edges : t -> (int * int) list
(** Every edge once, as [(u, v)] with [u < v], ascending
    lexicographically. *)

val edge_count : t -> int

val of_edges : int -> (int * int) list -> t
(** Graph with the given vertex count and edges. *)

val induced : t -> int array -> t * int array
(** [induced g vs] is the subgraph induced by the vertex set [vs]
    (which must not contain duplicates), relabeled to [0..|vs|-1] in the
    order given, together with the map from new index to original
    vertex. *)
