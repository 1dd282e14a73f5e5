(** Gomory-Hu tree by Gusfield's algorithm (paper refs. [20, 21]).

    The tree encodes all-pairs minimum-cut *values* of a connected
    undirected unit-capacity graph with n-1 max-flow computations: the
    minimum cut between u and v equals the smallest edge weight on the
    tree path between them. Note that Gusfield's variant is
    flow-equivalent only — the bipartition induced by a tree edge is not
    necessarily a minimum cut, so consumers that need an actual cut must
    re-run one max-flow (see [Mpl.Division]). *)

type t

val build : ?bound:int -> Ugraph.t -> t
(** Build the tree. The graph must be connected (one component of
    {!Connectivity.components}); otherwise results are undefined.

    With [~bound:b] every Gusfield flow runs K-bounded
    ({!Maxflow.max_flow_bounded}), terminating as soon as it reaches
    [b] — O(b * E) per flow instead of O(V^2 * E). A tree edge whose
    flow hit the bound is recorded with the stand-in weight [b]
    (meaning "the real cut is >= b"; counted in {!capped}), and the
    exact all-pairs property is weakened to exactly what (K-1)-cut
    division needs:

    - every tree edge with weight < [b] is the exact minimum-cut value
      of its endpoint pair;
    - if no tree edge has weight < [b], no vertex pair of the graph has
      a cut < [b] (min-cut submodularity along tree paths);
    - if the global minimum cut [lambda] is < [b], some tree edge
      records exactly [lambda].

    {!min_cut_value} on a bounded tree returns a lower bound on the true
    min cut, exact whenever it is < [b]. *)

val n : t -> int

val capped : t -> int
(** Number of tree edges whose bounded flow hit the bound during
    {!build} ("uncuttable" edges, weight recorded as the bound). Always
    0 for unbounded builds. *)

val tree_edges : t -> (int * int * int) array
(** [(v, parent, weight)] for every non-root vertex [v]; the root is
    vertex 0. *)

val min_cut_value : t -> int -> int -> int
(** Minimum cut value between two distinct vertices, read off the tree
    path. On a tree built with [~bound:b] this is a lower bound, exact
    when < [b]. *)

val components_with_min_weight : t -> int -> int array array
(** [components_with_min_weight t w] removes every tree edge of weight
    < [w] and returns the resulting vertex groups (paper Algorithm 3,
    line 2-3). On a bounded tree this is meaningful for [w <= bound]. *)
