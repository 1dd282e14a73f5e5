(** Clique-based lower bounds on the conflict count.

    A clique of size m > k in the conflict graph forces at least
    [excess_pairs m k] monochromatic edges (partition m vertices into k
    color classes as evenly as possible; the within-class pairs are
    unavoidable). Summing the bound over vertex-disjoint cliques of the
    divided pieces gives a certified lower bound on any decomposition's
    conflict number — letting callers report optimality gaps for the
    heuristic algorithms without running an exact solver. *)

val excess_pairs : int -> int -> int
(** [excess_pairs m k]: minimum monochromatic pairs when m mutually
    conflicting vertices share k colors; 0 when [m <= k]. *)

val max_clique : Mpl_graph.Ugraph.t -> int array
(** A maximum clique of the graph (branch-and-bound with greedy coloring
    bound; anytime under 500,000 expanded nodes, past which the best
    clique found so far is returned). Sorted ascending. *)

val conflict_lower_bound : k:int -> Decomp_graph.t -> int
(** Certified lower bound on the conflict number of any k-coloring:
    greedily extracts vertex-disjoint cliques from each connected
    component of the conflict graph and sums their excess pairs. *)
