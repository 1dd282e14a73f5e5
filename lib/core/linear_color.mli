(** Linear color assignment (paper Algorithm 2, Section 3.2).

    Three stages, all linear in the vertex count:

    + iterative removal of non-critical vertices — conflict degree < k
      and stitch degree < 2 — onto a stack;
    + greedy coloring of the remaining core under three vertex orders
      processed simultaneously (SEQUENCE, DEGREE, 3ROUND — peer
      selection), each order guided by the color-friendly rule
      (Definition 2): friendly neighbors pull a vertex toward their own
      color;
    + greedy post-refinement, then stack pop-up where every popped vertex
      always has a conflict-free color available.

    The 3ROUND order is not spelled out in the paper; we implement it as
    three rounds — vertices of conflict degree >= k, then their
    neighbors, then the rest (see DESIGN.md). *)

val solve : k:int -> alpha:float -> Decomp_graph.t -> int array

val solve_no_friendly : k:int -> alpha:float -> Decomp_graph.t -> int array
(** Ablation: the same algorithm with the color-friendly rule turned
    off. *)
