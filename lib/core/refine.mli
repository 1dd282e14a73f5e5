(** Post-assignment refinement.

    The paper's Algorithm 2 ends with a greedy per-vertex refinement
    pass; this module provides that as a standalone step. It operates
    on a complete coloring and never returns a worse one. *)

val move_delta : ws:int -> Decomp_graph.t -> Coloring.t -> int -> int -> int
(** [move_delta ~ws g colors v c]: scaled-cost change of recoloring [v]
    to [c] ([ws] = stitch weight in milli-units). Exposed for other
    cost-preserving passes (e.g. {!Balance}). *)

val local_search :
  ?max_passes:int -> k:int -> alpha:float -> Decomp_graph.t -> Coloring.t ->
  Coloring.t
(** Steepest-descent recoloring: repeatedly move any vertex to the color
    minimizing its local cost until a pass makes no improvement (or
    [max_passes], default 10, is reached). Returns a fresh array. *)
