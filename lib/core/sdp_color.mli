(** SDP relaxation of a decomposition-graph component (paper Section 3.1
    / Section 5) and the two mappings of its Gram matrix back to colors:
    greedy (the baseline from ref. [4]) and backtrack (paper
    Algorithm 1). *)

val relax :
  ?mode:Mpl_numeric.Sdp.mode ->
  k:int ->
  alpha:float ->
  Decomp_graph.t ->
  Mpl_numeric.Sdp.solution
(** Solve the vector-program relaxation for the component
    ({!Mpl_numeric.Sdp.solve}; [mode] defaults to [Auto]). *)

val greedy_map :
  k:int -> Mpl_numeric.Sdp.solution -> Decomp_graph.t -> int array
(** Vertices in conflict-degree order each take the color with the
    highest accumulated Gram affinity to already-colored vertices,
    hard-penalizing same-color conflict neighbors. *)

val tth : float
(** 0.9: the paper's merge threshold t_th, the one every run solves
    under. *)

val backtrack :
  ?obs:Mpl_obs.Obs.t ->
  ?budget:Mpl_util.Timer.budget ->
  k:int ->
  alpha:float ->
  Mpl_numeric.Sdp.solution ->
  Decomp_graph.t ->
  int array
(** Paper Algorithm 1: merge every pair with Gram entry >= {!tth}
    into one vertex of a weighted merged graph, then
    branch-and-bound search on the merged graph. Anytime under the node
    cap; seeded with the greedy mapping so it never does worse. With
    [obs], the merged search's expanded node count is observed into the
    [solver.bnb_nodes] histogram. *)
