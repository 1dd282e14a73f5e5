(** Mask density balancing.

    Multiple-patterning masks should carry comparable pattern density
    (the paper's companion work, ICCAD'13 ref. [10], optimizes "balanced
    density" explicitly). This module measures per-mask usage and
    rebalances a finished coloring by recoloring vertices whose move is
    cost-free, always toward the currently least-used mask — so the
    decomposition objective never degrades. *)

val usage : k:int -> Coloring.t -> int array
(** Vertices per mask. *)

val imbalance : k:int -> Coloring.t -> float
(** [(max - min) / mean] of mask usage; 0 for perfectly balanced, 0 for
    empty colorings. *)

val rebalance :
  ?weights:int array ->
  k:int ->
  alpha:float ->
  Decomp_graph.t ->
  Coloring.t ->
  Coloring.t
(** Greedy zero-cost rebalancing (at most 5 passes). With [weights]
    (one non-negative weight per vertex; default all 1) the pass
    balances weighted usage — pass node areas to balance pattern
    density instead of vertex counts. The returned coloring has
    identical conflict and stitch counts. *)
