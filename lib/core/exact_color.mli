(** Exact k-coloring of a decomposition graph by branch-and-bound.

    Reference optimum for tests and the engine behind the ILP row when
    the generic MILP formulation is not wanted. Within the node cap and
    budget the result is provably optimal for
    [conflict# + alpha * stitch#]. *)

val solve :
  ?budget:Mpl_util.Timer.budget ->
  k:int ->
  alpha:float ->
  Decomp_graph.t ->
  Bnb.result
