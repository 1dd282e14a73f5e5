(** Connected components, labelled by breadth-first search. *)

val components : Ugraph.t -> int array array
(** The connected components, each an ascending array of vertices. *)

val labels : Ugraph.t -> int array * int
(** [labels g] is [(lbl, k)]: [lbl.(v)] is the component index of [v]
    in [0..k-1]. *)
