(** Color assignments and their cost.

    A coloring maps every vertex of a decomposition graph to a mask in
    [0..k-1]. The decomposition objective is
    [conflict# + alpha * stitch#]; internally costs are integers in
    milli-units ([weight_conflict] per conflict, [round (alpha * 1000)]
    per stitch) so comparisons are exact. *)

type t = int array
(** [colors.(v)] in [0 .. k-1]; [-1] marks an unassigned vertex. *)

val weight_conflict : int
(** 1000: one conflict in milli-units. *)

val alpha : float
(** 0.1: the paper's stitch weight, the one every run solves under. *)

val stitch_weight : alpha:float -> int
(** [round (alpha * 1000)]. *)

type cost = { conflicts : int; stitches : int; scaled : int }

val evaluate : ?alpha:float -> Decomp_graph.t -> t -> cost
(** Count monochromatic conflict edges and bichromatic stitch edges.
    Unassigned vertices contribute to neither side of their edges.
    Default [alpha] is {!alpha}. *)

val check_range : k:int -> t -> bool
(** Are all assigned colors within [0..k-1]? *)

val is_complete : t -> bool

val permute : t -> int array -> t
(** [permute colors sigma] maps color [c] to [sigma.(c)] (a fresh
    array). Costs are invariant under any bijection. *)
