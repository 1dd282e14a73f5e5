(** 1-D integer intervals [\[lo, hi\]].

    The projection step of stitch-candidate generation works on the
    footprints of neighbor shapes along a wire's long axis: merge the
    covered intervals, complement them within the wire's interior, and
    keep the spans long enough for a legal stitch. *)

type t = int * int
(** [(lo, hi)] with [lo <= hi]; empty intervals are represented by
    [lo > hi] and normalized away by the operations below. *)

val length : t -> int
(** [hi - lo]; negative for an empty interval. *)

val merge : t list -> t list
(** Union of the intervals as a minimal sorted list of disjoint
    intervals (touching intervals are coalesced). *)

val complement : t -> t list -> t list
(** [complement span covered] is the list of maximal sub-intervals of
    [span] not covered by the MERGED, SORTED list [covered], in
    ascending order. *)

val dilate : int -> t -> t
(** Grow by the margin on both sides. *)
