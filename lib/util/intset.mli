(** Small helpers over integer arrays and sets that the graph and coloring
    code use repeatedly. *)

val sort_uniq : int list -> int list
(** Ascending order, duplicates removed. *)

val array_min : int array -> int
(** Minimum element. Raises [Invalid_argument] on empty arrays. *)

val array_max : int array -> int
(** Maximum element. Raises [Invalid_argument] on empty arrays. *)

val argmin : float array -> int
(** Index of the (first) minimum. Raises [Invalid_argument] on empty
    arrays. *)

val argmax : float array -> int
(** Index of the (first) maximum. Raises [Invalid_argument] on empty
    arrays. *)

val sum : int array -> int
(** Sum of all elements. *)
