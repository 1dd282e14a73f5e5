(** Rectilinear polygons represented as unions of axis-aligned rectangles.

    Layout features (wires, contacts, jogged shapes) are stored as a
    non-empty list of rectangles whose union is connected. Distance
    between polygons is the minimum rectangle-pair distance, which is
    exact for closed rectilinear regions. *)

type t

val of_rects : Rect.t list -> t
(** Build a polygon from its rectangle decomposition. Raises
    [Invalid_argument] if the list is empty or the union is not
    connected (rectangles must pairwise chain through touching
    contacts). *)

val of_rect : Rect.t -> t
(** Single-rectangle polygon. *)

val rects : t -> Rect.t list
(** The rectangle decomposition (in construction order). *)

val bbox : t -> Rect.t
(** Bounding box. *)

val area : t -> int
(** Total area, counting overlapping sub-rectangle regions once is NOT
    guaranteed; benchmark features use disjoint decompositions where this
    is the exact area. *)

val distance2 : t -> t -> int
(** Squared Euclidean distance between the two closed regions. *)
