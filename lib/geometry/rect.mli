(** Axis-aligned integer rectangles.

    All coordinates are in layout database units (1 unit = 1 nm in the
    benchmark suites). Rectangles are closed regions [\[x0,x1\] x \[y0,y1\]]
    with strictly positive width and height. *)

type t = private { x0 : int; y0 : int; x1 : int; y1 : int }

val make : x0:int -> y0:int -> x1:int -> y1:int -> t
(** Build a rectangle. Raises [Invalid_argument] unless [x0 < x1] and
    [y0 < y1]. *)

val width : t -> int
val height : t -> int
val area : t -> int

val translate : t -> dx:int -> dy:int -> t

val inflate : t -> int -> t
(** [inflate r d] grows [r] by [d] on every side ([d] may be negative as
    long as the result stays non-degenerate). *)

val overlaps : t -> t -> bool
(** Do the closed interiors share a point of positive area? *)

val touches : t -> t -> bool
(** Do the closed rectangles intersect at all (including edge/corner
    contact)? *)

val intersection : t -> t -> t option
(** Positive-area intersection, if any. *)

val union_bbox : t -> t -> t
(** Smallest rectangle containing both. *)

val distance2 : t -> t -> int
(** Squared Euclidean distance between the closed rectangles (0 if they
    touch). Stays within [int] range for coordinates below ~2^30. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
