(** Layouts: a technology description plus a bag of polygonal features.

    Coordinates are nanometers. The benchmark suites follow the paper's
    setup: Metal1-like layers scaled to 20 nm half-pitch with minimum
    feature width w_m = 20 nm and minimum spacing s_m = 20 nm. *)

type tech = {
  half_pitch : int;  (** hp, used by the color-friendly rule *)
  min_width : int;  (** w_m *)
  min_space : int;  (** s_m *)
}

val default_tech : tech
(** hp = 20, w_m = 20, s_m = 20 (paper Section 6). *)

val quadruple_min_s : tech -> int
(** min_s = 2 s_m + 2 w_m (80 nm at default tech) — the paper's QPL
    coloring distance. *)

val pentuple_min_s : tech -> int
(** min_s = 3 s_m + 2.5 w_m (110 nm at default tech) — the paper's
    pentuple coloring distance. *)

val min_s_for : k:int -> tech -> int
(** The coloring distance of a [k]-mask run when none is given:
    {!pentuple_min_s} for [k >= 5], {!quadruple_min_s} otherwise. *)

val kclique_min_s : tech -> int
(** min_s = 2 s_m + w_m (60 nm) — the distance at which 1-D regular
    patterns already contain K5 (paper Fig. 7). *)

type t = {
  tech : tech;
  features : Mpl_geometry.Polygon.t array;
  name : string;
}

val make : ?name:string -> tech -> Mpl_geometry.Polygon.t list -> t

val feature_count : t -> int

val pp_summary : Format.formatter -> t -> unit
