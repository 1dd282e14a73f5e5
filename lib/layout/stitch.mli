(** Projection-based stitch-candidate generation.

    A stitch splits one polygonal feature into two touching sub-features
    printed on different masks. A stitch position is only legal where no
    conflicting neighbor is "opposite" the wire — otherwise both halves
    would still conflict and the stitch is useless. Following the
    double/triple-patterning literature, we project every neighbor within
    the coloring distance onto the long axis of a wire, dilate each
    projection by the minimum overlap margin, and take maximal uncovered
    interior spans as stitch candidates.

    Only single-rectangle features whose long side is at least
    [2 * min_width] beyond the short side are considered for splitting;
    contacts and jogged polygons are kept whole. *)

type node = {
  feature : int;  (** index of the originating feature in the layout *)
  shape : Mpl_geometry.Polygon.t;  (** the (possibly split) sub-feature *)
}

type t = {
  nodes : node array;
  stitch_edges : (int * int) list;
      (** pairs of node indices joined by a stitch candidate *)
}

val split :
  ?max_stitches_per_feature:int ->
  ?obs:Mpl_obs.Obs.t ->
  Layout.t ->
  min_s:int ->
  t
(** Compute decomposition-graph nodes and stitch edges for a layout under
    coloring distance [min_s]. With [max_stitches_per_feature] = 0 the
    result has one node per feature and no stitch edges. Default limit:
    3 stitches per feature. With [obs], the split runs under a
    [graph.stitch_split] span, tagged with its feature neighbor index's
    {!Mpl_geometry.Grid_index.span_args} when it built one. *)
