(** Engineering-change-order (ECO) edit scripts and re-decomposition
    sessions.

    An ECO is a small edit to an already-decomposed layout: a few
    features added, removed, or nudged. Because every edge of the
    decomposition graph joins features within the color-friendly radius
    [min_s + hp] (see {!Shard} and DESIGN.md §15), an edit can only
    change the graph inside that dilation of the edited rectangles —
    every connected component entirely outside it keeps its coloring
    byte-for-byte. This module holds the two data types that make that
    reuse possible across process boundaries:

    - {!edit} scripts: a tiny line-oriented text format describing
      adds/removes/moves against a {e specific} base layout, plus a
      deterministic generator for benchmarks and tests.
    - {!session} snapshots: the base layout, per-component colorings
      and component costs from a previous decomposition, persisted with
      the same atomic tmp+rename, checksummed discipline as {!Cache}.

    The actual incremental solve lives in [Decomposer.redecompose];
    this module is pure data plumbing and depends only on the geometry
    and layout layers. *)

(** {1 Edits} *)

type edit =
  | Add of Mpl_geometry.Polygon.t  (** append a new feature *)
  | Remove of int  (** delete feature [index] of the base layout *)
  | Move of { index : int; dx : int; dy : int }
      (** translate feature [index] of the base layout *)

(** Indices always refer to the {e base} layout. Each base feature may
    be named by at most one edit; {!apply} rejects scripts that remove
    or move the same feature twice. *)

val edits_to_string : edit list -> string
(** Serialize to the edit-script text format:
    {v
    # comment
    MOVE <index> <dx> <dy>
    REMOVE <index>
    ADD <nrects> x0 y0 x1 y1 [x0 y0 x1 y1 ...]
    v} *)

val parse_edits : string -> (edit list, string) result
(** Parse the format written by {!edits_to_string}. Blank lines and
    [#] comments are ignored. Errors mention the offending line. *)

val apply :
  Mpl_layout.Layout.t ->
  edit list ->
  (Mpl_layout.Layout.t * int option array, string) result
(** [apply base edits] returns the edited layout together with
    [new_of_old]: [new_of_old.(i)] is the edited-layout index of base
    feature [i], or [None] if it was removed. Survivors keep their
    relative order; added features are appended after all survivors in
    script order (so an untouched component's features keep ascending
    order and its extracted pieces stay byte-identical). Errors on
    out-of-range indices or a feature edited twice. *)

val dirty_rects : Mpl_layout.Layout.t -> edit list -> Mpl_geometry.Rect.t list
(** Every rectangle whose presence changed: the base rectangles of
    removed and moved features, the translated rectangles of moved
    features, and the rectangles of added features. Dilating these by
    [min_s + hp] bounds the region where the decomposition graph can
    differ. *)

val generate : seed:int -> count:int -> Mpl_layout.Layout.t -> edit list
(** Deterministic pseudo-random edit script: roughly half moves (small
    multiples of the tech pitch), a third adds (new wire stubs near
    existing features), the rest removes. Edits are spatially
    localized, the way a real change order reworks one region of the
    die rather than sprinkling the whole layout: every target is drawn
    from the smallest square window around a seed-chosen anchor
    feature that holds about 4x [count] features, so the dirty region
    scales with the edit, not with the die. Never edits the same base
    feature twice; the same [seed]/[count]/layout always yields the
    same script. *)

(** {1 Sessions} *)

type comp = {
  features : int array;
      (** base-layout feature indices, ascending *)
  colors : int array;
      (** per-segment colors, segments in (feature, segment) order *)
  conflicts : int;
  stitches : int;
  scaled : int;  (** this component's cost in milli-units *)
}

type session = {
  layout : Mpl_layout.Layout.t;  (** the base layout the colors are for *)
  min_s : int;
  salt : string;  (** parameter fingerprint; must match to reuse *)
  seg_counts : int array;  (** stitch segments per base feature *)
  comps : comp array;
}
(** Everything [Decomposer.redecompose] needs to reuse a previous run:
    the exact base layout (so edits resolve against the same features
    the colors were computed for), the stitch-segment count per feature
    (to place reused colors without re-splitting clean features), and
    each connected component's features, coloring and cost.

    A session holds its layout parsed, never as text: text and digest
    are made only where a session leaves or enters the process
    ({!save}, {!load}, a server's session key). Polygons are immutable,
    but the [features] array is not: callers must not mutate
    [session.layout] or any layout {!apply} derived from it, since the
    edited layout shares its polygons with the base and
    [Decomposer.redecompose] returns it as the next session's layout. *)

val hash_layout : Mpl_layout.Layout.t -> string
(** MD5 hex of the layout's canonical [Layout_io] text. This is the key
    a server indexes its sessions by, and the key a client names a
    base layout by in a REDECOMPOSE; it is also the [hash] line of a
    session file. Costs one whole-layout serialization. *)

exception Bad_file of string
(** Raised by {!load} on a missing/corrupt/foreign session file. *)

val save : session -> string -> unit
(** Atomic write (temp file + rename) with a whole-file checksum. The
    layout block is the layout's canonical [Layout_io] text, preceded
    by its {!hash_layout}; the format is [mpld-eco-session 1]. *)

val load : string -> session
(** Inverse of {!save}; validates the checksum, the layout hash and all
    array lengths, and parses the layout block.
    @raise Bad_file on any structural damage; a layout block that does
    not parse raises [Bad_file "session layout line N: msg"], [N] the
    1-based line within the block.
    @raise Sys_error if the file cannot be read. *)
