(** The decomposition graph (paper Definition 1), plus the color-friendly
    relation (paper Definition 2).

    Vertices are sub-features (features after stitch splitting). Conflict
    edges join distinct features within the minimum coloring distance
    [min_s]; stitch edges join touching segments of one split feature;
    color-friendly edges join features at distance in (min_s, min_s+hp],
    which the linear color assignment uses as a same-color hint.

    Each relation is a CSR adjacency: flat offset and neighbor arrays
    with sorted, deduplicated per-vertex runs, built in two passes with
    no intermediate list adjacency. *)

type adj = { off : int array; nbr : int array }
(** The neighbors of [v] are [nbr.(off.(v)) .. nbr.(off.(v+1) - 1)],
    sorted ascending. Owned by the graph; callers must not mutate. *)

type t = private {
  n : int;
  conflict : adj;
  stitch : adj;
  friendly : adj;
  feature : int array;  (** vertex -> originating feature id *)
  varea : int array;
      (** vertex -> polygon area (nm²) of its segment; 1 per vertex for
          {!of_edges} graphs, which carry no geometry. Feeds the
          per-mask area tallies of [Decomposer]'s balance report. *)
  mutable union_memo : Mpl_graph.Ugraph.t option;
      (** lazily built {!union_graph}; internal *)
}

val deg : adj -> int -> int
(** Run length of a vertex. *)

val iter : adj -> int -> (int -> unit) -> unit
(** Apply to each neighbor in ascending order. Allocation-free. *)

val of_edges :
  ?stitch_edges:(int * int) list ->
  ?friendly_edges:(int * int) list ->
  ?feature:int array ->
  n:int ->
  (int * int) list ->
  t
(** Direct construction (tests, paper figures). The positional edge list
    is the conflict edges. Duplicate edges are collapsed; self-loops and
    edges that are both conflict and stitch are rejected. *)

val of_nodes :
  ?obs:Mpl_obs.Obs.t -> Mpl_layout.Stitch.t -> hp:int -> min_s:int -> t
(** Build from an already split node set: join segments of distinct
    features by conflict (distance <= [min_s]) and color-friendly
    (min_s < distance <= min_s + [hp]) edges; the split's own stitch
    edges are taken as-is. This is the construction path shared by
    {!of_layout} and the sharded decomposer's border-component rebuild —
    identical node shapes always produce identical CSR runs. *)

val of_layout :
  ?obs:Mpl_obs.Obs.t ->
  ?max_stitches_per_feature:int ->
  Mpl_layout.Layout.t ->
  min_s:int ->
  t
(** Build from a layout: stitch-split the features, then join sub-features
    of distinct features by conflict (distance <= min_s) and
    color-friendly (min_s < distance <= min_s + half_pitch) edges.

    With [obs], the construction runs under a [graph.build] span with
    [graph.stitch_split] and [graph.neighbor_search] children (each
    tagged with its grid index's {!Mpl_geometry.Grid_index.span_args}:
    [cells], [incidences] and the [dense] table choice), and the
    registry accumulates [graph.nodes] / [graph.conflict_edges] /
    [graph.stitch_edges] / [graph.friendly_edges] counters. *)

val conflict_edges : t -> (int * int) list
(** Each conflict edge once, [(u, v)] with [u < v]. *)

val stitch_edges : t -> (int * int) list
val friendly_edges : t -> (int * int) list

val conflict_degree : t -> int -> int
val stitch_degree : t -> int -> int

val has_conflict : t -> int -> int -> bool

val union_graph : t -> Mpl_graph.Ugraph.t
(** Conflict and stitch edges together — connectivity for division.
    Built by merging the two sorted CSR runs per vertex straight into a
    [Ugraph] without touching its edge buffer, then memoized on the
    graph (the division pipeline needs it at up to three stages). *)

val conflict_graph : t -> Mpl_graph.Ugraph.t

val subgraph : t -> int array -> t * int array
(** [subgraph g vs] is the induced graph on [vs], relabeled [0..] in
    [vs] order, and the map back to the original vertex ids (a copy of
    [vs]). The one-set case of {!subgraphs}.

    @raise Invalid_argument if [vs] repeats a vertex. *)

val subgraphs : t -> int array array -> (t * int array) array
(** [subgraphs g vss] is [Array.map (subgraph g) vss], computed through
    one shared forward map: O(n + Σ(|vs| + E(vs))) instead of
    O(n) per set. Sets may overlap each other (biconnected blocks share
    articulation vertices); a single set may not repeat a vertex.

    @raise Invalid_argument if some set repeats a vertex. *)

val extractor : t -> int array -> t * int array
(** [extractor g] allocates the shared forward map once and returns a
    function computing [subgraph g vs], one set per call, at
    O(|vs| + E(vs)) each — for loops that must drop each piece before
    extracting the next. The map is restored after every call, also
    when a duplicate vertex raises. Not safe to call from two domains
    at once. *)

val pp : Format.formatter -> t -> unit
