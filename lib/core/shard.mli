(** Geometric window sharding of a layout for bounded-memory
    decomposition.

    The whole-layout pipeline builds one decomposition graph over every
    feature, so peak resident memory is O(layout). Sharding instead cuts
    the layout into geometric windows (strips along the longer bounding
    box axis), builds each window's graph independently — bounding the
    graph-construction working set to O(window) — and reconciles the
    connected components that straddle window borders exactly.

    Soundness rests on three facts about the unsharded build:

    - Stitch splitting is per-feature and depends only on the feature's
      neighbors within [min_s] ({!Mpl_layout.Stitch.split} projects
      neighbor boxes and merges intervals, order-independently), so a
      window containing a feature's whole [min_s] neighborhood
      reproduces its canonical segmentation.
    - Every edge incident to a feature joins it to a feature within the
      color-friendly radius [min_s + hp], so a window containing a
      feature's whole [min_s + hp] neighborhood (the {e halo}) sees
      every edge of that feature.
    - Feature-level conflict connectivity is segmentation-independent:
      a feature's segments partition it exactly, so two features have
      some conflict edge iff their polygon distance is at most [min_s] —
      regardless of how either was split. Window-border classification
      therefore runs at feature granularity and is immune to the (one
      permissible) inaccuracy of a sharded build: halo features near the
      window edge may be split non-canonically, because {e their} halos
      are not fully present.

    Every feature is {e owned} by exactly one window (by bounding-box
    center); a window additionally carries every feature within the halo
    radius of its core extent. A connected component (conflict + stitch)
    of a window graph whose features are all core is globally closed and
    is emitted as-is — its CSR piece is bit-identical to the matching
    component of an unsharded build. Components touching halo features
    are deferred: their core features join a global border set, feature
    pairs observed in conflict are unioned in a DSU, and after all
    windows each border class is {e rebuilt} from the canonical segment
    shapes recorded in each feature's owner window — again bit-identical
    to the unsharded component. Border pieces then flow through the same
    division pipeline, whose GH-cut merge reconnects the window-spanning
    halves by Lemma 1 color rotation ({!Division.best_rotation}). *)

type window = {
  members : int array;
      (** global feature ids present in this window, ascending: the core
          (owned) features plus every feature within the halo radius of
          the core extent *)
  core : bool array;  (** parallel to [members]: owned by this window? *)
}

type plan = {
  n_features : int;
  halo : int;  (** halo radius in nm: [min_s + half_pitch] *)
  windows : window array;
      (** strip order along the cutting axis; strips that own no feature
          are dropped *)
}

val plan : ?windows:int -> halo:int -> Mpl_layout.Layout.t -> plan
(** Cut the layout into [windows] strips (default 1) along the longer
    bounding-box axis. Each feature is owned by the strip holding
    its bounding-box center; each window's member set is its core plus
    every feature within [halo] of the union bounding box of its core.
    Deterministic in the layout alone. *)

type piece = {
  graph : Decomp_graph.t;
  back_feature : int array;  (** vertex -> global feature id *)
  back_seg : int array;  (** vertex -> segment index within its feature *)
}
(** One globally closed connected component, ready for division. Vertex
    order is ascending [(feature, segment)] — the same order the
    component has in an unsharded build, so the piece (and its cache
    signature) is bit-identical to the unsharded
    {!Decomp_graph.subgraph} piece. *)

type acc
(** Cross-window accumulator: per-feature canonical segment counts, the
    feature-level DSU of observed conflict pairs, and the canonical
    segment shapes of border features. *)

val fresh_acc : plan -> acc

val scan_window :
  ?obs:Mpl_obs.Obs.t ->
  acc:acc ->
  min_s:int ->
  hp:int ->
  Mpl_layout.Layout.t ->
  window ->
  piece list
(** Build the window's graph, record every core feature's canonical
    segmentation, union observed conflict pairs into the DSU, and
    return the window's {e interior} components (all-core, globally
    closed) in deterministic component order. Core features of
    border-straddling components are marked in [acc] with their
    canonical segment shapes; components with no core feature belong to
    another window and are dropped. The interior components are cut out
    of the window graph in one {!Division.extract} batch (O(window)
    however many there are). Under its [shard.window] span, the stitch
    split and the neighbor search record [graph.stitch_split] and
    [graph.neighbor_search] spans, as in an unsharded build. *)

val border_pieces : ?obs:Mpl_obs.Obs.t -> acc -> min_s:int -> hp:int -> piece list
(** After every window has been scanned: the globally merged
    border-straddling components, each rebuilt from canonical segment
    shapes via {!Decomp_graph.of_nodes}, in ascending order of their
    smallest feature id. *)

val offsets : acc -> int array * int
(** [(off, n)]: [off.(f)] is the global vertex id of feature [f]'s first
    segment in the canonical (feature-major) vertex order, [n] the total
    vertex count. Only valid after every window has been scanned. *)
