(** Graph division for K-patterning (paper Section 4).

    The pipeline recursively shrinks the decomposition graph before any
    color assignment runs:

    + independent (connected) components;
    + iterative removal of vertices with conflict degree < K and no
      stitch edges (safe: such a vertex always has a conflict-free color
      and contributes no stitch cost, so the reduced optimum equals the
      full optimum);
    + biconnected-component splitting — blocks meet at one articulation
      vertex, and any color permutation aligns a block with its parent
      without changing the block's internal cost;
    + GH-tree based (K-1)-cut removal (paper Algorithm 3 / Theorem 2):
      if the Gomory-Hu tree of a piece has an edge of weight < K, one
      max-flow recovers an actual minimum cut; both sides are solved
      recursively and reconnected by *color rotation* — each crossing
      conflict edge forbids exactly one of the K rotations, so with at
      most K-1 crossing edges a conflict-free rotation always exists
      (Lemma 1); among those the rotation with the cheapest crossing
      stitch cost is chosen.

    Every leaf piece is handed to the provided color-assignment
    [solver].

    Trivial pieces skip the stages: their outcome is known. A lone
    vertex (with the peel on) has conflict degree 0 < K and no stitch
    edge, so the peel would pop it with color 0 — it returns [[|0|]]
    and counts one peeled vertex. A stitch pair — two vertices joined
    by one stitch edge and nothing else (with the peel and the GH stage
    on) — keeps both ends through the peel, forms one block, and has a
    GH-tree edge of weight 1 < K; the cut leaves two lone vertices, both
    colored 0, and the crossing stitch costs nothing at rotation 0 — it
    returns [[|0; 0|]] and counts one cut and two peeled vertices. The
    colors and {!stats} are exactly the general path's; a stage set
    without the peel (or, for the pair, the GH stage) takes the general
    path. *)

type stages = {
  use_components : bool;
  use_peel : bool;
  use_biconnected : bool;
  use_ghtree : bool;
}

val all_stages : stages
val no_stages : stages
(** For ablation: the solver sees whole components / the whole graph. *)

type stats = {
  mutable pieces : int;  (** leaf pieces handed to the solver *)
  mutable largest_piece : int;
  mutable peeled : int;  (** vertices removed by low-degree peeling *)
  mutable cuts : int;  (** GH-tree splits performed *)
}

val plan :
  ?obs:Mpl_obs.Obs.t ->
  ?stages:stages ->
  ?stats:stats ->
  ?bounded_cuts:bool ->
  ?connected:bool ->
  k:int ->
  alpha:float ->
  emit:(Decomp_graph.t -> unit -> int array) ->
  Decomp_graph.t ->
  unit ->
  int array
(** The division recursion. [plan ~emit g] runs the whole division
    analysis immediately — every stage is color-independent — and hands
    each leaf piece to [emit] the moment it is carved out. [emit sub]
    starts (or performs) the solve and returns a thunk for the piece's
    coloring; [plan] returns the merge thunk, which forces the leaf
    thunks in emit order and reassembles the full coloring (component
    scatter, peel replay, block rotation alignment, GH-cut
    best-rotation stitching). The merge result depends only on [g] and
    the leaf colorings, not on when or on which domain the emitted work
    actually runs — this is what lets the decomposer overlap division
    of later components with solving of earlier pieces, and what makes
    {!assign} (the inline emitter) output-identical to the
    decomposer.

    The merge thunk holds no leaf piece: once [emit]'s thunk drops its
    piece, the piece is garbage even while the join is pending. Piece
    graphs survive to the join only where the merge reads them — the
    parent of a peel that left a core (its pops are colored after the
    core). A peel that leaves no core colors its pops at plan time.

    [stats] fields [pieces], [largest_piece], [peeled] and [cuts] are
    all fully counted by the time [plan] returns.

    [connected] (default [false]) declares [g] connected, so the
    top-level component scan — which would find [g] itself — is
    skipped; the result is the same. The decomposer's stream driver
    plans components its source has already split. *)

val assign :
  ?obs:Mpl_obs.Obs.t ->
  ?stages:stages ->
  ?stats:stats ->
  ?bounded_cuts:bool ->
  k:int ->
  alpha:float ->
  solver:(Decomp_graph.t -> int array) ->
  Decomp_graph.t ->
  int array
(** Divide, color every piece with [solver], reassemble. The result
    assigns every vertex a color in [0..k-1]. This is {!plan} with an
    [emit] that solves inline at emission, followed by the join: the
    reference oracle that tests and the bench hold the decomposer's
    stream driver to. No library path calls it.

    [bounded_cuts] (default [true]) caps every Gusfield max-flow of the
    GH-tree stage at [k]: only cuts strictly below [k] are actionable
    (Theorem 2), so Dinic may stop as soon as the flow reaches [k] —
    O(k*E) per flow instead of O(V^2*E). Flows that hit the cap are
    counted in the [division.bounded_exits] metric. [false] rebuilds the
    exact (unbounded) tree; both settings select identical cuts, which
    the test suite checks end-to-end.

    With [obs], each stage's own analysis work (component scan, peel
    fixpoint, block decomposition, GH tree and cut recovery — never the
    recursive solves underneath) runs under [division.components] /
    [division.peel] / [division.biconnected] / [division.ghtree] spans,
    and the registry accumulates [division.pieces], [division.peeled],
    [division.bicon_splits], [division.gh_cuts],
    [division.maxflow_calls] (the max-flows that ran),
    [division.bounded_exits] and [division.trivial] (pieces resolved
    without running a stage; their pops and cut also count in
    [division.peeled] and [division.gh_cuts]) counters plus a
    [division.piece_size] histogram of leaf sizes.

    Every piece is cut out of its parent with {!Decomp_graph.subgraphs}
    under a [division.extract] span with [pieces] and [n] (parent size)
    args, so a stage pays O(n + E) for extraction however many pieces
    it sheds. A stage's batch lives only while the stage plans it; with
    the inline emitter every solved leaf dies at once. With a null
    sink, extraction reads no clock. *)

val extract :
  ?obs:Mpl_obs.Obs.t ->
  Decomp_graph.t ->
  int array array ->
  (Decomp_graph.t * int array) array
(** [extract g vss] is {!Decomp_graph.subgraphs}[ g vss] under one
    [division.extract] span — the form every batched extraction in the
    decomposer goes through. *)

val fresh_stats : unit -> stats

val best_rotation :
  k:int ->
  alpha:float ->
  int array ->
  int array ->
  (int * int) list ->
  (int * int) list ->
  int
(** [best_rotation ~k ~alpha colors_a colors_b crossing_conflict
    crossing_stitch] is the rotation [r] minimizing the crossing cost of
    recombining two independently colored sides: each crossing conflict
    edge [(a, b)] (an index into [colors_a] paired with an index into
    [colors_b]) costs {!Coloring.weight_conflict} when
    [colors_a.(a) = (colors_b.(b) + r) mod k], each crossing stitch edge
    costs {!Coloring.stitch_weight} when the rotated colors differ. Each
    crossing conflict edge forbids exactly one rotation, so with fewer
    than [k] of them a conflict-free rotation exists (paper Lemma 1).
    This is the recombination rule of the GH-cut stage, exposed for the
    sharded decomposer's window-border reconciliation. *)
