(** End-to-end layout decomposition (paper Fig. 2): decomposition-graph
    construction, graph division, per-piece color assignment, and cost
    reporting.

    Division produces small *independent* pieces (paper Section 4), so
    per-piece color assignment parallelizes: with [jobs > 1] the
    independent components are solved concurrently on a
    {!Mpl_engine.Pool} of domains, and with [cache = true] repeated
    components — standard-cell layouts repeat the same conflict cliques
    thousands of times — are solved once and reused through the piece
    {!Mpl_engine.Cache}. Both knobs are pure performance controls: the
    cache only serves byte-identical pieces and the engine schedules
    deterministically, so costs and colorings are identical at every
    [jobs]/[cache] setting. Every entry point runs the one stream
    driver: a component source (the whole graph, geometric windows, or
    an ECO dirty region) is pushed component by component through
    {!Mpl_engine.Engine.stream}, each fresh component runs the one
    division recursion ({!Division.plan}), and each of its leaves goes
    to the pool as one task — at [jobs = 1] a pool without worker
    domains, whose leaves the calling thread solves as it forces them.

    Solving is fault-tolerant per piece: a leaf solver that raises, or
    that is cut short by the shared budget or the node cap, degrades
    through a fallback ladder (exact → SDP backtracking → linear →
    greedy, run budget-free) instead of failing the run, and the report
    records which pieces degraded and what finally colored them
    ({!resilience}). Deterministic fault injection ({!Mpl_engine.Fault},
    [params.fault]) exercises these paths on demand. *)

type algorithm =
  | Ilp  (** exact baseline via the MILP encoding (budgeted) *)
  | Exact  (** exact baseline via specialized branch-and-bound (budgeted) *)
  | Sdp_backtrack  (** paper Algorithm 1 *)
  | Sdp_greedy
  | Linear  (** paper Algorithm 2 *)

val algorithm_name : algorithm -> string

type params = {
  k : int;  (** number of masks; 4 = QPLD *)
  solver_budget_s : float;
      (** total wall-clock budget for exact solvers (Ilp / Exact) across
          all components — shared by all pool workers through an
          atomic-latched deadline; <= 0 means unlimited *)
  jobs : int;
      (** concurrent piece solvers: the pool runs [jobs - 1] worker
          domains plus the calling thread *)
  cache : bool;
      (** memoize solved components by their salted serialization; a
          component is reused only when it is byte-identical to a
          solved one, so the cache never changes a result *)
  trace : Mpl_obs.Sink.t option;
      (** span sink for structured tracing; [None] (the default)
          disables tracing entirely — the traced and untraced runs
          produce bit-identical colorings and costs either way *)
  metrics : bool;
      (** accumulate a metrics registry during the run and attach its
          snapshot to the report *)
  fault : Mpl_engine.Fault.spec option;
      (** deterministic fault injection ([None], the default, injects
          nothing — the unarmed probes cost one branch each and the run
          is bit-identical to a build without them) *)
  cancel : Mpl_engine.Pool.token option;
      (** cancellation token for mid-run teardown. The coordinator
          checks it at every leaf emission, component push, and
          component force, and attaches it to every pool submission:
          once {!Mpl_engine.Pool.cancel} is called (or the token's
          deadline passes), queued pieces are dropped at dequeue
          without running, the running ones finish but their results
          are discarded, and {!assign} raises
          {!Mpl_engine.Pool.Cancelled}. [None] (the default) gives the
          run a private token that only [deadline_s] can trip *)
  deadline_s : float option;
      (** per-request deadline in seconds. At the start of the
          assignment it arms the run's cancel token
          ({!Mpl_engine.Pool.arm_deadline}), so past it the run is torn
          down exactly like a cancelled one: {!assign} raises
          {!Mpl_engine.Pool.Cancelled} and {!Mpl_engine.Pool.expired}
          holds on the token. For the budgeted exact algorithms the
          shared solver budget is also clamped to the deadline, so an
          in-flight ILP/BnB returns its incumbent at the deadline.
          [None] (the default, also <= 0) arms nothing and no deadline
          clock is read *)
}

val default_params : params
(** QPLD defaults: k = 4, 60 s exact budget, jobs = 1, cache off. The
    paper's flow is fixed, not parameters: every run divides with
    {!Division.all_stages}, solves under the {!Mpl_numeric.Sdp}
    constants, and uses {!Coloring.alpha} (0.1), {!Sdp_color.tth} (0.9)
    and {!Bnb.node_cap}. *)

type piece_failure = {
  piece_n : int;  (** vertex count of the affected piece *)
  failed_step : string;
      (** what failed: an algorithm name, or ["component"] for a failure
          caught at the engine's component level *)
  error : string;  (** exception text, or ["budget/node-cap trip"] *)
  solved_by : string;
      (** the step whose coloring was kept: an algorithm name, the
          primary's name when its partial result won, or ["greedy"] *)
  attempts : int;  (** solve attempts on this piece, primary included *)
}

type resilience = {
  degraded : int;  (** pieces not solved cleanly by the primary solver *)
  piece_failures : int;  (** degraded pieces whose solver raised *)
  fallback_attempts : int;  (** total fallback-ladder rungs executed *)
  failures : piece_failure list;
      (** per-piece records, chronological, capped at 32 (the counters
          above are exact regardless) *)
  fault_fired : bool;  (** did an armed injection actually trigger? *)
}

val no_resilience : resilience

type eco_stats = {
  dirty_components : int;  (** components re-solved by {!redecompose} *)
  reused_components : int;  (** components kept byte-for-byte *)
  dirty_features : int;  (** features inside the dirty window *)
}

type report = {
  algorithm : algorithm;
  params : params;
  cost : Coloring.cost;
  colors : Coloring.t;
  elapsed_s : float;  (** color-assignment time (graph already built) *)
  timed_out : bool;
      (** an exact solver hit its budget or the node cap: treat as N/A *)
  division : Division.stats;
  engine : Mpl_engine.Engine.stats;
      (** component routing statistics of the stream: components
          pushed, solved fresh, served from the cache, deduplicated *)
  cache : Mpl_engine.Cache.stats option;
      (** size + traffic snapshot of the component cache taken as this
          run finished — the *shared* table's totals when one was
          supplied; [None] when the run used no component cache *)
  resilience : resilience;
      (** degradation provenance: which pieces fell down the fallback
          ladder, and what finally colored them. Equal to
          {!no_resilience} (modulo [fault_fired]) on a clean run. *)
  metrics : Mpl_obs.Metrics.snapshot option;
      (** snapshot of the run's metrics registry when
          [params.metrics]; [None] otherwise *)
  eco : eco_stats option;  (** set only by {!redecompose} *)
}

val assign :
  ?params:params ->
  ?obs:Mpl_obs.Obs.t ->
  ?pool:Mpl_engine.Pool.t ->
  ?shared_cache:Division.stats Mpl_engine.Cache.t ->
  ?on_component:(int -> int array -> int array -> unit) ->
  algorithm ->
  Decomp_graph.t ->
  report
(** Run division + color assignment on a prebuilt decomposition graph.
    An observability context is built from [params.trace] /
    [params.metrics] unless one is passed explicitly ([obs] then takes
    precedence; {!decompose} uses this to share one context between
    graph construction and assignment). The whole assignment runs under
    an [assign] span; each leaf solve under a [solve.<algorithm>] span.

    The three server hooks:

    - [pool]: solve on this caller-owned {!Mpl_engine.Pool} instead of
      spinning up a private one — the serving daemon shares one pool
      across every in-flight request. [params.jobs] is ignored then
      (the pool's own worker count applies).
    - [shared_cache]: use this component cache instead of a private
      per-run table (only consulted when [params.cache]). Piece
      signatures are salted with a fingerprint of every
      result-affecting setting (algorithm, k, and the fixed alpha, tth
      and node cap, so a table persisted under other constants misses),
      so one table safely serves requests with different parameters:
      entries from one setting can never hit probes from another.
    - [on_component]: called as [f idx back colors] for each
      independent component, in deterministic component-index order, as
      soon as its coloring is forced — [back.(j)] is the original
      vertex of the component's vertex [j]. Streaming replies hang off
      this. Called on the coordinating thread.

    Components are forced at most 64 pushes behind the last push, so a
    forced component's piece graph is dropped while later components
    are still being divided; on a pool of width 1 (private or
    caller-owned), which has no worker to overlap with, each is forced
    right after its push. *)

val decompose :
  ?params:params ->
  ?pool:Mpl_engine.Pool.t ->
  ?shared_cache:Division.stats Mpl_engine.Cache.t ->
  ?on_component:(int -> int array -> int array -> unit) ->
  min_s:int ->
  algorithm ->
  Mpl_layout.Layout.t ->
  Decomp_graph.t * report
(** Build the decomposition graph from the layout, then [assign] — both
    under one observability context, so a trace covers graph
    construction and assignment. The optional server hooks are passed
    through to {!assign}. *)

val decompose_sharded :
  ?params:params ->
  ?obs:Mpl_obs.Obs.t ->
  ?pool:Mpl_engine.Pool.t ->
  ?shared_cache:Division.stats Mpl_engine.Cache.t ->
  ?on_component:(int -> int array -> int array -> unit) ->
  windows:int ->
  min_s:int ->
  algorithm ->
  Mpl_layout.Layout.t ->
  report
(** Memory-bounded decomposition for very large layouts: cut the layout
    into [windows] geometric window strips with
    [min_s + half_pitch]-wide halo overlaps
    ({!Shard}), build each window's decomposition graph independently,
    and stream every connected component through the same
    division/solve/cache machinery as {!decompose} — components
    straddling window borders are reconciled exactly, at feature
    granularity, and rebuilt bit-identically from their owner windows'
    canonical segment shapes before flowing through the normal division
    pipeline (whose GH-cut merge applies the Lemma 1 color rotation
    across the former border). Peak residency is O(largest window) +
    O(coloring), never O(whole-layout graph); no global graph is built
    or returned.

    For the self-contained algorithms (Linear, SDP, and unbudgeted
    runs) the resulting coloring is bit-identical to
    [snd (decompose ...)] at every [windows]/[jobs]/[cache] setting.
    The cost is the sum of per-component costs, which equals the global
    {!Coloring.evaluate} because every conflict/stitch edge is
    intra-component. [on_component] streams components in
    deterministic emission order: window strips in geometric order,
    then border-straddling components by smallest feature id. *)

val piece_signature :
  salt:string -> Decomp_graph.t -> Mpl_engine.Cache.signature option
(** The piece cache's key for a piece: its conflict, stitch and
    friendly relations serialized in its own vertex order, prefixed
    with [salt] (the decomposer salts with a fingerprint of every
    result-affecting parameter). [None] for a piece of more than 4096
    vertices, which is never cached. *)

val snapshot :
  ?params:params ->
  ?obs:Mpl_obs.Obs.t ->
  min_s:int ->
  algorithm ->
  Decomp_graph.t ->
  Mpl_layout.Layout.t ->
  report ->
  Eco.session
(** Capture a finished {!decompose} run as a persistable {!Eco.session}
    for later {!redecompose}: [layout] itself (held, not copied or
    serialized — see {!Eco.session} on sharing), the per-feature
    stitch-segment counts, and each connected component's feature set,
    coloring (in the component's ascending vertex order — exactly what
    {!Decomp_graph.subgraph} extracts) and cost. [params], [min_s],
    [algorithm], [g] and [layout] must be the ones the report came
    from. The components are split as the stream driver splits them
    and extracted in one {!Division.extract} batch, under a
    [division.extract] span when [obs] traces. *)

val redecompose :
  ?params:params ->
  ?obs:Mpl_obs.Obs.t ->
  ?pool:Mpl_engine.Pool.t ->
  ?shared_cache:Division.stats Mpl_engine.Cache.t ->
  ?on_component:(int -> int array -> int array -> unit) ->
  prev:Eco.session ->
  edits:Eco.edit list ->
  algorithm ->
  (Mpl_layout.Layout.t * report * Eco.session, string) result
(** Incremental (ECO) re-decomposition: apply [edits] to the session's
    base layout and re-solve {e only} the components the edit can have
    touched, reusing every other component's coloring byte-for-byte.

    The dirty window is the edited rectangles dilated by
    [min_s + half_pitch] — exactly the radius within which the
    decomposition graph can change (every edge joins features within
    that distance, and a feature's stitch split depends only on its
    neighbors within [min_s]; DESIGN.md §15 gives the full argument).
    Dirty components are rebuilt as a sub-layout — bit-identical to the
    pieces a cold run on the whole edited layout would solve — and
    are the component source of the same stream driver as {!assign}
    (with [cache] on, a dirty component byte-identical to one already
    in the cache is served from it, as in any run). The next
    session's dirty components, and their costs, are the ones the
    driver hands back — nothing is extracted or evaluated twice.
    Under the caller's [redecompose] span, [eco.dirty] covers the dirty
    marking. The base layout is read
    from [prev.layout] and the edited one becomes the next session's
    layout as is: no whole-layout parse, serialization or digest runs
    here (those happen only in {!Eco.save}/{!Eco.load} and a server's
    session key), and clean features keep their polygons shared with
    the base.

    At the deterministic settings (no fault injection) the full
    coloring is bit-identical to a cold {!decompose} of the
    edited layout; untouched components are reused verbatim under every
    setting. [on_component] fires only for dirty components, with
    [back] remapped to edited-layout vertex ids. Returns the edited
    layout, the report ([report.eco] set), and the next session, so edits
    chain. Returns [Error msg] (rather than raising) on:
    - a parameter fingerprint mismatch with the session
      (["redecompose: session solved under different parameters ..."]);
    - a corrupt session: [seg_counts] not one entry per base feature,
      or components that do not cover every base feature exactly once
      (["redecompose: session corrupt (...)"]) — checks that guard
      sessions built by hand; a session file whose layout does not
      parse is refused earlier, by {!Eco.load};
    - an edit script {!Eco.apply} rejects (its message as is). *)

val pp_report : Format.formatter -> report -> unit
