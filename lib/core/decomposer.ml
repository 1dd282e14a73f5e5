type algorithm = Ilp | Exact | Sdp_backtrack | Sdp_greedy | Linear

let algorithm_name = function
  | Ilp -> "ILP"
  | Exact -> "Exact-BnB"
  | Sdp_backtrack -> "SDP+Backtrack"
  | Sdp_greedy -> "SDP+Greedy"
  | Linear -> "Linear"

type params = {
  k : int;
  solver_budget_s : float;
  jobs : int;
  cache : bool;
  trace : Mpl_obs.Sink.t option;
  metrics : bool;
  fault : Mpl_engine.Fault.spec option;
  cancel : Mpl_engine.Pool.token option;
  deadline_s : float option;
}

let default_params =
  {
    k = 4;
    solver_budget_s = 60.;
    jobs = 1;
    cache = false;
    trace = None;
    metrics = false;
    fault = None;
    cancel = None;
    deadline_s = None;
  }

(* One observability context per run: the caller-supplied span sink (if
   any) plus a private metrics registry whose snapshot lands in the
   report. Both default to the null implementations, in which case
   every probe in the pipeline is a no-op branch. *)
let make_obs params =
  let sink =
    match params.trace with Some s -> s | None -> Mpl_obs.Sink.null
  in
  let metrics =
    if params.metrics then Mpl_obs.Metrics.create () else Mpl_obs.Metrics.null
  in
  Mpl_obs.Obs.make ~sink ~metrics ()

type piece_failure = {
  piece_n : int;
  failed_step : string;
  error : string;
  solved_by : string;
  attempts : int;
}

type resilience = {
  degraded : int;
  piece_failures : int;
  fallback_attempts : int;
  failures : piece_failure list;
  fault_fired : bool;
}

let no_resilience =
  {
    degraded = 0;
    piece_failures = 0;
    fallback_attempts = 0;
    failures = [];
    fault_fired = false;
  }

(* Mutable provenance accumulator shared by the leaf-solver wrapper and
   the engine-level recovery hook; both run on pool workers, hence the
   mutex. Individual failure records are capped — the counters stay
   exact either way. *)
let max_failure_records = 32

type prov = {
  mutable p_degraded : int;
  mutable p_failures : int;
  mutable p_fallbacks : int;
  mutable p_records : piece_failure list;  (* newest first *)
  p_lock : Mutex.t;
}

let fresh_prov () =
  {
    p_degraded = 0;
    p_failures = 0;
    p_fallbacks = 0;
    p_records = [];
    p_lock = Mutex.create ();
  }

let prov_record prov ~raised ~fallbacks (pf : piece_failure) =
  Mutex.lock prov.p_lock;
  prov.p_degraded <- prov.p_degraded + 1;
  if raised then prov.p_failures <- prov.p_failures + 1;
  prov.p_fallbacks <- prov.p_fallbacks + fallbacks;
  if List.length prov.p_records < max_failure_records then
    prov.p_records <- pf :: prov.p_records;
  Mutex.unlock prov.p_lock

let prov_snapshot prov ~fault =
  Mutex.lock prov.p_lock;
  let r =
    {
      degraded = prov.p_degraded;
      piece_failures = prov.p_failures;
      fallback_attempts = prov.p_fallbacks;
      failures = List.rev prov.p_records;
      fault_fired = Mpl_engine.Fault.fired fault;
    }
  in
  Mutex.unlock prov.p_lock;
  r

(* What an incremental re-decomposition actually recomputed. *)
type eco_stats = {
  dirty_components : int;
  reused_components : int;
  dirty_features : int;
}

type report = {
  algorithm : algorithm;
  params : params;
  cost : Coloring.cost;
  colors : Coloring.t;
  elapsed_s : float;
  timed_out : bool;
  division : Division.stats;
  engine : Mpl_engine.Engine.stats;
  cache : Mpl_engine.Cache.stats option;
  resilience : resilience;
  metrics : Mpl_obs.Metrics.snapshot option;
  eco : eco_stats option;
}

(* An SDP attempt on a piece of at least two vertices: the relaxation
   and its mapping to colors, each a child span of the solve. *)
let solve_sdp ~obs ~args ~k ~alpha algorithm piece =
  let span name f = Mpl_obs.Obs.span obs name ~cat:"solve" ~args f in
  let sol = span "sdp.relax" (fun () -> Sdp_color.relax ~k ~alpha piece) in
  Mpl_obs.Metrics.observe
    (Mpl_obs.Metrics.histogram obs.Mpl_obs.Obs.metrics "solver.sdp_iterations")
    (float_of_int sol.Mpl_numeric.Sdp.iterations);
  if algorithm = Sdp_greedy then
    span "sdp.greedy_map" (fun () -> Sdp_color.greedy_map ~k sol piece)
  else
    span "sdp.backtrack" (fun () ->
        Sdp_color.backtrack ~obs ~k ~alpha sol piece)

(* One attempt of one algorithm on one divided piece. Returns the
   coloring plus whether the attempt completed cleanly — [false] means
   the shared budget or the node cap cut the search short and the
   coloring is only the best incumbent. *)
let solve_once ~obs ~params ~budget algorithm (piece : Decomp_graph.t) =
  let k = params.k and alpha = Coloring.alpha in
  let m = obs.Mpl_obs.Obs.metrics in
  let args = [ ("n", Mpl_obs.Sink.Int piece.Decomp_graph.n) ] in
  Mpl_obs.Obs.span obs ("solve." ^ algorithm_name algorithm) ~cat:"solve" ~args
  @@ fun () ->
  match algorithm with
  | Linear -> (Linear_color.solve ~k ~alpha piece, true)
  | Exact ->
    let r = Exact_color.solve ~budget ~k ~alpha piece in
    Mpl_obs.Metrics.observe
      (Mpl_obs.Metrics.histogram m "solver.bnb_nodes")
      (float_of_int r.Bnb.nodes);
    (r.Bnb.colors, r.Bnb.optimal)
  | Ilp ->
    if Mpl_util.Timer.expired budget then
      (Bnb.greedy ~k (Bnb.instance_of_graph ~alpha piece), false)
    else begin
      let r = Ilp_color.solve ~budget ~k ~alpha piece in
      (r.Ilp_color.colors, r.Ilp_color.optimal)
    end
  | Sdp_greedy | Sdp_backtrack ->
    if piece.Decomp_graph.n <= 1 then (Array.make piece.Decomp_graph.n 0, true)
    else (solve_sdp ~obs ~args ~k ~alpha algorithm piece, true)

(* Escalation order when an attempt fails: strictly cheaper, more
   robust algorithms. The terminal greedy rung is handled separately in
   [recover_piece] — it cannot fail. *)
let fallback_chain = function
  | Ilp | Exact -> [ Sdp_backtrack; Linear ]
  | Sdp_backtrack | Sdp_greedy -> [ Linear ]
  | Linear -> []

(* Fallback ladder for one piece whose primary attempt raised or was
   cut short. Every remaining rung runs budget-free (a tripped shared
   budget must not starve the heuristics — they are the recovery path),
   and all rungs are tried so the cheapest resulting coloring wins;
   ties keep the earliest candidate (the primary's partial result
   first, then chain order). Rungs are themselves fault-eligible, so a
   multi-shot injection can cascade all the way down to greedy. *)
let recover_piece ~obs ~params ~fault ~prov ~primary ~partial ~error piece =
  let k = params.k and alpha = Coloring.alpha in
  let m = obs.Mpl_obs.Obs.metrics in
  let free_budget = Mpl_util.Timer.budget 0. in
  let attempts = ref 1 in
  let candidates = ref [] in
  let add name colors = candidates := !candidates @ [ (name, colors) ] in
  (match partial with
  | Some colors -> add (algorithm_name primary) colors
  | None -> ());
  List.iter
    (fun step ->
      incr attempts;
      Mpl_obs.Metrics.incr (Mpl_obs.Metrics.counter m "solver.fallbacks");
      match
        if Mpl_engine.Fault.fires fault Mpl_engine.Fault.Solver_raise then
          raise (Mpl_engine.Fault.Injected Mpl_engine.Fault.Solver_raise)
        else
          fst (solve_once ~obs ~params ~budget:free_budget step piece)
      with
      | colors -> add (algorithm_name step) colors
      | exception _ -> ())
    (fallback_chain primary);
  if !candidates = [] then begin
    (* Everything raised: the greedy terminal rung always succeeds. *)
    incr attempts;
    Mpl_obs.Metrics.incr (Mpl_obs.Metrics.counter m "solver.fallbacks");
    add "greedy" (Bnb.greedy ~k (Bnb.instance_of_graph ~alpha piece))
  end;
  let best =
    List.fold_left
      (fun acc (name, colors) ->
        let cost = (Coloring.evaluate ~alpha piece colors).Coloring.scaled in
        match acc with
        | Some (_, _, best_cost) when best_cost <= cost -> acc
        | _ -> Some (name, colors, cost))
      None !candidates
  in
  let solved_by, colors, _ = Option.get best in
  Mpl_obs.Metrics.incr (Mpl_obs.Metrics.counter m "solver.degraded");
  prov_record prov ~raised:(partial = None)
    ~fallbacks:(!attempts - 1)
    {
      piece_n = piece.Decomp_graph.n;
      failed_step = algorithm_name primary;
      error;
      solved_by;
      attempts = !attempts;
    };
  colors

(* Cache signature of a piece: the serialization of its three edge
   relations in its own vertex order. Those relations are all a solver
   ever reads (feature ids only matter for rendering), so two pieces
   with the same serialization get the same coloring from the
   deterministic solvers. Oversized pieces are not worth serializing.

   The signature is salted with a fingerprint of every parameter that
   can change what the solver returns for a given graph. Within one run
   the salt is constant — hit patterns are unchanged — but it makes the
   cache safe to *share across runs with different parameters* (the
   serving daemon keeps one table for all clients): a piece solved at
   k=4 under Linear can never be served to a k=5 SDP request. *)
let signature_size_cap = 4096

let params_salt ~params algorithm =
  Printf.sprintf "%s;k=%d;a=%h;t=%h;nc=%d" (algorithm_name algorithm)
    params.k Coloring.alpha Sdp_color.tth Bnb.node_cap

let piece_signature ~salt (piece : Decomp_graph.t) =
  if piece.Decomp_graph.n > signature_size_cap then None
  else
    Some
      (Mpl_engine.Cache.signature_salted ~salt ~n:piece.Decomp_graph.n
         ~relations:
           (Array.map
              (fun (a : Decomp_graph.adj) -> (a.Decomp_graph.off, a.nbr))
              [| piece.conflict; piece.stitch; piece.friendly |]))

(* Leaf solver for one divided piece. The exact algorithms share one
   wall-clock budget across all pieces (the paper reports a single CPU
   number per circuit). A clean attempt returns its coloring untouched —
   the no-fault, no-trip path is bit-identical to a build without this
   wrapper. An attempt that raises or is cut short (budget, node cap)
   degrades through [recover_piece] instead of failing the run. The
   budget deadline and the timeout flag are both safe to touch from
   pool workers. *)
let make_solver ~obs ~params ~budget ~timed_out ~fault ~prov algorithm
    (piece : Decomp_graph.t) =
  let m = obs.Mpl_obs.Obs.metrics in
  Mpl_obs.Metrics.incr (Mpl_obs.Metrics.counter m "solver.solves");
  let uses_budget = match algorithm with Ilp | Exact -> true | _ -> false in
  let forced_trip =
    uses_budget
    && Mpl_engine.Fault.fires fault Mpl_engine.Fault.Budget_trip
  in
  if forced_trip then Mpl_util.Timer.force_expire budget;
  let primary =
    match
      if Mpl_engine.Fault.fires fault Mpl_engine.Fault.Solver_raise then
        raise (Mpl_engine.Fault.Injected Mpl_engine.Fault.Solver_raise)
      else solve_once ~obs ~params ~budget algorithm piece
    with
    | r -> Ok r
    | exception e -> Error e
  in
  match primary with
  (* A forced trip must take the degradation path even when the solver
     happened to finish before noticing the expired budget (e.g. its
     seed already pruned the whole search): the fault's contract is
     that this piece trips. *)
  | Ok (colors, true) when not forced_trip -> colors
  | Ok (colors, _) ->
    Atomic.set timed_out true;
    Mpl_obs.Metrics.incr (Mpl_obs.Metrics.counter m "solver.budget_trips");
    recover_piece ~obs ~params ~fault ~prov ~primary:algorithm
      ~partial:(Some colors) ~error:"budget/node-cap trip" piece
  | Error e ->
    Mpl_obs.Metrics.incr (Mpl_obs.Metrics.counter m "solver.piece_failures");
    recover_piece ~obs ~params ~fault ~prov ~primary:algorithm ~partial:None
      ~error:(Printexc.to_string e) piece

(* Per-run solving context of every entry point: armed fault injector,
   provenance, cancel token, shared solver budget, and the leaf solver.
   Phase time is the span tree's ({!Mpl_obs.Obs.span}); the context
   keeps no timers. *)
type run_ctx = {
  rc_salt : string;
  rc_stats : Division.stats;
  rc_timed_out : bool Atomic.t;
  rc_fault : Mpl_engine.Fault.t;
  rc_prov : prov;
  rc_cancel : Mpl_engine.Pool.token;
  rc_solver : Decomp_graph.t -> int array;
}

let make_run_ctx ~obs ~params algorithm =
  let salt = params_salt ~params algorithm in
  let stats = Division.fresh_stats () in
  let timed_out = Atomic.make false in
  let fault =
    match params.fault with
    | Some spec -> Mpl_engine.Fault.arm spec
    | None -> Mpl_engine.Fault.none
  in
  let prov = fresh_prov () in
  (* The run's cancel token: the caller's, or a private one. A deadline
     arms it here, at the start of the run, so it is one instant for
     the coordinator's checkpoints and the pool's dequeue alike. The
     budgeted exact algorithms also clamp their shared solver budget to
     it, so an in-flight ILP/BnB returns its incumbent at the deadline
     instead of running on. Without a deadline no clock is read. *)
  let cancel =
    match params.cancel with
    | Some tok -> tok
    | None -> Mpl_engine.Pool.token ()
  in
  let deadline_s =
    match params.deadline_s with Some d when d > 0. -> Some d | _ -> None
  in
  Option.iter (Mpl_engine.Pool.arm_deadline cancel) deadline_s;
  let budget =
    match algorithm with
    | Ilp | Exact ->
      let b = params.solver_budget_s in
      let b =
        match deadline_s with
        | Some d -> if b <= 0. then d else Float.min b d
        | None -> b
      in
      Mpl_util.Timer.budget b
    | Sdp_backtrack | Sdp_greedy | Linear -> Mpl_util.Timer.budget 0.
  in
  {
    rc_salt = salt;
    rc_stats = stats;
    rc_timed_out = timed_out;
    rc_fault = fault;
    rc_prov = prov;
    rc_cancel = cancel;
    rc_solver =
      make_solver ~obs ~params ~budget ~timed_out ~fault ~prov algorithm;
  }

(* Coordinator-side cancellation checkpoint: one token check per leaf
   emission / component push / component force. When the token trips
   (cancelled, or past its deadline), the assignment unwinds with
   [Pool.Cancelled] — queued pieces are dropped at dequeue, running
   ones finish but their results are never looked at. *)
let check_cancel (rc : run_ctx) () =
  if Mpl_engine.Pool.cancelled rc.rc_cancel then
    raise Mpl_engine.Pool.Cancelled

(* Component cache of one run: the caller's shared cross-request table
   when one was provided (the serving daemon passes its own), a private
   per-run table otherwise, none with the cache off. Reuse from either
   is cost-exact: the salt partitions entries by solver parameters, and
   a hit requires a byte-identical piece. *)
let component_cache ~obs ~(params : params) ~fault shared_cache =
  if not params.cache then None
  else
    match shared_cache with
    | Some _ -> shared_cache
    | None -> Some (Mpl_engine.Cache.create ~obs ~fault ())

(* Division stats of a component colored whole, as one piece. *)
let whole_piece_stats (piece : Decomp_graph.t) =
  { (Division.fresh_stats ()) with pieces = 1; largest_piece = piece.n }

(* Fold one component's division stats into the run's. *)
let add_division_stats (into : Division.stats) (s : Division.stats) =
  into.Division.pieces <- into.Division.pieces + s.Division.pieces;
  if s.Division.largest_piece > into.Division.largest_piece then
    into.Division.largest_piece <- s.Division.largest_piece;
  into.Division.peeled <- into.Division.peeled + s.Division.peeled;
  into.Division.cuts <- into.Division.cuts + s.Division.cuts

(* A component source: [produce push] hands every independent component
   of a run to [push piece key] in a deterministic emission order.
   [resolve ()] is [Some (n, back)] once every key's back map can be
   resolved — [(back key).(j)] is the output vertex, in an [n]-vertex
   coloring, of the piece's vertex [j] — and [None] before.

   Components are the unit of streaming and of cache reuse because
   they share no edge with the rest of the graph: substituting any
   valid coloring of a component can never change a crossing cost, so
   reuse is cost-exact and the run's cost is the sum of per-component
   costs. *)
type 'k source = {
  produce : (Decomp_graph.t -> 'k -> unit) -> unit;
  resolve : unit -> (int * ('k -> int array)) option;
}

(* [f piece back] for every connected component of [g], in index order
   (the same split the division pipeline performs first), extracted in
   one {!Division.extract} batch. The batch is walked as a list in tail
   position, so each piece is garbage once [f] is done with it, not
   held until the batch is. *)
let iter_components ~obs (g : Decomp_graph.t) f =
  let comps =
    Mpl_obs.Obs.span obs "division.components" (fun () ->
        Mpl_graph.Connectivity.components (Decomp_graph.union_graph g))
  in
  List.iter
    (fun (piece, back) -> f piece back)
    (Array.to_list (Division.extract ~obs g comps))

(* The components of [g], back maps composed with [remap] into an
   [n]-vertex output. A whole-graph run remaps by the identity; an ECO
   run maps its dirty-region graph into the edited layout. *)
let graph_source ~obs ~n ~remap g =
  {
    produce = iter_components ~obs g;
    resolve = (fun () -> Some (n, remap));
  }

(* Geometric windows (the million-feature path): cut the layout into
   windows with [min_s + hp]-wide halos ({!Shard.plan}) and build each
   window's graph independently — bounding the resident
   graph-construction working set to O(window). Interior components are
   emitted window by window; border-straddling components are
   reconciled at feature granularity and rebuilt bit-identically from
   canonical owner-window shapes, then emitted last. Each border piece
   flows through the normal division pipeline, whose GH-cut merge
   reconnects the window-spanning halves by Lemma 1 color rotation
   ({!Division.best_rotation}). Back maps are (feature, segment) pairs,
   resolved through the canonical feature-major offsets once every
   window has been scanned.

   Output bit-identity with the whole-graph source: pieces are
   bit-identical to the unsharded components (see {!Shard}), each
   piece's division and solve are deterministic in the piece alone,
   and the final coloring is a scatter through the canonical vertex
   order. Only the *emission order* differs (windows first, border
   classes last), which the cost cannot observe. (Caveat: the
   shared-budget algorithms, Ilp/Exact, may trip their budget at a
   different piece than an unsharded run under time pressure — the
   bit-identity contract is for the self-contained solvers.) *)
let window_source ~obs ~windows ~min_s (layout : Mpl_layout.Layout.t) =
  let hp = layout.Mpl_layout.Layout.tech.Mpl_layout.Layout.half_pitch in
  let sh =
    Mpl_obs.Obs.span obs "shard.plan"
      ~args:
        [
          ( "features",
            Mpl_obs.Sink.Int (Array.length layout.Mpl_layout.Layout.features) );
        ]
      (fun () ->
        Shard.plan ~windows ~halo:(min_s + hp) layout)
  in
  let m = obs.Mpl_obs.Obs.metrics in
  Mpl_obs.Metrics.add
    (Mpl_obs.Metrics.counter m "shard.windows")
    (Array.length sh.Shard.windows);
  let acc = Shard.fresh_acc sh and scanned = ref false in
  {
    produce =
      (fun push ->
        let push_piece (p : Shard.piece) =
          push p.Shard.graph (p.Shard.back_feature, p.Shard.back_seg)
        in
        Array.iter
          (fun w ->
            List.iter push_piece
              (Shard.scan_window ~obs ~acc ~min_s ~hp layout w))
          sh.Shard.windows;
        scanned := true;
        let border = Shard.border_pieces ~obs acc ~min_s ~hp in
        Mpl_obs.Metrics.add
          (Mpl_obs.Metrics.counter m "shard.border_pieces")
          (List.length border);
        List.iter push_piece border);
    resolve =
      (fun () ->
        if not !scanned then None
        else
          let off, n = Shard.offsets acc in
          let back (bf, bs) =
            Array.init (Array.length bf) (fun j -> off.(bf.(j)) + bs.(j))
          in
          Some (n, back));
  }

(* The one stream driver: push every component of [source] through one
   {!Mpl_engine.Engine.stream} — the component cache and its signature,
   vetting of cached colorings (length, completeness, color range),
   greedy recovery of a component whose plan/merge dies outside the
   leaf-solver ladder — forcing at most [force_lag] cells behind the
   last push. A component that must be solved fresh is *divided on the
   coordinating thread the moment it is pushed* ({!Division.plan}), and
   every leaf piece it sheds is submitted to the pool right away, one
   task per leaf, so workers solve the first component's leaves while
   the coordinator still divides later ones.
   The division analysis and the emit order are deterministic and
   color-independent, so scheduling stays a pure performance knob. A
   caller-owned pool (the serving daemon's, shared by every in-flight
   request) is used as-is; otherwise a private one sized by [jobs]
   lives for the call. A pool of width 1 has no worker domain, and the
   coordinator solves every leaf itself while it forces; with nothing
   to overlap with, each component is forced right after its push,
   since a lag would only keep in-flight components' garbage alive past
   the minor heap.

   A forced cell folds its component's cost and division stats, hands
   [keep key colors cost] its result, and drops its piece graph, so
   peak residency is O(lag) pieces + O(output) however long the source
   is. Forced components are replayed in push order — scattered into
   the coloring and streamed to [on_component] with their resolved back
   maps — as soon as the source can resolve them, so the stream is
   deterministic whichever worker finished which piece first; the
   serving layer relies on that to keep streamed replies reproducible. *)
let force_lag = 64

let stream_assign ~obs ~params ~(rc : run_ctx) ~ext_pool ~shared_cache
    ~on_component ?(keep = fun _ _ _ -> ()) source =
  let cache = component_cache ~obs ~params ~fault:rc.rc_fault shared_cache in
  let signature (piece, _) =
    if params.cache then piece_signature ~salt:rc.rc_salt piece else None
  in
  let validate ((piece : Decomp_graph.t), _) colors =
    Array.length colors = piece.Decomp_graph.n
    && Coloring.is_complete colors
    && Coloring.check_range ~k:params.k colors
  in
  let recover ((piece : Decomp_graph.t), _) e bt =
    (* Cancellation is not a component failure: let it abort the whole
       assignment instead of greedy-recovering a torn-down request. *)
    (match e with
    | Mpl_engine.Pool.Cancelled -> Printexc.raise_with_backtrace e bt
    | _ -> ());
    let colors =
      Bnb.greedy ~k:params.k
        (Bnb.instance_of_graph ~alpha:Coloring.alpha piece)
    in
    prov_record rc.rc_prov ~raised:true ~fallbacks:1
      {
        piece_n = piece.Decomp_graph.n;
        failed_step = "component";
        error = Printexc.to_string e;
        solved_by = "greedy";
        attempts = 1;
      };
    (colors, whole_piece_stats piece)
  in
  let check_cancel = check_cancel rc in
  let drive pool =
    let lag = if Mpl_engine.Pool.jobs pool = 1 then 0 else force_lag in
    (* One pool task per leaf, largest pieces at highest priority. *)
    let emit_leaf (leaf : Decomp_graph.t) =
      check_cancel ();
      let fut =
        Mpl_engine.Pool.submit ~priority:leaf.Decomp_graph.n
          ~cancel:rc.rc_cancel pool
          (fun () -> rc.rc_solver leaf)
      in
      fun () -> Mpl_engine.Pool.await pool fut
    in
    let plant (piece, _) =
      let local = Division.fresh_stats () in
      let join =
        Division.plan ~obs ~stats:local ~connected:true ~k:params.k
          ~alpha:Coloring.alpha ~emit:emit_leaf piece
      in
      fun () -> (join (), local)
    in
    let t =
      Mpl_engine.Engine.stream ~obs ?cache ~signature ~validate ~recover
        ~plant ()
    in
    let pushed = ref 0 in
    Mpl_obs.Obs.span obs "engine.batch"
      ~late_args:(fun () -> [ ("pieces", Mpl_obs.Sink.Int !pushed) ])
    @@ fun () ->
    let inflight = Queue.create () and forced = Queue.create () in
    let out = ref None and replayed = ref 0 in
    let replay () =
      if Option.is_none !out then
        out :=
          Option.map
            (fun (n, back_of) -> (Array.make n (-1), back_of))
            (source.resolve ());
      Option.iter
        (fun (colors, back_of) ->
          Queue.iter
            (fun (key, pc) ->
              let back = back_of key in
              Array.iteri (fun j v -> colors.(v) <- pc.(j)) back;
              Option.iter (fun f -> f !replayed back pc) on_component;
              incr replayed)
            forced;
          Queue.clear forced)
        !out
    in
    let conflicts = ref 0 and stitches = ref 0 and scaled = ref 0 in
    let force_one () =
      check_cancel ();
      let cell, ((piece : Decomp_graph.t), key) = Queue.pop inflight in
      let pc, local = Mpl_engine.Engine.force t cell in
      let c = Coloring.evaluate piece pc in
      conflicts := !conflicts + c.Coloring.conflicts;
      stitches := !stitches + c.Coloring.stitches;
      scaled := !scaled + c.Coloring.scaled;
      add_division_stats rc.rc_stats local;
      keep key pc c;
      Queue.add (key, pc) forced;
      replay ()
    in
    source.produce (fun piece key ->
        check_cancel ();
        incr pushed;
        let item = (piece, key) in
        Queue.add (Mpl_engine.Engine.push t item, item) inflight;
        if Queue.length inflight > lag then force_one ());
    while not (Queue.is_empty inflight) do
      force_one ()
    done;
    replay ();
    let engine = Mpl_engine.Engine.finish t in
    let cost =
      {
        Coloring.conflicts = !conflicts;
        stitches = !stitches;
        scaled = !scaled;
      }
    in
    (fst (Option.get !out), cost, engine)
  in
  let colors, cost, engine =
    match ext_pool with
    | Some pool -> drive pool
    | None ->
      Mpl_engine.Pool.with_pool ~obs ~fault:rc.rc_fault
        ~jobs:(max 1 params.jobs) drive
  in
  (colors, cost, engine, Option.map Mpl_engine.Cache.stats cache)

(* The report of a finished run: the driver's own results plus what
   [rc] accumulated (timeout flag, division stats, resilience) and the
   metrics snapshot; [redecompose] fills in [eco]. *)
let make_report ~obs ~params ~(rc : run_ctx) algorithm ~colors ~cost
    ~elapsed_s ~engine ~cache =
  assert (Coloring.is_complete colors);
  assert (Coloring.check_range ~k:params.k colors);
  let m = obs.Mpl_obs.Obs.metrics in
  {
    algorithm;
    params;
    cost;
    colors;
    elapsed_s;
    timed_out = Atomic.get rc.rc_timed_out;
    division = rc.rc_stats;
    engine;
    cache;
    resilience = prov_snapshot rc.rc_prov ~fault:rc.rc_fault;
    metrics =
      (if Mpl_obs.Metrics.enabled m then Some (Mpl_obs.Metrics.snapshot m)
       else None);
    eco = None;
  }

(* One run of the driver under an [assign] span carrying [arg]: a fresh
   run context and the component source [source ()], inside the timed
   span. *)
let run_assign ~obs ~params ~pool ~shared_cache ~on_component algorithm arg
    source =
  let rc = make_run_ctx ~obs ~params algorithm in
  let (colors, cost, engine, cache), elapsed_s =
    Mpl_util.Timer.time (fun () ->
        Mpl_obs.Obs.span obs "assign"
          ~args:
            [ ("algorithm", Mpl_obs.Sink.Str (algorithm_name algorithm)); arg ]
        @@ fun () ->
        stream_assign ~obs ~params ~rc ~ext_pool:pool ~shared_cache
          ~on_component (source ()))
  in
  make_report ~obs ~params ~rc algorithm ~colors ~cost ~elapsed_s ~engine
    ~cache

let assign ?(params = default_params) ?obs ?pool ?shared_cache ?on_component
    algorithm g =
  let obs = match obs with Some o -> o | None -> make_obs params in
  run_assign ~obs ~params ~pool ~shared_cache ~on_component algorithm
    ("n", Mpl_obs.Sink.Int g.Decomp_graph.n)
    (fun () -> graph_source ~obs ~n:g.Decomp_graph.n ~remap:Fun.id g)

let decompose ?(params = default_params) ?pool ?shared_cache ?on_component
    ~min_s algorithm layout =
  (* One context for the whole run, so the graph-construction spans and
     counters land in the same sink/registry as the assignment's. *)
  let obs = make_obs params in
  let g = Decomp_graph.of_layout ~obs layout ~min_s in
  (g, assign ~params ~obs ?pool ?shared_cache ?on_component algorithm g)

let decompose_sharded ?(params = default_params) ?obs ?pool ?shared_cache
    ?on_component ~windows ~min_s algorithm layout =
  let obs = match obs with Some o -> o | None -> make_obs params in
  run_assign ~obs ~params ~pool ~shared_cache ~on_component algorithm
    ("windows", Mpl_obs.Sink.Int windows)
    (fun () -> window_source ~obs ~windows ~min_s layout)

let pp_report ppf r =
  Format.fprintf ppf
    "%-13s cn#=%-4d st#=%-5d cost=%.1f CPU=%.3fs pieces=%d largest=%d%s%s%s"
    (algorithm_name r.algorithm) r.cost.Coloring.conflicts
    r.cost.Coloring.stitches
    (float_of_int r.cost.Coloring.scaled /. 1000.)
    r.elapsed_s r.division.Division.pieces r.division.Division.largest_piece
    (if r.params.cache then
       Printf.sprintf " cache=%d/%d"
         (r.engine.Mpl_engine.Engine.hits + r.engine.Mpl_engine.Engine.reused)
         r.engine.Mpl_engine.Engine.pieces
     else "")
    (if r.resilience.degraded > 0 then
       Printf.sprintf " degraded=%d" r.resilience.degraded
     else "")
    (if r.timed_out then " (TIMEOUT)" else "")

(* ------------------------------------------------------------------ *)
(* Incremental (ECO) re-decomposition                                 *)
(* ------------------------------------------------------------------ *)

(* One component of an ECO session: its coloring [pc] over the
   component's ascending vertex list [vs], that coloring's [cost], and
   the feature ids [feature_of] gives its vertices — vertices are
   feature-major, so one scan dedups them. *)
let eco_comp ~feature_of vs pc (cost : Coloring.cost) =
  let feats = ref [] in
  Array.iter
    (fun v ->
      let f = feature_of v in
      match !feats with f' :: _ when f' = f -> () | _ -> feats := f :: !feats)
    vs;
  {
    Eco.features = Array.of_list (List.rev !feats);
    colors = pc;
    conflicts = cost.Coloring.conflicts;
    stitches = cost.Coloring.stitches;
    scaled = cost.Coloring.scaled;
  }

(* Capture everything a later [redecompose] needs from a finished run.
   Component colorings are stored in (feature, segment) order restricted
   to each component's ascending vertex list — exactly the order
   [Decomp_graph.subgraph] extracts, so reuse is a pure blit. *)
let snapshot ?(params = default_params) ?(obs = Mpl_obs.Obs.null) ~min_s
    algorithm (g : Decomp_graph.t) (layout : Mpl_layout.Layout.t)
    (report : report) =
  let nf = Array.length layout.Mpl_layout.Layout.features in
  let seg_counts = Array.make nf 0 in
  Array.iter
    (fun f -> seg_counts.(f) <- seg_counts.(f) + 1)
    g.Decomp_graph.feature;
  let comps = ref [] in
  iter_components ~obs g (fun piece vs ->
      let pc = Array.map (fun v -> report.colors.(v)) vs in
      comps :=
        eco_comp
          ~feature_of:(fun v -> g.Decomp_graph.feature.(v))
          vs pc
          (Coloring.evaluate piece pc)
        :: !comps);
  {
    Eco.layout;
    min_s;
    salt = params_salt ~params algorithm;
    seg_counts;
    comps = Array.of_list (List.rev !comps);
  }

(* The core of [redecompose], after all validation has passed. Runs
   under the caller's span; returns [Ok (edited, report, session)]. *)
let redecompose_run ~(params : params) ~obs ~pool ~shared_cache ~on_component
    ~(prev : Eco.session) ~(base : Mpl_layout.Layout.t)
    ~(edited : Mpl_layout.Layout.t) ~new_of_old ~comp_of_feature ~salt ~edits
    algorithm =
  let module L = Mpl_layout.Layout in
  let module Geo = Mpl_geometry in
  let t0 = Mpl_util.Timer.start () in
  let nf_old = Array.length base.L.features in
  let nf_new = Array.length edited.L.features in
  let hp = base.L.tech.L.half_pitch in
  let min_s = prev.Eco.min_s in
  let halo = min_s + hp in
  let comp_dirty, dirty_mark, dirty_new =
    Mpl_obs.Obs.span obs "eco.dirty" @@ fun () ->
    (* --- dirty previous components: those with a base feature within
       [halo] of an edited rect. The Grid_index query is a superset; the
       polygon distance refine uses the same integer predicate as graph
       construction, so a feature is touched exactly when the edit could
       have changed its incident edges (or stitch split). --- *)
    let comp_dirty = Array.make (Array.length prev.Eco.comps) false in
    let drects = Eco.dirty_rects base edits in
    if nf_old > 0 && drects <> [] then begin
      (* Index only the features near the edit, not the whole die: a
         feature can be touched only if its bbox meets the dilated
         bounding box of all dirty rects, and on a localized ECO that
         window holds a few percent of the layout. The full pass is one
         cheap bbox test per feature; the index build is proportional to
         the window. *)
      let win =
        List.fold_left Geo.Rect.union_bbox (List.hd drects) (List.tl drects)
      in
      let win = Geo.Rect.inflate win halo in
      let idx = Geo.Grid_index.create ~cell:(max halo 16) in
      Array.iteri
        (fun i p ->
          let bb = Geo.Polygon.bbox p in
          if Geo.Rect.overlaps bb win || Geo.Rect.touches bb win then
            Geo.Grid_index.add idx i bb)
        base.L.features;
      let halo2 = halo * halo in
      List.iter
        (fun r ->
          let rp = Geo.Polygon.of_rect r in
          List.iter
            (fun i ->
              let c = comp_of_feature.(i) in
              if
                (not comp_dirty.(c))
                && Geo.Polygon.distance2 base.L.features.(i) rp <= halo2
              then comp_dirty.(c) <- true)
            (Geo.Grid_index.query idx r ~radius:halo))
        drects
    end;
    (* --- dirty features of the *edited* layout, ascending: every
       feature but the survivors of clean components — survivors of
       dirty components keep their relative order, and every added
       feature (appended by [Eco.apply]) is dirty by definition --- *)
    let dirty_mark = Array.make nf_new true in
    Array.iteri
      (fun f o ->
        match o with
        | Some j when not comp_dirty.(comp_of_feature.(f)) ->
          dirty_mark.(j) <- false
        | _ -> ())
      new_of_old;
    let dirty = ref [] in
    for j = nf_new - 1 downto 0 do
      if dirty_mark.(j) then dirty := j :: !dirty
    done;
    (comp_dirty, dirty_mark, Array.of_list !dirty)
  in
  (* --- dirty sub-layout and its graph. Feature order is ascending
     edited-layout order, so each rebuilt component is byte-identical
     to the [subgraph] extraction a cold run on the whole edited layout
     would hand the solver (see DESIGN.md §15). --- *)
  let sub =
    L.make ~name:edited.L.name edited.L.tech
      (Array.to_list (Array.map (fun j -> edited.L.features.(j)) dirty_new))
  in
  let g_d = Decomp_graph.of_layout ~obs sub ~min_s in
  (* --- segment bookkeeping of the edited layout: clean features keep
     their previous split (the min_s-neighborhood fact), dirty features
     take theirs from [g_d] --- *)
  let new_seg = Array.make nf_new 0 in
  Array.iteri
    (fun f o ->
      match o with
      | Some j when not dirty_mark.(j) -> new_seg.(j) <- prev.Eco.seg_counts.(f)
      | _ -> ())
    new_of_old;
  let seg = Array.make g_d.Decomp_graph.n 0 in
  for v = 0 to g_d.Decomp_graph.n - 1 do
    let gid = dirty_new.(g_d.Decomp_graph.feature.(v)) in
    seg.(v) <- new_seg.(gid);
    new_seg.(gid) <- new_seg.(gid) + 1
  done;
  let off = Array.make (nf_new + 1) 0 in
  for j = 0 to nf_new - 1 do
    off.(j + 1) <- off.(j) + new_seg.(j)
  done;
  (* dirty-graph vertex -> edited-layout (full-graph) vertex *)
  let full v = off.(dirty_new.(g_d.Decomp_graph.feature.(v))) + seg.(v) in
  (* --- solve only the components of the dirty graph, scattered and
     streamed through [full] into edited-layout vertex ids; the driver
     hands each one back, in [g_d] ids, for the next session --- *)
  let rc = make_run_ctx ~obs ~params algorithm in
  let dirty_comps = ref [] in
  let keep vs pc cost =
    dirty_comps :=
      eco_comp
        ~feature_of:(fun v -> dirty_new.(g_d.Decomp_graph.feature.(v)))
        vs pc cost
      :: !dirty_comps
  in
  let colors, cost_d, engine, cache =
    stream_assign ~obs ~params ~rc ~ext_pool:pool ~shared_cache ~on_component
      ~keep
      (graph_source ~obs ~n:off.(nf_new) ~remap:(Array.map full) g_d)
  in
  (* --- the clean components: blitted verbatim into the coloring,
     their recorded costs added (no edge ever crosses a component
     boundary), remapped to edited-layout feature ids for the next
     session, so edits chain --- *)
  let conflicts = ref cost_d.Coloring.conflicts
  and stitches = ref cost_d.Coloring.stitches
  and scaled = ref cost_d.Coloring.scaled in
  let comps = ref !dirty_comps in
  Array.iteri
    (fun ci (c : Eco.comp) ->
      if not comp_dirty.(ci) then begin
        let features =
          Array.map (fun f -> Option.get new_of_old.(f)) c.Eco.features
        in
        let cur = ref 0 in
        Array.iteri
          (fun i f ->
            let len = prev.Eco.seg_counts.(f) in
            Array.blit c.Eco.colors !cur colors off.(features.(i)) len;
            cur := !cur + len)
          c.Eco.features;
        conflicts := !conflicts + c.Eco.conflicts;
        stitches := !stitches + c.Eco.stitches;
        scaled := !scaled + c.Eco.scaled;
        comps := { c with Eco.features } :: !comps
      end)
    prev.Eco.comps;
  let comps = Array.of_list !comps in
  Array.sort
    (fun (a : Eco.comp) (b : Eco.comp) ->
      compare a.Eco.features.(0) b.Eco.features.(0))
    comps;
  let session =
    { Eco.layout = edited; min_s; salt; seg_counts = new_seg; comps }
  in
  let cost =
    { Coloring.conflicts = !conflicts; stitches = !stitches; scaled = !scaled }
  in
  let eco =
    {
      dirty_components = List.length !dirty_comps;
      reused_components =
        Array.fold_left (fun a d -> if d then a else a + 1) 0 comp_dirty;
      dirty_features = Array.length dirty_new;
    }
  in
  let m = obs.Mpl_obs.Obs.metrics in
  List.iter
    (fun (name, n) -> Mpl_obs.Metrics.add (Mpl_obs.Metrics.counter m name) n)
    [
      ("eco.dirty_components", eco.dirty_components);
      ("eco.reused_components", eco.reused_components);
      ("eco.dirty_features", eco.dirty_features);
    ];
  let report =
    make_report ~obs ~params ~rc algorithm ~colors ~cost
      ~elapsed_s:(Mpl_util.Timer.elapsed_s t0)
      ~engine ~cache
  in
  Ok (edited, { report with eco = Some eco }, session)

(* Re-decompose after an edit, reusing every component the edit cannot
   have touched. Correctness argument (DESIGN.md §15, in brief): every
   edge of the decomposition graph joins features within the
   color-friendly radius [min_s + hp], and a feature's stitch split
   depends only on its neighbors within [min_s]. Dilating the edited
   rectangles by [min_s + hp] therefore bounds the region where the
   graph can differ from the previous run's: a component none of whose
   features intersects that window keeps exactly its previous vertex
   set, edges, and (because the solver is deterministic) its previous
   coloring — so we reuse its bytes instead of re-solving. The dirty
   features are re-split and re-solved as a sub-layout, which rebuilds
   their components bit-identically to a cold run on the whole edited
   layout. *)
let redecompose ?(params = default_params) ?obs ?pool ?shared_cache
    ?on_component ~(prev : Eco.session) ~edits algorithm =
  let module L = Mpl_layout.Layout in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let salt = params_salt ~params algorithm in
  if salt <> prev.Eco.salt then
    err "redecompose: session solved under different parameters (%s vs %s)"
      prev.Eco.salt salt
  else
    let base = prev.Eco.layout in
    let nf_old = Array.length base.L.features in
    if Array.length prev.Eco.seg_counts <> nf_old then
      Error "redecompose: session corrupt (seg_counts/features mismatch)"
    else
      (* every base feature must belong to exactly one session comp *)
      let comp_of_feature = Array.make nf_old (-1) in
      let dup = ref false in
      Array.iteri
        (fun ci (c : Eco.comp) ->
          Array.iter
            (fun f ->
              if f < 0 || f >= nf_old || comp_of_feature.(f) >= 0 then
                dup := true
              else comp_of_feature.(f) <- ci)
            c.Eco.features)
        prev.Eco.comps;
      if !dup || Array.exists (fun c -> c < 0) comp_of_feature then
        Error "redecompose: session corrupt (component cover)"
      else
        match Eco.apply base edits with
        | Error m -> Error m
        | Ok (edited, new_of_old) ->
          let obs = match obs with Some o -> o | None -> make_obs params in
          Mpl_obs.Obs.span obs "redecompose"
            ~args:[ ("edits", Mpl_obs.Sink.Int (List.length edits)) ]
          @@ fun () ->
          redecompose_run ~params ~obs ~pool ~shared_cache ~on_component
            ~prev ~base ~edited ~new_of_old ~comp_of_feature ~salt ~edits
            algorithm
