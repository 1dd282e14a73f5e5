type algorithm = Ilp | Exact | Sdp_backtrack | Sdp_greedy | Linear

let algorithm_name = function
  | Ilp -> "ILP"
  | Exact -> "Exact-BnB"
  | Sdp_backtrack -> "SDP+Backtrack"
  | Sdp_greedy -> "SDP+Greedy"
  | Linear -> "Linear"

type post_pass = No_post | Local_search

type params = {
  k : int;
  alpha : float;
  tth : float;
  sdp_options : Mpl_numeric.Sdp.options;
  solver_budget_s : float;
  node_cap : int;
  stages : Division.stages;
  post : post_pass;
  balance : bool;
  jobs : int;
  priority_bias : int;
  cache : bool;
  trace : Mpl_obs.Sink.t option;
  metrics : bool;
  fault : Mpl_engine.Fault.spec option;
  request_id : string option;
  cancel : Mpl_engine.Pool.token option;
  deadline_s : float option;
  windows : int;
  window_nm : int option;
}

let default_params =
  {
    k = 4;
    alpha = 0.1;
    tth = 0.9;
    sdp_options = Mpl_numeric.Sdp.default_options;
    solver_budget_s = 60.;
    node_cap = 2_000_000;
    stages = Division.all_stages;
    post = No_post;
    balance = false;
    jobs = 1;
    priority_bias = 0;
    cache = false;
    trace = None;
    metrics = false;
    fault = None;
    request_id = None;
    cancel = None;
    deadline_s = None;
    windows = 1;
    window_nm = None;
  }

(* Stamp the serving request id onto a span's arguments, so even the
   aggregate (server-lifetime) trace attributes pipeline spans to the
   request that ran them. Per-request sinks additionally tag every
   event via [Sink.create ~tags]. *)
let rid_args params rest =
  match params.request_id with
  | None -> rest
  | Some id -> ("rid", Mpl_obs.Sink.Str id) :: rest

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

(* Wall-clock breakdown of one assignment. [extract_s], [division_s]
   and [merge_s] are coordinator-thread time (piece extraction /
   structural analysis / reassembly, with any solver work the
   coordinator picked up while helping the pool subtracted out);
   [solve_s] is total solver time summed over every domain, so it can
   exceed the elapsed wall when jobs > 1. *)
type phases = {
  extract_s : float;
  division_s : float;
  solve_s : float;
  merge_s : float;
}

(* Per-mask usage tallies — the observational first slice of the
   balanced-masks roadmap item. Purely derived from the final coloring;
   no objective change. *)
type balance = {
  mask_features : int array;
  mask_vertices : int array;
  mask_area : int array;
}

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
  phases : phases;
  engine : Mpl_engine.Engine.stats option;
  cache : Mpl_engine.Cache.stats option;
  resilience : resilience;
  metrics : Mpl_obs.Metrics.snapshot option;
  balance : balance option;
  eco : eco_stats option;
}

(* Feature dedup relies on vertices of one feature being contiguous,
   which holds for every layout-derived graph (feature-major vertex
   order) and for [of_edges]'s identity default. *)
let compute_balance ~k (g : Decomp_graph.t) colors =
  let mask_features = Array.make k 0
  and mask_vertices = Array.make k 0
  and mask_area = Array.make k 0 in
  let last = Array.make k (-1) in
  for v = 0 to g.Decomp_graph.n - 1 do
    let c = colors.(v) in
    if c >= 0 then begin
      mask_vertices.(c) <- mask_vertices.(c) + 1;
      mask_area.(c) <- mask_area.(c) + g.Decomp_graph.varea.(v);
      let f = g.Decomp_graph.feature.(v) in
      if last.(c) <> f then begin
        last.(c) <- f;
        mask_features.(c) <- mask_features.(c) + 1
      end
    end
  done;
  { mask_features; mask_vertices; mask_area }

(* One attempt of one algorithm on one divided piece. Returns the
   coloring plus whether the attempt completed cleanly — [false] means
   the shared budget or the node cap cut the search short and the
   coloring is only the best incumbent. *)
let solve_once ~obs ~params ~budget ?warm algorithm (piece : Decomp_graph.t) =
  let k = params.k and alpha = params.alpha in
  let m = obs.Mpl_obs.Obs.metrics in
  let observe_sdp (sol : Mpl_numeric.Sdp.solution) =
    Mpl_obs.Metrics.observe
      (Mpl_obs.Metrics.histogram m "solver.sdp_iterations")
      (float_of_int sol.Mpl_numeric.Sdp.iterations);
    (* Registered on every SDP solve (not just warm ones) so the counter
       shows up as an explicit 0 in metrics snapshots of cold runs. *)
    let warm_c = Mpl_obs.Metrics.counter m "sdp.warm_starts" in
    if sol.Mpl_numeric.Sdp.warm then Mpl_obs.Metrics.incr warm_c
  in
  Mpl_obs.Obs.span obs
    ("solve." ^ algorithm_name algorithm)
    ~cat:"solve"
    ~args:[ ("n", Mpl_obs.Sink.Int piece.Decomp_graph.n) ]
  @@ fun () ->
  match algorithm with
  | Linear -> (Linear_color.solve ~k ~alpha piece, true)
  | Exact ->
    let r =
      Exact_color.solve ~node_cap:params.node_cap ~budget ~k ~alpha piece
    in
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
  | Sdp_greedy ->
    if piece.Decomp_graph.n <= 1 then (Array.make piece.Decomp_graph.n 0, true)
    else begin
      let sol =
        Sdp_color.relax ~options:params.sdp_options ?warm ~k ~alpha piece
      in
      observe_sdp sol;
      (Sdp_color.greedy_map ~k sol piece, true)
    end
  | Sdp_backtrack ->
    if piece.Decomp_graph.n <= 1 then (Array.make piece.Decomp_graph.n 0, true)
    else begin
      let sol =
        Sdp_color.relax ~options:params.sdp_options ?warm ~k ~alpha piece
      in
      observe_sdp sol;
      ( Sdp_color.backtrack ~obs ~tth:params.tth ~node_cap:params.node_cap ~k
          ~alpha sol piece,
        true )
    end

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
let recover_piece ?(cheap = false) ~obs ~params ~fault ~prov ~primary
    ~partial ~error piece =
  let k = params.k and alpha = params.alpha in
  let m = obs.Mpl_obs.Obs.metrics in
  let free_budget = Mpl_util.Timer.budget 0. in
  let attempts = ref 1 in
  let candidates = ref [] in
  (* Each rung restarts from the previous rung's coloring (initially the
     primary's tripped incumbent, when there is one): the SDP rungs seed
     their relaxation from it instead of a cold start, so the recovery
     resumes the search rather than repeating it. *)
  let last = ref None in
  let add name colors =
    candidates := !candidates @ [ (name, colors) ];
    last := Some colors
  in
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
          fst
            (solve_once ~obs ~params ~budget:free_budget ?warm:!last step
               piece)
      with
      | colors -> add (algorithm_name step) colors
      | exception _ -> ())
    (* An expired deadline skips the expensive middle rungs: recovery
       must cost less than the time that is already gone. *)
    (if cheap then (match primary with Linear -> [] | _ -> [ Linear ])
     else fallback_chain primary);
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
    params.k params.alpha params.tth params.node_cap

let piece_signature ~salt (piece : Decomp_graph.t) =
  if piece.Decomp_graph.n > signature_size_cap then None
  else
    Some
      (Mpl_engine.Cache.signature_salted ~salt ~n:piece.Decomp_graph.n
         ~relations:
           [|
             Decomp_graph.conflict_edges piece;
             Decomp_graph.stitch_edges piece;
             Decomp_graph.friendly_edges piece;
           |])

(* Leaf solver for one divided piece. The exact algorithms share one
   wall-clock budget across all pieces (the paper reports a single CPU
   number per circuit). A clean attempt returns its coloring untouched —
   the no-fault, no-trip path is bit-identical to a build without this
   wrapper. An attempt that raises or is cut short (budget, node cap)
   degrades through [recover_piece] instead of failing the run. The
   budget deadline and the timeout flag are both safe to touch from
   pool workers. *)
let make_solver ~obs ~params ~budget ~deadline_over ~timed_out ~fault ~prov
    algorithm (piece : Decomp_graph.t) =
  let m = obs.Mpl_obs.Obs.metrics in
  Mpl_obs.Metrics.incr (Mpl_obs.Metrics.counter m "solver.solves");
  (* Deadline trip: degrade instead of solving — the ladder-aware soft
     phase of a per-request deadline. The piece still gets a legal
     coloring from the cheapest rung; the hard phase (cancellation of
     queued pieces) is the server watchdog's job. *)
  if deadline_over () then begin
    Atomic.set timed_out true;
    Mpl_obs.Metrics.incr (Mpl_obs.Metrics.counter m "solver.deadline_trips");
    recover_piece ~cheap:true ~obs ~params ~fault ~prov ~primary:algorithm
      ~partial:None ~error:"deadline" piece
  end
  else begin
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
      Mpl_obs.Metrics.incr
        (Mpl_obs.Metrics.counter m "solver.piece_failures");
      recover_piece ~obs ~params ~fault ~prov ~primary:algorithm
        ~partial:None ~error:(Printexc.to_string e) piece
  end

(* Per-run solving context, shared by the whole-graph and sharded entry
   points: armed fault injector, provenance, deadline probe, shared
   solver budget, and the timed leaf solver with its
   phase accounting. [rc_solve_ns] totals solver wall across every
   domain; [rc_caller_ns] (written by the coordinating thread only — no
   lock needed) lets the engine paths subtract solver work the
   coordinator picked up while helping the pool out of their
   division/merge walls. [rc_extract_s] totals the coordinator wall
   spent extracting pieces ({!Division.extract}), top-level components
   and every division stage alike. *)
type run_ctx = {
  rc_salt : string;
  rc_stats : Division.stats;
  rc_timed_out : bool Atomic.t;
  rc_fault : Mpl_engine.Fault.t;
  rc_prov : prov;
  rc_solve_ns : int Atomic.t;
  rc_caller_ns : float ref;
  rc_extract_s : float ref;
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
  (* Per-request deadline (opt-in). Armed, it is a second monotonic
     budget: [deadline_over] is probed once per piece before the
     primary solve (soft degrade through the cheap ladder rung), and
     for the budgeted exact algorithms the shared solver budget is
     clamped to it so an in-flight ILP/BnB returns its incumbent at
     the deadline instead of running on. Unarmed, [deadline_over] is a
     constant [false]: no clock is created, read, or registered — the
     [solver.deadline_checks] counter only exists on deadline runs,
     which is what the served-invariance test keys on. *)
  let deadline_s =
    match params.deadline_s with Some d when d > 0. -> Some d | _ -> None
  in
  let deadline_over =
    match deadline_s with
    | None -> fun () -> false
    | Some d ->
      let db = Mpl_util.Timer.budget d in
      let checks =
        Mpl_obs.Metrics.counter obs.Mpl_obs.Obs.metrics
          "solver.deadline_checks"
      in
      fun () ->
        Mpl_obs.Metrics.incr checks;
        Mpl_util.Timer.expired db
  in
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
  let base_solver =
    make_solver ~obs ~params ~budget ~deadline_over ~timed_out ~fault ~prov
      algorithm
  in
  let solve_ns = Atomic.make 0 in
  let caller_ns = ref 0. in
  let coord = Domain.self () in
  let solver piece =
    let s0 = Mpl_util.Timer.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let dt =
          Int64.to_int (Int64.sub (Mpl_util.Timer.now_ns ()) s0)
        in
        ignore (Atomic.fetch_and_add solve_ns dt);
        if Domain.self () = coord then
          caller_ns := !caller_ns +. (float_of_int dt /. 1e9))
      (fun () -> base_solver piece)
  in
  {
    rc_salt = salt;
    rc_stats = stats;
    rc_timed_out = timed_out;
    rc_fault = fault;
    rc_prov = prov;
    rc_solve_ns = solve_ns;
    rc_caller_ns = caller_ns;
    rc_extract_s = ref 0.;
    rc_solver = solver;
  }

(* A run's phases: the coordinator [division_s] / [merge_s] its caller
   measured, extraction and solver totals from the run context. *)
let run_phases (rc : run_ctx) ~division_s ~merge_s =
  {
    extract_s = !(rc.rc_extract_s);
    division_s;
    solve_s = float_of_int (Atomic.get rc.rc_solve_ns) /. 1e9;
    merge_s;
  }

(* Coordinator-side cancellation checkpoint: one atomic read per leaf
   emission / component push / component force. When the token trips,
   the assignment unwinds with [Pool.Cancelled] — queued pieces are
   dropped at dequeue, running ones finish but their results are never
   looked at. *)
let check_cancel params () =
  match params.cancel with
  | Some tok when Mpl_engine.Pool.cancelled tok ->
    raise Mpl_engine.Pool.Cancelled
  | _ -> ()

(* Component cache of one run: the caller's shared cross-request table
   when one was provided (the serving daemon passes its own), a private
   per-run table otherwise, none with the cache off. Reuse from either
   is cost-exact: the salt partitions entries by solver parameters, and
   a hit requires a byte-identical piece. *)
let component_cache ~obs ~(params : params) ?fault shared_cache =
  if not params.cache then None
  else
    match shared_cache with
    | Some _ -> shared_cache
    | None -> Some (Mpl_engine.Cache.create ~obs ?fault ())

(* Tiny leaves (n < [chunk_below]) are buffered and submitted
   [chunk_len] at a time as one pool task ({!Pool.submit_group}):
   dominant-share circuits shed thousands of 2..10-vertex pieces whose
   per-task dispatch otherwise costs more than their solve. *)
let chunk_below = 32
let chunk_len = 16

(* Leaf emitter of the engine paths: [emit piece] submits one leaf to
   [pool] (largest pieces at highest priority) and returns its join
   thunk; [flush ()] submits the buffered tiny leaves. The buffer only
   lives on the coordinating thread; a join thunk that runs ahead of
   the flush flushes on demand. *)
let leaf_emitter ~params ~solver pool =
  let bias = params.priority_bias in
  let pending = ref [] and pending_len = ref 0 in
  let flush () =
    match !pending with
    | [] -> ()
    | ps ->
      let ps = List.rev ps in
      pending := [];
      pending_len := 0;
      let prio =
        List.fold_left
          (fun m ((p : Decomp_graph.t), _) -> max m p.Decomp_graph.n)
          0 ps
      in
      let futs =
        Mpl_engine.Pool.submit_group ~priority:(bias + prio)
          ?cancel:params.cancel pool
          (List.map (fun (p, _) () -> solver p) ps)
      in
      List.iter2 (fun (_, slot) fut -> slot := Some fut) ps futs
  in
  let emit (piece : Decomp_graph.t) =
    check_cancel params ();
    if piece.Decomp_graph.n >= chunk_below then begin
      let fut =
        Mpl_engine.Pool.submit ~priority:(bias + piece.Decomp_graph.n)
          ?cancel:params.cancel pool (fun () -> solver piece)
      in
      fun () -> Mpl_engine.Pool.await pool fut
    end
    else begin
      let slot = ref None in
      pending := (piece, slot) :: !pending;
      incr pending_len;
      if !pending_len >= chunk_len then flush ();
      fun () ->
        (match !slot with None -> flush () | Some _ -> ());
        Mpl_engine.Pool.await pool (Option.get !slot)
    end
  in
  (emit, flush)

(* Fold one component's division stats into the run's. *)
let add_division_stats (into : Division.stats) (s : Division.stats) =
  into.Division.pieces <- into.Division.pieces + s.Division.pieces;
  if s.Division.largest_piece > into.Division.largest_piece then
    into.Division.largest_piece <- s.Division.largest_piece;
  into.Division.peeled <- into.Division.peeled + s.Division.peeled;
  into.Division.cuts <- into.Division.cuts + s.Division.cuts

(* Stream setup shared by the engine and sharded drivers, over items
   whose decomposition graph is [graph item]: the component cache and
   its signature, vetting of cached colorings (length, completeness,
   color range), greedy recovery of a component whose plan/merge dies
   outside the leaf-solver ladder, the pool, the leaf emitter and the
   plant. A component that must be solved fresh is *divided on the
   coordinating thread the moment it is pushed* ({!Division.plan}), and
   every leaf piece it sheds is submitted to the pool right away
   ({!leaf_emitter}), so workers solve the first component's leaves
   while the coordinator still divides later ones. The division
   analysis and the emit order are deterministic and color-independent,
   so scheduling stays a pure performance knob.

   [drive t flush] is the driver's own push/force loop; its result is
   returned with the cache's stats snapshot. A caller-owned pool (the
   serving daemon's, shared by every in-flight request) is used as-is;
   otherwise a private one sized by [jobs] lives for the call. *)
let with_stream ~obs ~params ~(rc : run_ctx) ~ext_pool ~shared_cache ~graph
    drive =
  let cache = component_cache ~obs ~params ~fault:rc.rc_fault shared_cache in
  let signature item =
    if params.cache then piece_signature ~salt:rc.rc_salt (graph item)
    else None
  in
  let validate item colors =
    Array.length colors = (graph item).Decomp_graph.n
    && Coloring.is_complete colors
    && Coloring.check_range ~k:params.k colors
  in
  let recover item e bt =
    (* Cancellation is not a component failure: let it abort the whole
       assignment instead of greedy-recovering a torn-down request. *)
    (match e with
    | Mpl_engine.Pool.Cancelled -> Printexc.raise_with_backtrace e bt
    | _ -> ());
    let piece = graph item in
    let local = Division.fresh_stats () in
    local.Division.pieces <- 1;
    local.Division.largest_piece <- piece.Decomp_graph.n;
    let colors =
      Bnb.greedy ~k:params.k
        (Bnb.instance_of_graph ~alpha:params.alpha piece)
    in
    prov_record rc.rc_prov ~raised:true ~fallbacks:1
      {
        piece_n = piece.Decomp_graph.n;
        failed_step = "component";
        error = Printexc.to_string e;
        solved_by = "greedy";
        attempts = 1;
      };
    (colors, local)
  in
  let run_with_pool f =
    match ext_pool with
    | Some pool -> f pool
    | None ->
      Mpl_engine.Pool.with_pool ~obs ~fault:rc.rc_fault
        ~jobs:(max 1 params.jobs) f
  in
  run_with_pool (fun pool ->
      let emit_leaf, flush = leaf_emitter ~params ~solver:rc.rc_solver pool in
      let plant item =
        let local = Division.fresh_stats () in
        let join =
          Division.plan ~obs ~stages:params.stages ~stats:local
            ~extract_s:rc.rc_extract_s ~k:params.k ~alpha:params.alpha
            ~emit:emit_leaf (graph item)
        in
        fun () -> (join (), local)
      in
      let t =
        Mpl_engine.Engine.stream ~obs ?cache ~signature ~validate ~recover
          ~plant ()
      in
      let r = drive t flush in
      (r, Option.map Mpl_engine.Cache.stats cache))

(* Streaming parallel/cached assignment of a whole graph: split off the
   independent components (the same split the division pipeline
   performs first) and push each through one {!with_stream}. Components
   are the reuse unit precisely because they share no edge with the
   rest of the graph: substituting any valid coloring of a component
   can never change a crossing cost, so cache reuse is cost-exact by
   construction. *)
let engine_assign ~obs ~params ~(rc : run_ctx) ~ext_pool ~shared_cache
    ~on_component (g : Decomp_graph.t) =
  let caller_ns = rc.rc_caller_ns and extract_s = rc.rc_extract_s in
  let check_cancel = check_cancel params in
  let comps =
    if params.stages.Division.use_components then
      Mpl_obs.Obs.span obs "division.components" (fun () ->
          Mpl_graph.Connectivity.components (Decomp_graph.union_graph g))
    else [| Array.init g.Decomp_graph.n (fun v -> v) |]
  in
  let pieces = Division.extract ~obs ~extract_s g comps in
  let (colors, estats, phases), cstats =
    with_stream ~obs ~params ~rc ~ext_pool ~shared_cache ~graph:fst
    @@ fun t flush ->
    Mpl_obs.Obs.span obs "engine.batch"
      ~args:
        (rid_args params [ ("pieces", Mpl_obs.Sink.Int (Array.length pieces)) ])
    @@ fun () ->
    let t0 = Mpl_util.Timer.now_ns () and c0 = !caller_ns in
    let x0 = !extract_s in
    let cells =
      Array.map
        (fun p ->
          check_cancel ();
          Mpl_engine.Engine.push t p)
        pieces
    in
    flush ();
    let t1 = Mpl_util.Timer.now_ns () and c1 = !caller_ns in
    let x1 = !extract_s in
    (* Cells are forced in push (= component index) order, so the
       [on_component] stream is deterministic regardless of which
       worker finished which piece first — the serving layer relies
       on this to keep streamed replies reproducible. *)
    let results =
      Array.mapi
        (fun i cell ->
          check_cancel ();
          let ((pc, _local) as r) = Mpl_engine.Engine.force t cell in
          (match on_component with
          | Some f -> f i (snd pieces.(i)) pc
          | None -> ());
          r)
        cells
    in
    let t2 = Mpl_util.Timer.now_ns () and c2 = !caller_ns in
    let estats = Mpl_engine.Engine.finish t in
    let colors = Array.make g.Decomp_graph.n (-1) in
    Array.iteri
      (fun i (pc, local) ->
        Array.iteri (fun j v -> colors.(v) <- pc.(j)) (snd pieces.(i));
        add_division_stats rc.rc_stats local)
      results;
    let s ns = Int64.to_float ns /. 1e9 in
    let division_s =
      max 0. (s (Int64.sub t1 t0) -. (c1 -. c0) -. (x1 -. x0))
    in
    let merge_s = max 0. (s (Int64.sub t2 t1) -. (c2 -. c1)) in
    (colors, estats, run_phases rc ~division_s ~merge_s)
  in
  (colors, estats, cstats, phases)

(* The report of a finished run: the driver's own results plus what
   [rc] accumulated (timeout flag, division stats, resilience) and the
   metrics snapshot. *)
let make_report ~obs ~params ~(rc : run_ctx) algorithm ~colors ~cost
    ~elapsed_s ~phases ~engine ~cache ~balance ~eco =
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
    phases;
    engine;
    cache;
    resilience = prov_snapshot rc.rc_prov ~fault:rc.rc_fault;
    metrics =
      (if Mpl_obs.Metrics.enabled m then Some (Mpl_obs.Metrics.snapshot m)
       else None);
    balance;
    eco;
  }

let assign ?(params = default_params) ?obs ?pool ?shared_cache ?on_component
    algorithm g =
  let obs = match obs with Some o -> o | None -> make_obs params in
  let rc = make_run_ctx ~obs ~params algorithm in
  (* Any server-supplied machinery (shared pool, cross-request cache,
     streaming callback) forces the engine path even at jobs = 1. *)
  let use_engine =
    params.jobs > 1 || params.cache || Option.is_some pool
    || Option.is_some shared_cache
    || Option.is_some on_component
    || Option.is_some params.cancel
  in
  let (colors, engine, cache, phases), elapsed_s =
    Mpl_util.Timer.time (fun () ->
        Mpl_obs.Obs.span obs "assign"
          ~args:
            (rid_args params
               [
                 ("algorithm", Mpl_obs.Sink.Str (algorithm_name algorithm));
                 ("n", Mpl_obs.Sink.Int g.Decomp_graph.n);
               ])
        @@ fun () ->
        let colors, engine, cache, phases =
          (* jobs = 1 without the cache plans and solves inline on this
             thread ({!Division.assign}); anything else streams through
             the engine. Both run the one division recursion with the
             same deterministic emit order, so they are output-identical;
             the inline form skips the pool, futures and per-piece
             closures, which keeps it the cheapest sequential path. *)
          if not use_engine then begin
            let a0 = Mpl_util.Timer.now_ns () in
            let colors =
              Division.assign ~obs ~stages:params.stages ~stats:rc.rc_stats
                ~extract_s:rc.rc_extract_s ~k:params.k ~alpha:params.alpha
                ~solver:rc.rc_solver g
            in
            let wall =
              Int64.to_float (Int64.sub (Mpl_util.Timer.now_ns ()) a0) /. 1e9
            in
            let p = run_phases rc ~division_s:0. ~merge_s:0. in
            ( colors,
              None,
              None,
              { p with division_s = max 0. (wall -. p.solve_s -. p.extract_s) }
            )
          end
          else begin
            let colors, estats, cstats, p =
              engine_assign ~obs ~params ~rc ~ext_pool:pool ~shared_cache
                ~on_component g
            in
            (colors, Some estats, cstats, p)
          end
        in
        let colors =
          match params.post with
          | No_post -> colors
          | Local_search ->
            Mpl_obs.Obs.span obs "post.local_search" (fun () ->
                Refine.local_search ~k:params.k ~alpha:params.alpha g colors)
        in
        let colors =
          if params.balance then
            Mpl_obs.Obs.span obs "post.balance" (fun () ->
                Balance.rebalance ~k:params.k ~alpha:params.alpha g colors)
          else colors
        in
        (colors, engine, cache, phases))
  in
  make_report ~obs ~params ~rc algorithm ~colors
    ~cost:(Coloring.evaluate ~alpha:params.alpha g colors)
    ~elapsed_s ~phases ~engine ~cache
    ~balance:(Some (compute_balance ~k:params.k g colors))
    ~eco:None

let decompose ?(params = default_params) ?pool ?shared_cache ?on_component
    ?max_stitches_per_feature ~min_s algorithm layout =
  (* One context for the whole run, so the graph-construction spans and
     counters land in the same sink/registry as the assignment's. *)
  let obs = make_obs params in
  let g = Decomp_graph.of_layout ~obs ?max_stitches_per_feature layout ~min_s in
  (g, assign ~params ~obs ?pool ?shared_cache ?on_component algorithm g)

(* Sharded streaming front-end (the million-feature path): cut the
   layout into geometric windows with [min_s + hp]-wide halos
   ({!Shard.plan}), build each window's decomposition graph
   independently — bounding the resident graph-construction working set
   to O(window) — and stream every globally closed component through
   the same division/engine machinery as {!engine_assign}. Interior
   components are pushed window by window; border-straddling
   components are reconciled at feature granularity and rebuilt
   bit-identically from canonical owner-window shapes, then pushed
   last. Each border piece flows through the normal division pipeline,
   whose GH-cut merge reconnects the window-spanning halves by Lemma 1
   color rotation ({!Division.best_rotation}) via the same
   deterministic replay-merge thunks an unsharded run uses.

   Forcing lags pushing by a bounded number of cells, and a forced
   cell retains only its coloring and back maps — the piece graph is
   dropped — so peak residency is O(window) + O(output), not
   O(layout).

   Output bit-identity with the unsharded path: pieces are
   bit-identical to the unsharded components (see {!Shard}), each
   piece's division and solve are deterministic in the piece alone,
   and the final coloring is a scatter through the canonical
   (feature, segment) vertex order. Only the *emission order* of
   components differs (windows first, border classes last), which the
   cost cannot observe: every conflict and stitch edge is
   intra-component, so the total is the sum of per-piece costs.
   (Caveat: the shared-budget algorithms, Ilp/Exact, may trip their
   budget at a different piece than an unsharded run under time
   pressure — the bit-identity contract is for the self-contained
   solvers.) *)
let force_lag = 64

let sharded_assign ~obs ~params ~(rc : run_ctx) ~ext_pool ~shared_cache
    ~on_component ?max_stitches_per_feature ~min_s
    (layout : Mpl_layout.Layout.t) =
  let check_cancel = check_cancel params in
  let hp = layout.Mpl_layout.Layout.tech.Mpl_layout.Layout.half_pitch in
  let halo = min_s + hp in
  let sh =
    Mpl_obs.Obs.span obs "shard.plan"
      ~args:
        (rid_args params
           [
             ( "features",
               Mpl_obs.Sink.Int (Array.length layout.Mpl_layout.Layout.features)
             );
           ])
      (fun () ->
        Shard.plan ?window_nm:params.window_nm ~windows:params.windows ~halo
          layout)
  in
  let m = obs.Mpl_obs.Obs.metrics in
  Mpl_obs.Metrics.add
    (Mpl_obs.Metrics.counter m "shard.windows")
    (Array.length sh.Shard.windows);
  let (colors, cost, estats, phases), cstats =
    with_stream ~obs ~params ~rc ~ext_pool ~shared_cache
      ~graph:(fun (p : Shard.piece) -> p.Shard.graph)
    @@ fun t flush ->
    Mpl_obs.Obs.span obs "engine.batch"
      ~args:
        (rid_args params
           [ ("windows", Mpl_obs.Sink.Int (Array.length sh.Shard.windows)) ])
    @@ fun () ->
    let t0 = Mpl_util.Timer.now_ns () and c0 = !(rc.rc_caller_ns) in
    let x0 = !(rc.rc_extract_s) in
    let acc = Shard.fresh_acc sh in
    let inflight = Queue.create () in
    let done_rev = ref [] in
    let cost_conf = ref 0 and cost_st = ref 0 and cost_sc = ref 0 in
    let merge_ns = ref 0L and merge_caller = ref 0. in
    (* Forcing a cell is merge work: it reassembles a component's
       coloring and folds its cost and division stats, then drops the
       piece graph, keeping only (colors, back maps). *)
    let force_one () =
      let cell, (p : Shard.piece) = Queue.pop inflight in
      check_cancel ();
      let f0 = Mpl_util.Timer.now_ns () and fc0 = !(rc.rc_caller_ns) in
      let pc, local = Mpl_engine.Engine.force t cell in
      let c = Coloring.evaluate ~alpha:params.alpha p.Shard.graph pc in
      cost_conf := !cost_conf + c.Coloring.conflicts;
      cost_st := !cost_st + c.Coloring.stitches;
      cost_sc := !cost_sc + c.Coloring.scaled;
      add_division_stats rc.rc_stats local;
      done_rev := (pc, p.Shard.back_feature, p.Shard.back_seg) :: !done_rev;
      merge_ns := Int64.add !merge_ns (Int64.sub (Mpl_util.Timer.now_ns ()) f0);
      merge_caller := !merge_caller +. (!(rc.rc_caller_ns) -. fc0)
    in
    let push_piece (p : Shard.piece) =
      check_cancel ();
      let cell = Mpl_engine.Engine.push t p in
      Queue.add (cell, p) inflight;
      if Queue.length inflight > force_lag then force_one ()
    in
    Array.iter
      (fun w ->
        List.iter push_piece
          (Shard.scan_window ~obs ~extract_s:rc.rc_extract_s
             ?max_stitches_per_feature ~acc ~min_s ~hp layout w))
      sh.Shard.windows;
    let border = Shard.border_pieces ~obs acc ~min_s ~hp in
    Mpl_obs.Metrics.add
      (Mpl_obs.Metrics.counter m "shard.border_pieces")
      (List.length border);
    List.iter push_piece border;
    flush ();
    while not (Queue.is_empty inflight) do
      force_one ()
    done;
    let estats = Mpl_engine.Engine.finish t in
    let off, n = Shard.offsets acc in
    let colors = Array.make n (-1) in
    let m0 = Mpl_util.Timer.now_ns () in
    (* Scatter in emission (= push) order; [on_component] therefore
       streams deterministically, exactly like the unsharded engine
       path. Back maps translate to global vertex ids through the
       canonical feature-major offsets. *)
    List.iteri
      (fun i (pc, bf, bs) ->
        match on_component with
        | Some f ->
          let back =
            Array.init (Array.length bf) (fun j -> off.(bf.(j)) + bs.(j))
          in
          Array.iteri (fun j v -> colors.(v) <- pc.(j)) back;
          f i back pc
        | None ->
          Array.iteri (fun j c -> colors.(off.(bf.(j)) + bs.(j)) <- c) pc)
      (List.rev !done_rev);
    merge_ns := Int64.add !merge_ns (Int64.sub (Mpl_util.Timer.now_ns ()) m0);
    let t1 = Mpl_util.Timer.now_ns () and c1 = !(rc.rc_caller_ns) in
    let x1 = !(rc.rc_extract_s) in
    let s ns = Int64.to_float ns /. 1e9 in
    let merge_s = max 0. (s !merge_ns -. !merge_caller) in
    let division_s =
      max 0. (s (Int64.sub t1 t0) -. (c1 -. c0) -. merge_s -. (x1 -. x0))
    in
    let cost =
      {
        Coloring.conflicts = !cost_conf;
        stitches = !cost_st;
        scaled = !cost_sc;
      }
    in
    (colors, cost, estats, run_phases rc ~division_s ~merge_s)
  in
  (colors, cost, estats, cstats, phases)

let decompose_sharded ?(params = default_params) ?obs ?pool ?shared_cache
    ?on_component ?max_stitches_per_feature ~min_s algorithm layout =
  if params.post <> No_post then
    invalid_arg "decompose_sharded: post passes need the whole graph";
  if params.balance then
    invalid_arg "decompose_sharded: balance needs the whole graph";
  let obs = match obs with Some o -> o | None -> make_obs params in
  let rc = make_run_ctx ~obs ~params algorithm in
  let (colors, cost, estats, cstats, phases), elapsed_s =
    Mpl_util.Timer.time (fun () ->
        Mpl_obs.Obs.span obs "assign"
          ~args:
            (rid_args params
               [
                 ("algorithm", Mpl_obs.Sink.Str (algorithm_name algorithm));
                 ("windows", Mpl_obs.Sink.Int params.windows);
               ])
        @@ fun () ->
        sharded_assign ~obs ~params ~rc ~ext_pool:pool ~shared_cache
          ~on_component ?max_stitches_per_feature ~min_s layout)
  in
  (* The sharded path never materializes the whole graph, so the
     per-mask tallies (which want every vertex's area) are skipped —
     same reason the balance *pass* is rejected above. *)
  make_report ~obs ~params ~rc algorithm ~colors ~cost ~elapsed_s ~phases
    ~engine:(Some estats) ~cache:cstats ~balance:None ~eco:None

let pp_report ppf r =
  Format.fprintf ppf
    "%-13s cn#=%-4d st#=%-5d cost=%.1f CPU=%.3fs pieces=%d largest=%d%s%s%s"
    (algorithm_name r.algorithm) r.cost.Coloring.conflicts
    r.cost.Coloring.stitches
    (float_of_int r.cost.Coloring.scaled /. 1000.)
    r.elapsed_s r.division.Division.pieces r.division.Division.largest_piece
    (match r.engine with
    | Some e when r.params.cache ->
      Printf.sprintf " cache=%d/%d"
        (e.Mpl_engine.Engine.hits + e.Mpl_engine.Engine.reused)
        e.Mpl_engine.Engine.pieces
    | Some _ | None -> "")
    (if r.resilience.degraded > 0 then
       Printf.sprintf " degraded=%d" r.resilience.degraded
     else "")
    (if r.timed_out then " (TIMEOUT)" else "")

(* ------------------------------------------------------------------ *)
(* Incremental (ECO) re-decomposition                                 *)
(* ------------------------------------------------------------------ *)

(* One component of an ECO session: [colors] restricted to the
   component's ascending vertex list [vs], that coloring's cost on the
   extracted [piece], and the feature ids [feature_of] gives its
   vertices — vertices are feature-major, so one scan dedups them. *)
let eco_comp ~alpha ~feature_of colors (piece, vs) =
  let pc = Array.map (fun v -> colors.(v)) vs in
  let cost = Coloring.evaluate ~alpha piece pc in
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
  let comps =
    Mpl_graph.Connectivity.components (Decomp_graph.union_graph g)
  in
  let comp_of =
    eco_comp ~alpha:params.alpha
      ~feature_of:(fun v -> g.Decomp_graph.feature.(v))
      report.colors
  in
  let layout_text = Mpl_layout.Layout_io.to_string layout in
  {
    Eco.layout_text;
    layout_hash = Digest.to_hex (Digest.string layout_text);
    min_s;
    salt = params_salt ~params algorithm;
    seg_counts;
    comps = Array.map comp_of (Division.extract ~obs g comps);
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
  (* --- dirty window: base features within [halo] of any edited rect.
     The Grid_index query is a superset; the polygon distance refine
     uses the same integer predicate as graph construction, so the
     touched set is exactly the features whose incident edges (or
     stitch splits) the edit could have changed. --- *)
  let touched = Array.make nf_old false in
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
            if
              (not touched.(i))
              && Geo.Polygon.distance2 base.L.features.(i) rp <= halo2
            then touched.(i) <- true)
          (Geo.Grid_index.query idx r ~radius:halo))
      drects
  end;
  (* --- dirty vs. clean previous components --- *)
  let ncomps_old = Array.length prev.Eco.comps in
  let comp_dirty = Array.make ncomps_old false in
  Array.iteri
    (fun f t -> if t then comp_dirty.(comp_of_feature.(f)) <- true)
    touched;
  let nclean = ref 0 in
  Array.iter (fun d -> if not d then incr nclean) comp_dirty;
  let nclean = !nclean in
  (* --- dirty features of the *edited* layout, ascending: survivors of
     dirty components keep their relative order, and every added
     feature (appended by [Eco.apply]) is dirty by definition --- *)
  let dirty_mark = Array.make nf_new false in
  Array.iteri
    (fun f o ->
      match o with
      | Some j when comp_dirty.(comp_of_feature.(f)) -> dirty_mark.(j) <- true
      | _ -> ())
    new_of_old;
  let n_surv =
    Array.fold_left
      (fun a o -> match o with Some _ -> a + 1 | None -> a)
      0 new_of_old
  in
  for j = n_surv to nf_new - 1 do
    dirty_mark.(j) <- true
  done;
  let ndirty_f = ref 0 in
  Array.iter (fun d -> if d then incr ndirty_f) dirty_mark;
  let dirty_new = Array.make !ndirty_f 0 in
  let w = ref 0 in
  Array.iteri
    (fun j d ->
      if d then begin
        dirty_new.(!w) <- j;
        incr w
      end)
    dirty_mark;
  let ndirty_f = !ndirty_f in
  let m = obs.Mpl_obs.Obs.metrics in
  Mpl_obs.Metrics.add
    (Mpl_obs.Metrics.counter m "eco.reused_components")
    nclean;
  Mpl_obs.Metrics.add
    (Mpl_obs.Metrics.counter m "eco.dirty_features")
    ndirty_f;
  (* --- dirty sub-layout and its graph. Feature order is ascending
     edited-layout order, so each rebuilt component is byte-identical
     to the [subgraph] extraction a cold run on the whole edited layout
     would hand the solver (see DESIGN.md §15). --- *)
  let sub =
    L.make ~name:edited.L.name edited.L.tech
      (Array.to_list (Array.map (fun j -> edited.L.features.(j)) dirty_new))
  in
  let g_d = Decomp_graph.of_layout ~obs sub ~min_s in
  (* --- seed the component cache from the previous colorings of the
     dirty components: hits skip byte-identical re-solves —
     repeated-pattern comps and comps whose graph the edit left
     unchanged. The previous dirty sub-layout rebuilds those components
     bit-identically for the same reason [g_d] does. --- *)
  let seed_extract_s = ref 0. in
  let engine_cache = component_cache ~obs ~params shared_cache in
  Option.iter
    (fun cch ->
      let old_dirty = ref [] in
      for f = nf_old - 1 downto 0 do
        if comp_dirty.(comp_of_feature.(f)) then old_dirty := f :: !old_dirty
      done;
      let old_dirty = Array.of_list !old_dirty in
      if Array.length old_dirty > 0 then begin
        let sub_old =
          L.make ~name:base.L.name base.L.tech
            (Array.to_list (Array.map (fun f -> base.L.features.(f)) old_dirty))
        in
        let g_old = Decomp_graph.of_layout ~obs sub_old ~min_s in
        let comps_old =
          Mpl_graph.Connectivity.components (Decomp_graph.union_graph g_old)
        in
        Array.iter
          (fun ((piece : Decomp_graph.t), vs) ->
            let ci =
              comp_of_feature.(old_dirty.(g_old.Decomp_graph.feature.(vs.(0))))
            in
            let c = prev.Eco.comps.(ci) in
            if
              Array.length c.Eco.colors = piece.Decomp_graph.n
              && Coloring.is_complete c.Eco.colors
              && Coloring.check_range ~k:params.k c.Eco.colors
            then
              Option.iter
                (fun s ->
                  let st = Division.fresh_stats () in
                  st.Division.pieces <- 1;
                  st.Division.largest_piece <- piece.Decomp_graph.n;
                  Mpl_engine.Cache.store cch s (c.Eco.colors, st))
                (piece_signature ~salt piece))
          (Division.extract ~obs ~extract_s:seed_extract_s g_old comps_old)
      end)
    engine_cache;
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
  for v = 0 to g_d.Decomp_graph.n - 1 do
    let gid = dirty_new.(g_d.Decomp_graph.feature.(v)) in
    new_seg.(gid) <- new_seg.(gid) + 1
  done;
  let off = Array.make (nf_new + 1) 0 in
  for j = 0 to nf_new - 1 do
    off.(j + 1) <- off.(j) + new_seg.(j)
  done;
  let n_new = off.(nf_new) in
  (* dirty-graph vertex -> edited-layout (full-graph) vertex *)
  let vmap = Array.make g_d.Decomp_graph.n 0 in
  let run_start = ref 0 and cur_f = ref (-1) in
  for v = 0 to g_d.Decomp_graph.n - 1 do
    let fd = g_d.Decomp_graph.feature.(v) in
    if fd <> !cur_f then begin
      cur_f := fd;
      run_start := v
    end;
    vmap.(v) <- off.(dirty_new.(fd)) + (v - !run_start)
  done;
  (* --- solve only the dirty graph through the standard engine path,
     streaming dirty components remapped to edited-layout vertex ids --- *)
  let rc = make_run_ctx ~obs ~params algorithm in
  rc.rc_extract_s := !seed_extract_s;
  let on_component =
    Option.map
      (fun f i back pc -> f i (Array.map (fun v -> vmap.(v)) back) pc)
      on_component
  in
  let colors_d, estats, cstats, phases =
    engine_assign ~obs ~params ~rc ~ext_pool:pool ~shared_cache:engine_cache
      ~on_component g_d
  in
  let comps_d =
    Mpl_graph.Connectivity.components (Decomp_graph.union_graph g_d)
  in
  Mpl_obs.Metrics.add
    (Mpl_obs.Metrics.counter m "eco.dirty_components")
    (Array.length comps_d);
  (* --- assemble the full coloring: dirty vertices scattered through
     [vmap], clean components blitted verbatim --- *)
  let colors_full = Array.make n_new (-1) in
  for v = 0 to g_d.Decomp_graph.n - 1 do
    colors_full.(vmap.(v)) <- colors_d.(v)
  done;
  Array.iteri
    (fun ci (c : Eco.comp) ->
      if not comp_dirty.(ci) then begin
        let cur = ref 0 in
        Array.iter
          (fun f ->
            let j = Option.get new_of_old.(f) in
            let len = prev.Eco.seg_counts.(f) in
            Array.blit c.Eco.colors !cur colors_full off.(j) len;
            cur := !cur + len)
          c.Eco.features
      end)
    prev.Eco.comps;
  (* --- total cost: clean components contribute their recorded costs
     (no edge ever crosses a component boundary), dirty ones are
     re-evaluated on [g_d] --- *)
  let cost_d = Coloring.evaluate ~alpha:params.alpha g_d colors_d in
  let conflicts = ref cost_d.Coloring.conflicts
  and stitches = ref cost_d.Coloring.stitches
  and scaled = ref cost_d.Coloring.scaled in
  Array.iteri
    (fun ci (c : Eco.comp) ->
      if not comp_dirty.(ci) then begin
        conflicts := !conflicts + c.Eco.conflicts;
        stitches := !stitches + c.Eco.stitches;
        scaled := !scaled + c.Eco.scaled
      end)
    prev.Eco.comps;
  (* --- next session, so edits chain: clean components remapped to
     edited-layout feature ids, dirty ones captured fresh --- *)
  let clean_comps = ref [] in
  Array.iteri
    (fun ci (c : Eco.comp) ->
      if not comp_dirty.(ci) then
        clean_comps :=
          {
            c with
            Eco.features =
              Array.map (fun f -> Option.get new_of_old.(f)) c.Eco.features;
          }
          :: !clean_comps)
    prev.Eco.comps;
  let dirty_comps =
    Array.map
      (eco_comp ~alpha:params.alpha
         ~feature_of:(fun v -> dirty_new.(g_d.Decomp_graph.feature.(v)))
         colors_d)
      (Division.extract ~obs ~extract_s:rc.rc_extract_s g_d comps_d)
  in
  let comps =
    Array.append (Array.of_list (List.rev !clean_comps)) dirty_comps
  in
  Array.sort
    (fun (a : Eco.comp) (b : Eco.comp) ->
      compare a.Eco.features.(0) b.Eco.features.(0))
    comps;
  let layout_text = Mpl_layout.Layout_io.to_string edited in
  let session =
    {
      Eco.layout_text;
      layout_hash = Digest.to_hex (Digest.string layout_text);
      min_s;
      salt;
      seg_counts = new_seg;
      comps;
    }
  in
  let report =
    make_report ~obs ~params ~rc algorithm ~colors:colors_full
      ~cost:
        {
          Coloring.conflicts = !conflicts;
          stitches = !stitches;
          scaled = !scaled;
        }
      ~elapsed_s:(Mpl_util.Timer.elapsed_s t0)
      (* extraction also covers the cache seeding and session capture *)
      ~phases:{ phases with extract_s = !(rc.rc_extract_s) }
      ~engine:(Some estats) ~cache:cstats ~balance:None
      ~eco:
        (Some
           {
             dirty_components = Array.length comps_d;
             reused_components = nclean;
             dirty_features = ndirty_f;
           })
  in
  Ok (edited, report, session)

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
  else if params.post <> No_post then
    Error "redecompose: post passes need the whole graph"
  else if params.balance then
    Error "redecompose: balance pass needs the whole graph"
  else
    match Mpl_layout.Layout_io.of_string prev.Eco.layout_text with
    | exception Mpl_layout.Layout_io.Parse_error { line; msg } ->
      err "redecompose: session layout line %d: %s" line msg
    | base -> (
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
            let result =
              Mpl_obs.Obs.span obs "redecompose"
                ~args:
                  (rid_args params
                     [ ("edits", Mpl_obs.Sink.Int (List.length edits)) ])
              @@ fun () ->
              redecompose_run ~params ~obs ~pool ~shared_cache ~on_component
                ~prev ~base ~edited ~new_of_old ~comp_of_feature ~salt
                ~edits algorithm
            in
            result)
