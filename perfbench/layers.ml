(* Per-layer readings of one traced op, from the library's existing
   spans and metrics registry (in-process runs) or from the server's
   per-request Chrome trace and METRICS (served runs). *)

module Json = Mpl_obs.Json
module Metrics = Mpl_obs.Metrics

type span = { name : string; tid : int; t0 : float; t1 : float }

let of_events events =
  List.map
    (fun (e : Mpl_obs.Sink.event) ->
      let t0 = Int64.to_float e.Mpl_obs.Sink.ts_ns /. 1e9 in
      {
        name = e.Mpl_obs.Sink.name;
        tid = e.Mpl_obs.Sink.tid;
        t0;
        t1 = t0 +. (Int64.to_float e.Mpl_obs.Sink.dur_ns /. 1e9);
      })
    events

let num j key = Option.bind (Json.member key j) Json.to_float

(* Complete ("X") events of a Chrome trace; timestamps are in µs. *)
let of_chrome json =
  match Json.member "traceEvents" json with
  | Some (Json.List evs) ->
    List.filter_map
      (fun e ->
        match (Json.member "ph" e, Json.member "name" e) with
        | Some (Json.Str "X"), Some (Json.Str name) -> (
          match (num e "ts", num e "dur", num e "tid") with
          | Some ts, Some dur, Some tid ->
            Some
              {
                name;
                tid = int_of_float tid;
                t0 = ts /. 1e6;
                t1 = (ts +. dur) /. 1e6;
              }
          | _ -> None)
        | _ -> None)
      evs
  | _ -> []

(* Length of the union of the spans' intervals, thread by thread, so a
   nested span is never counted twice. *)
let covered spans =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  Hashtbl.fold
    (fun _ ss acc ->
      let ss = List.sort (fun a b -> Float.compare a.t0 b.t0) ss in
      let total, _ =
        List.fold_left
          (fun (total, reach) s ->
            if s.t1 <= reach then (total, reach)
            else (total +. s.t1 -. Float.max s.t0 reach, s.t1))
          (0., neg_infinity) ss
      in
      acc +. total)
    by_tid 0.

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* A span's time not covered by any span nested inside it on its own
   thread: the work no child span accounts for. *)
let unattributed name spans =
  List.fold_left
    (fun acc a ->
      if a.name <> name then acc
      else
        let kids =
          List.filter
            (fun s -> s != a && s.tid = a.tid && s.t0 >= a.t0 && s.t1 <= a.t1)
            spans
        in
        acc +. (a.t1 -. a.t0 -. covered kids))
    0. spans

(* Time readings, present only when the op entered the layer. *)
let span_readings spans =
  let layer metric pred =
    match List.filter (fun s -> pred s.name) spans with
    | [] -> []
    | ss -> [ (metric, covered ss) ]
  in
  layer "graph.build_s" (( = ) "graph.build")
  @ layer "assign.s" (( = ) "assign")
  @ (if List.exists (fun s -> s.name = "assign") spans then
       [ ("assign.unattributed_s", unattributed "assign" spans) ]
     else [])
  @ layer "division.s" (starts_with "division.")
  @ layer "solve.s" (starts_with "solve.")
  @ layer "eco.redecompose_s" (( = ) "redecompose")
  @ layer "shard.plan_s" (( = ) "shard.plan")

(* A registry view: counter, gauge and histogram-sum lookups, 0 when
   the name was never registered. *)
type source = {
  counter : string -> float;
  gauge : string -> float;
  hist_sum : string -> float;
}

let of_snapshot (s : Metrics.snapshot) =
  {
    counter =
      (fun n ->
        float_of_int (Option.value ~default:0 (Metrics.find_counter s n)));
    gauge = (fun n -> Option.value ~default:0. (Metrics.find_gauge s n));
    hist_sum =
      (fun n ->
        match Metrics.find_histogram s n with
        | Some h -> h.Metrics.sum
        | None -> 0.);
  }

(* The server's METRICS line, as written by [Export.metrics_json]. *)
let of_metrics_json json =
  let field group n =
    Option.bind (Json.member group json) (fun g -> Json.member n g)
  in
  let f group n =
    Option.value ~default:0. (Option.bind (field group n) Json.to_float)
  in
  {
    counter = f "counters";
    gauge = f "gauges";
    hist_sum =
      (fun n ->
        Option.value ~default:0.
          (Option.bind (field "histograms" n) (fun h -> num h "sum")));
  }

(* Counters and histograms accumulated between two reads of one
   server-lifetime registry; gauges as of the later read. *)
let delta a b =
  {
    counter = (fun n -> b.counter n -. a.counter n);
    gauge = b.gauge;
    hist_sum = (fun n -> b.hist_sum n -. a.hist_sum n);
  }

let count_readings src =
  [
    ("graph.vertices", src.counter "graph.nodes");
    ("graph.conflict_edges", src.counter "graph.conflict_edges");
    ("graph.stitch_edges", src.counter "graph.stitch_edges");
    ("division.gh_cuts", src.counter "division.gh_cuts");
    ("division.maxflow_calls", src.counter "division.maxflow_calls");
    ("division.pieces", src.counter "division.pieces");
    ("solve.pieces", src.counter "solver.solves");
    ("sdp.iterations", src.hist_sum "solver.sdp_iterations");
    ("bnb.nodes", src.hist_sum "solver.bnb_nodes");
    ("cache.probes", src.counter "cache.probes");
    (* A component is served from the cache either by in-batch reuse or
       by a hit in the (possibly cross-request) table. *)
    ("cache.hits", src.counter "cache.hits" +. src.counter "engine.batch_reused");
    ("cache.bytes", src.gauge "cache.bytes");
    ("eco.dirty_components", src.counter "eco.dirty_components");
    ("eco.reused_components", src.counter "eco.reused_components");
    ("eco.dirty_features", src.counter "eco.dirty_features");
    ("shard.windows", src.counter "shard.windows");
    ("shard.border_components", src.counter "shard.border_pieces");
  ]

(* Every per-layer metric the benchmark reports, with its unit and how
   per-op readings combine: times are the median and counts the mean
   over the ops that report them, ratios come from the counts' totals. *)
type combine = Median | Mean | Ratio of string * string list

let all =
  [
    ("env.cpu_probe_s", "s", Median);
    ("trace.overhead_ratio", "ratio", Median);
    ("layout.parse_s", "s", Median);
    ("graph.build_s", "s", Median);
    ("graph.vertices", "count", Mean);
    ("graph.conflict_edges", "count", Mean);
    ("graph.stitch_edges", "count", Mean);
    ("assign.s", "s", Median);
    ("assign.unattributed_s", "s", Median);
    ("division.s", "s", Median);
    ("division.gh_cuts", "count", Mean);
    ("division.maxflow_calls", "count", Mean);
    ("division.pieces", "count", Mean);
    ("solve.s", "s", Median);
    ("solve.pieces", "count", Mean);
    ("sdp.iterations", "count", Mean);
    ("bnb.nodes", "count", Mean);
    ("cache.probes", "count", Mean);
    ("cache.hits", "count", Mean);
    ("cache.hit_ratio", "ratio", Ratio ("cache.hits", [ "cache.probes" ]));
    ("cache.bytes", "bytes", Mean);
    ("eco.apply_s", "s", Median);
    ("eco.redecompose_s", "s", Median);
    ("eco.dirty_components", "count", Mean);
    ("eco.reused_components", "count", Mean);
    ("eco.dirty_features", "count", Mean);
    ( "eco.reuse_ratio",
      "ratio",
      Ratio
        ("eco.reused_components", [ "eco.reused_components"; "eco.dirty_components" ])
    );
    ("shard.plan_s", "s", Median);
    ("shard.windows", "count", Mean);
    ("shard.border_components", "count", Mean);
    ("server.ack_s", "s", Median);
    ("server.first_piece_s", "s", Median);
    ("server.e2e_s", "s", Median);
    ("proto.bytes_in", "bytes", Mean);
    ("proto.bytes_out", "bytes", Mean);
    ("server.busy", "ratio", Ratio ("server.cpu_s", [ "server.wall_s" ]));
    ("gc.minor_words", "words", Mean);
    ("gc.major_words", "words", Mean);
    ("gc.major_collections", "count", Mean);
  ]

(* Combine the per-op readings of a traced run; [extra] supplies the
   run-level readings (probe, tracing overhead). Layers the workload
   never entered read 0. *)
let summarize ~extra (ops : (string * float) list list) =
  let values name =
    List.concat_map
      (fun r -> List.filter_map (fun (k, v) -> if k = name then Some v else None) r)
      ops
  in
  let total name = List.fold_left ( +. ) 0. (values name) in
  List.map
    (fun (name, unit, combine) ->
      let v =
        match List.assoc_opt name extra with
        | Some v -> v
        | None -> (
          match combine with
          | Median -> (
            match values name with
            | [] -> 0.
            | vs -> Stats.median (Array.of_list vs))
          | Mean -> Stats.mean (Array.of_list (values name))
          | Ratio (num, dens) ->
            let d = List.fold_left (fun acc n -> acc +. total n) 0. dens in
            if d > 0. then total num /. d else 0.)
      in
      (name, unit, v))
    all
