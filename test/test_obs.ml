(* mpl_obs: JSON codec, metrics registry, span sink, exporters, and the
   end-to-end guarantee that tracing never perturbs decomposition
   results. *)

module Obs = Mpl_obs.Obs
module Sink = Mpl_obs.Sink
module Metrics = Mpl_obs.Metrics
module Json = Mpl_obs.Json
module Export = Mpl_obs.Export
module D = Mpl.Decomposer
module C = Mpl.Coloring

(* ------------------------------------------------------------------ *)
(* Json *)

let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S: %s" s e

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Bool true ]);
        ("b", Json.Null);
        ("c", Json.Str "x\"y\\z\n");
      ]
  in
  let s = Json.to_string v in
  Alcotest.(check bool) "round-trip" true (parse_ok s = v)

let test_json_parse () =
  (match parse_ok "{\"k\": [1, -2.5e1, \"\\u00e9\", true, null]}" with
  | Json.Obj [ ("k", Json.List [ a; b; c; d; e ]) ] ->
    Alcotest.(check bool) "int" true (a = Json.Int 1);
    Alcotest.(check (float 1e-9)) "float" (-25.) (Option.get (Json.to_float b));
    Alcotest.(check bool) "utf8 escape" true (c = Json.Str "\xc3\xa9");
    Alcotest.(check bool) "bool" true (d = Json.Bool true);
    Alcotest.(check bool) "null" true (e = Json.Null)
  | _ -> Alcotest.fail "unexpected shape");
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ "{"; "[1,]"; "nul"; "\"unterminated"; "{\"a\" 1}"; "[1] trailing" ]

let test_json_member () =
  let v = parse_ok "{\"x\": {\"y\": 3}}" in
  match Json.member "x" v with
  | Some inner ->
    Alcotest.(check bool) "nested" true (Json.member "y" inner = Some (Json.Int 3));
    Alcotest.(check bool) "missing" true (Json.member "z" inner = None)
  | None -> Alcotest.fail "member x"

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.incr c;
  Metrics.add c 4;
  let g = Metrics.gauge m "g" in
  Metrics.set g 2.;
  Metrics.max_gauge g 7.;
  Metrics.max_gauge g 3.;
  let h = Metrics.histogram m "h" in
  List.iter (Metrics.observe h) [ 0.5; 1.; 3.; 1024. ];
  let s = Metrics.snapshot m in
  Alcotest.(check (option int)) "counter" (Some 5) (Metrics.find_counter s "c");
  Alcotest.(check (list (pair string (float 1e-9)))) "gauge" [ ("g", 7.) ]
    s.Metrics.gauges;
  match s.Metrics.histograms with
  | [ ("h", hs) ] ->
    Alcotest.(check int) "count" 4 hs.Metrics.count;
    Alcotest.(check (float 1e-9)) "sum" 1028.5 hs.Metrics.sum;
    Alcotest.(check (float 1e-9)) "min" 0.5 hs.Metrics.min_v;
    Alcotest.(check (float 1e-9)) "max" 1024. hs.Metrics.max_v;
    (* 0.5 -> [0,1); 1 -> [1,2); 3 -> [2,4); 1024 -> [1024,2048) *)
    Alcotest.(check bool) "buckets" true
      (hs.Metrics.buckets
      = [ (0., 1., 1); (1., 2., 1); (2., 4., 1); (1024., 2048., 1) ])
  | _ -> Alcotest.fail "expected one histogram"

let test_metrics_null () =
  let m = Metrics.null in
  Alcotest.(check bool) "disabled" false (Metrics.enabled m);
  Metrics.incr (Metrics.counter m "c");
  Metrics.observe (Metrics.histogram m "h") 1.;
  Metrics.set (Metrics.gauge m "g") 1.;
  let s = Metrics.snapshot m in
  Alcotest.(check bool) "empty snapshot" true
    (s.Metrics.counters = [] && s.Metrics.gauges = []
   && s.Metrics.histograms = [])

(* ------------------------------------------------------------------ *)
(* Sink *)

let test_sink_nesting () =
  let sink = Sink.create () in
  let obs = Obs.make ~sink () in
  let r =
    Obs.span obs "outer" (fun () ->
        Obs.span obs "inner.a" (fun () -> ()) ;
        Obs.span obs "inner.b" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "value" 42 r;
  let events = Sink.events sink in
  Alcotest.(check (list string)) "order: parents before children"
    [ "outer"; "inner.a"; "inner.b" ]
    (List.map (fun (e : Sink.event) -> e.Sink.name) events);
  let outer = List.hd events in
  List.iter
    (fun (e : Sink.event) ->
      Alcotest.(check bool) (e.Sink.name ^ " inside outer") true
        (e.Sink.ts_ns >= outer.Sink.ts_ns
        && Int64.add e.Sink.ts_ns e.Sink.dur_ns
           <= Int64.add outer.Sink.ts_ns outer.Sink.dur_ns))
    (List.tl events);
  Alcotest.(check string) "default category" "inner"
    (List.nth events 1).Sink.cat

let test_sink_null () =
  let calls = ref 0 in
  let r =
    Sink.span Sink.null "x" (fun () ->
        incr calls;
        7)
  in
  Alcotest.(check int) "runs thunk" 1 !calls;
  Alcotest.(check int) "value" 7 r;
  Alcotest.(check int) "no events" 0 (List.length (Sink.events Sink.null))

let test_sink_exception () =
  let sink = Sink.create () in
  (try Sink.span sink "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "span recorded on raise" 1
    (List.length (Sink.events sink))

(* ------------------------------------------------------------------ *)
(* Export *)

let test_chrome_export () =
  let sink = Sink.create () in
  let obs = Obs.make ~sink () in
  Obs.span obs "phase.a" ~args:[ ("n", Sink.Int 3) ] (fun () ->
      Obs.span obs "phase.b" (fun () -> ()));
  let s = Export.chrome_json (Sink.events sink) in
  (match Export.validate_chrome ~required:[ "phase.a"; "phase.b" ] s with
  | Ok n -> Alcotest.(check int) "span count" 2 n
  | Error e -> Alcotest.failf "invalid chrome trace: %s" e);
  (match Export.validate_chrome ~required:[ "phase.c" ] s with
  | Ok _ -> Alcotest.fail "missing required span not detected"
  | Error _ -> ());
  (match Export.validate_chrome "{\"traceEvents\": 3}" with
  | Ok _ -> Alcotest.fail "accepted non-list traceEvents"
  | Error _ -> ());
  (* A tag that repeats a span argument's key is stamped twice. *)
  let sink = Sink.create ~tags:[ ("rid", Sink.Str "3") ] () in
  Obs.span (Obs.make ~sink ()) "assign" ~args:[ ("rid", Sink.Str "3") ] ignore;
  match Export.validate_chrome (Export.chrome_json (Sink.events sink)) with
  | Ok _ -> Alcotest.fail "accepted an event whose args repeat a key"
  | Error e ->
    Alcotest.(check string) "error" "event \"assign\" repeats arg \"rid\"" e

let test_metrics_export () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "a.count") 3;
  Metrics.observe (Metrics.histogram m "a.hist") 5.;
  let j = Export.metrics_json (Metrics.snapshot m) in
  (* The export is valid JSON and survives a parse round-trip. *)
  let s = Json.to_string j in
  match Json.parse s with
  | Error e -> Alcotest.failf "metrics json: %s" e
  | Ok v ->
    let counters = Option.get (Json.member "counters" v) in
    Alcotest.(check bool) "counter value" true
      (Json.member "a.count" counters = Some (Json.Int 3))

let test_metrics_percentiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  for v = 1 to 1000 do
    Metrics.observe h (float_of_int v)
  done;
  let s = Metrics.snapshot m in
  let hs =
    match Metrics.find_histogram s "lat" with
    | Some hs -> hs
    | None -> Alcotest.fail "histogram missing from snapshot"
  in
  (match Metrics.percentiles hs [ 0.5; 0.9; 0.99 ] with
  | [ p50; p90; p99 ] ->
    (* Log2 buckets bound any estimate within 2x of the true value. *)
    let within true_v est =
      est >= true_v /. 2. && est <= Float.min (true_v *. 2.) hs.Metrics.max_v
    in
    Alcotest.(check bool) "p50 within 2x of 500" true (within 500. p50);
    Alcotest.(check bool) "p90 within 2x of 900" true (within 900. p90);
    Alcotest.(check bool) "p99 within 2x of 990" true (within 990. p99);
    Alcotest.(check bool) "monotone" true (p50 <= p90 && p90 <= p99)
  | _ -> Alcotest.fail "percentiles arity");
  (* Edge quantiles clamp to the observed extremes. *)
  Alcotest.(check (float 1e-9)) "q=0 is min" 1. (Metrics.percentile hs 0.);
  Alcotest.(check (float 1e-9)) "q=1 is max" 1000. (Metrics.percentile hs 1.);
  (* A constant distribution is exact at every quantile: min = max
     clamps the in-bucket interpolation. *)
  let m2 = Metrics.create () in
  let h2 = Metrics.histogram m2 "const" in
  for _ = 1 to 100 do
    Metrics.observe h2 42.
  done;
  let hs2 =
    Option.get (Metrics.find_histogram (Metrics.snapshot m2) "const")
  in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "constant q=%.2f" q)
        42. (Metrics.percentile hs2 q))
    [ 0.01; 0.5; 0.99 ];
  (* Empty histogram: everything is 0. *)
  let hs3 = Option.get (Metrics.find_histogram (Metrics.snapshot m2) "const") in
  ignore hs3;
  let m3 = Metrics.create () in
  let _ = Metrics.histogram m3 "empty" in
  let hs4 = Option.get (Metrics.find_histogram (Metrics.snapshot m3) "empty") in
  Alcotest.(check (float 1e-9)) "empty" 0. (Metrics.percentile hs4 0.5)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition *)

let test_prometheus_roundtrip () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "server.served") 12;
  Metrics.set (Metrics.gauge m "cache.bytes") 4096.;
  let h = Metrics.histogram m "server.e2e_ns" in
  List.iter (Metrics.observe h) [ 0.25; 3.; 3.; 900.; 1.5e6 ];
  let text = Export.prometheus (Metrics.snapshot m) in
  (match Export.validate_prometheus text with
  | Ok n -> Alcotest.(check bool) "sample count" true (n >= 7)
  | Error e -> Alcotest.failf "own exposition rejected: %s" e);
  Alcotest.(check bool) "namespaced, sanitized name" true
    (let rec contains i =
       i + 16 <= String.length text
       && (String.sub text i 16 = "mpl_server_served" || contains (i + 1))
     in
     contains 0
     ||
     let rec c2 i =
       i + 17 <= String.length text
       && (String.sub text i 17 = "mpl_server_served" || c2 (i + 1))
     in
     c2 0)

let test_prometheus_rejects () =
  List.iter
    (fun (what, text) ->
      match Export.validate_prometheus text with
      | Ok _ -> Alcotest.failf "accepted %s" what
      | Error _ -> ())
    [
      ("bad metric name", "# TYPE 1bad counter\n1bad 0\n");
      ("bad sample value", "# TYPE a counter\na zzz\n");
      ("duplicate TYPE", "# TYPE a counter\n# TYPE a counter\na 1\n");
      ("unknown type", "# TYPE a sparkline\na 1\n");
      ( "non-cumulative histogram",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
         h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n" );
      ( "missing +Inf bucket",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 5\nh_count 5\n" );
      ( "count disagrees with +Inf",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 5\n\
         h_bucket{le=\"+Inf\"} 5\nh_sum 5\nh_count 7\n" );
      ( "non-monotone le",
        "# TYPE h histogram\nh_bucket{le=\"5\"} 1\nh_bucket{le=\"2\"} 2\n\
         h_bucket{le=\"+Inf\"} 3\nh_sum 5\nh_count 3\n" );
    ];
  (* And a known-good handwritten document parses. *)
  match
    Export.validate_prometheus
      "# TYPE up gauge\nup 1\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\n\
       h_bucket{le=\"+Inf\"} 4\nh_sum 6.5\nh_count 4\n"
  with
  | Ok n -> Alcotest.(check int) "handwritten samples" 5 n
  | Error e -> Alcotest.failf "rejected good doc: %s" e

(* ------------------------------------------------------------------ *)
(* Access-log rotation *)

let test_logfile_rotation () =
  let path = Filename.temp_file "mpld-log" ".jsonl" in
  let rotated = path ^ ".1" in
  let cleanup () =
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; rotated ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      let t = Mpl_obs.Logfile.open_ ~max_bytes:256 path in
      let line = String.make 63 'x' in
      for _ = 1 to 20 do
        Mpl_obs.Logfile.write t line
      done;
      Mpl_obs.Logfile.close t;
      Alcotest.(check bool) "rotated at least once" true
        (Mpl_obs.Logfile.rotations t >= 1);
      Alcotest.(check bool) "rotated file exists" true (Sys.file_exists rotated);
      (* Disk footprint stays bounded by ~2x max_bytes. *)
      let size p = (Unix.stat p).Unix.st_size in
      Alcotest.(check bool) "live file within budget" true (size path <= 256);
      Alcotest.(check bool) "rotated file within budget" true
        (size rotated <= 256);
      (* Every surviving line is intact (no torn writes across rotation). *)
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try
            while true do
              Alcotest.(check string) "line intact" line (input_line ic)
            done
          with End_of_file -> ()))

(* ------------------------------------------------------------------ *)
(* Sink ambient tags (request-scoped attribution) *)

let test_sink_tags () =
  let sink = Sink.create ~tags:[ ("rid", Sink.Str "7"); ("k", Sink.Int 4) ] () in
  let obs = Obs.make ~sink () in
  Obs.span obs "outer" (fun () ->
      Obs.span obs "inner.x" ~args:[ ("n", Sink.Int 3) ] (fun () -> ()));
  let events = Sink.events sink in
  Alcotest.(check int) "both spans" 2 (List.length events);
  List.iter
    (fun (e : Sink.event) ->
      Alcotest.(check bool) (e.Sink.name ^ " tagged rid") true
        (List.mem ("rid", Sink.Str "7") e.Sink.args);
      Alcotest.(check bool) (e.Sink.name ^ " tagged k") true
        (List.mem ("k", Sink.Int 4) e.Sink.args))
    events;
  (* Explicit span args survive alongside the ambient tags. *)
  let inner =
    List.find (fun (e : Sink.event) -> e.Sink.name = "inner.x") events
  in
  Alcotest.(check bool) "own args kept" true
    (List.mem ("n", Sink.Int 3) inner.Sink.args)

(* ------------------------------------------------------------------ *)
(* Monotonic timer (satellite: Timer now reads CLOCK_MONOTONIC) *)

let test_timer_monotonic () =
  let a = Mpl_util.Timer.now_ns () in
  let b = Mpl_util.Timer.now_ns () in
  Alcotest.(check bool) "non-decreasing" true (Int64.compare a b <= 0);
  let t = Mpl_util.Timer.start () in
  ignore (Sys.opaque_identity (Array.init 1000 (fun i -> i * i)));
  Alcotest.(check bool) "elapsed >= 0" true (Mpl_util.Timer.elapsed_s t >= 0.)

(* ------------------------------------------------------------------ *)
(* End-to-end: tracing never perturbs results; traces are well-formed *)

let layout_gen =
  QCheck.Gen.(
    int_range 1 2 >>= fun rows ->
    int_range 2 4 >>= fun cells ->
    int_range 0 1 >>= fun five ->
    int_range 0 2 >>= fun gadgets ->
    int_range 0 10_000 >|= fun seed ->
    {
      Mpl_layout.Benchgen.name = "qcheck-obs";
      seed;
      rows;
      cells_per_row = cells;
      density = 0.45;
      wire_fraction = 0.4;
      sparse_gap_prob = 0.8;
      native_five = five;
      native_six = 0;
      hard_blocks = 0;
      stitch_gadgets = gadgets;
      penta_six = 0;
    })

let layout_print spec =
  Printf.sprintf "rows=%d cells=%d five=%d gadgets=%d seed=%d"
    spec.Mpl_layout.Benchgen.rows spec.Mpl_layout.Benchgen.cells_per_row
    spec.Mpl_layout.Benchgen.native_five
    spec.Mpl_layout.Benchgen.stitch_gadgets spec.Mpl_layout.Benchgen.seed

let layout_arb = QCheck.make ~print:layout_print layout_gen

(* Spans on one domain must nest like a call stack: sorted by start
   time (ties: longer first), every span either starts after the top of
   the stack ends, or lies entirely within it. *)
let well_nested events =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (e : Sink.event) ->
      Hashtbl.replace by_tid e.Sink.tid
        (e :: (Option.value ~default:[] (Hashtbl.find_opt by_tid e.Sink.tid))))
    events;
  Hashtbl.fold
    (fun _tid evs acc ->
      acc
      &&
      let evs =
        List.sort
          (fun (a : Sink.event) (b : Sink.event) ->
            let c = Int64.compare a.Sink.ts_ns b.Sink.ts_ns in
            if c <> 0 then c else Int64.compare b.Sink.dur_ns a.Sink.dur_ns)
          (List.rev evs)
      in
      let fits (e : Sink.event) (top : Sink.event) =
        e.Sink.ts_ns >= top.Sink.ts_ns
        && Int64.add e.Sink.ts_ns e.Sink.dur_ns
           <= Int64.add top.Sink.ts_ns top.Sink.dur_ns
      in
      let rec go stack = function
        | [] -> true
        | (e : Sink.event) :: rest ->
          let stack =
            (* Pop finished spans. *)
            let rec pop = function
              | top :: below
                when Int64.add top.Sink.ts_ns top.Sink.dur_ns <= e.Sink.ts_ns
                     && not (fits e top) ->
                pop below
              | s -> s
            in
            pop stack
          in
          (match stack with
          | [] -> go [ e ] rest
          | top :: _ -> fits e top && go (e :: stack) rest)
      in
      go [] evs)
    by_tid true

let prop_trace_is_pure_observation =
  QCheck.Test.make ~count:12
    ~name:"tracing: identical results, valid well-nested Chrome trace"
    layout_arb (fun spec ->
      let layout = Mpl_layout.Benchgen.generate spec in
      List.for_all
        (fun algo ->
          let run ~jobs ~trace =
            let params =
              {
                D.default_params with
                D.jobs;
                cache = jobs > 1;
                solver_budget_s = 0.;
                trace;
                metrics = trace <> None;
              }
            in
            D.decompose ~params ~min_s:80 algo layout
          in
          let _, reference = run ~jobs:1 ~trace:None in
          List.for_all
            (fun jobs ->
              let sink = Sink.create () in
              let g, r = run ~jobs ~trace:(Some sink) in
              let events = Sink.events sink in
              let chrome = Export.chrome_json events in
              let required =
                [
                  "assign";
                  "graph.build";
                  "graph.stitch_split";
                  "graph.neighbor_search";
                  "division.components";
                  "engine.batch";
                ]
              in
              let valid =
                match Export.validate_chrome ~required chrome with
                | Ok _ -> true
                | Error e ->
                  QCheck.Test.fail_reportf "invalid trace (jobs=%d): %s" jobs e
              in
              valid && well_nested events
              && r.D.colors = reference.D.colors
              && r.D.cost = reference.D.cost
              && C.is_complete r.D.colors
              && C.evaluate g r.D.colors = r.D.cost
              (* metrics were collected and cover the whole graph *)
              &&
              match r.D.metrics with
              | None -> QCheck.Test.fail_report "metrics snapshot missing"
              | Some snap ->
                Metrics.find_counter snap "graph.nodes"
                = Some g.Mpl.Decomp_graph.n)
            [ 1; 2; 4 ])
        [ D.Linear; D.Sdp_backtrack ])

let suite =
  [
    Alcotest.test_case "json: round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: parse" `Quick test_json_parse;
    Alcotest.test_case "json: member" `Quick test_json_member;
    Alcotest.test_case "metrics: basics" `Quick test_metrics_basics;
    Alcotest.test_case "metrics: null registry" `Quick test_metrics_null;
    Alcotest.test_case "metrics: percentiles" `Quick test_metrics_percentiles;
    Alcotest.test_case "export: prometheus round trip" `Quick
      test_prometheus_roundtrip;
    Alcotest.test_case "export: prometheus validator rejects" `Quick
      test_prometheus_rejects;
    Alcotest.test_case "logfile: rotation" `Quick test_logfile_rotation;
    Alcotest.test_case "sink: ambient tags" `Quick test_sink_tags;
    Alcotest.test_case "sink: nesting" `Quick test_sink_nesting;
    Alcotest.test_case "sink: null" `Quick test_sink_null;
    Alcotest.test_case "sink: exception safety" `Quick test_sink_exception;
    Alcotest.test_case "export: chrome trace" `Quick test_chrome_export;
    Alcotest.test_case "export: metrics json" `Quick test_metrics_export;
    Alcotest.test_case "timer: monotonic" `Quick test_timer_monotonic;
    QCheck_alcotest.to_alcotest prop_trace_is_pure_observation;
  ]
