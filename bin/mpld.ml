(* mpld — multiple-patterning layout decomposer CLI.

   Subcommands:
     gen         generate a synthetic benchmark layout file
     decompose   decompose a layout file (or named benchmark) and report
     stats       print decomposition-graph and division statistics
     trace-check validate a Chrome trace emitted by --trace *)

open Cmdliner

let algorithm_conv =
  let parse s =
    match Mpl_server.Proto.algorithm_of_name s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  let print ppf a =
    Format.pp_print_string ppf (Mpl_server.Proto.name_of_algorithm a)
  in
  Arg.conv (parse, print)

(* The whole of a file. A file that cannot be opened or read raises
   [Sys_error], which the top-level handler turns into one [error:]
   line and exit 2. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_layout source =
  if Sys.file_exists source then begin
    (* Bad input is a user error: report file:line and exit 2, never a
       backtrace. *)
    try Mpl_layout.Layout_io.load source with
    | Mpl_layout.Layout_io.Parse_error { line; msg } ->
      Printf.eprintf "error: %s:%d: %s\n" source line msg;
      exit 2
  end
  else
    try Mpl_layout.Benchgen.circuit source
    with Not_found ->
      Printf.eprintf
        "error: %s is neither a file nor a known benchmark circuit\n" source;
      exit 2

let circuit_arg =
  let doc =
    "Layout file, or a benchmark circuit name (C432 .. S15850) generated \
     on the fly."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"LAYOUT" ~doc)

let k_arg =
  let doc = "Number of masks (colors); 4 = quadruple patterning." in
  Arg.(value & opt int 4 & info [ "k" ] ~docv:"K" ~doc)

let min_s_arg =
  let doc =
    "Minimum coloring distance in nm. Default: the paper's setting for \
     the chosen K (80 for K=4, 110 for K=5)."
  in
  Arg.(value & opt (some int) None & info [ "min-s" ] ~docv:"NM" ~doc)

let algo_arg =
  let doc = "Color assignment algorithm: ilp, exact, sdp-backtrack, sdp-greedy, linear." in
  Arg.(
    value
    & opt algorithm_conv Mpl.Decomposer.Linear
    & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc)

let budget_arg =
  let doc = "Wall-clock budget in seconds for exact algorithms." in
  Arg.(value & opt float 60. & info [ "budget" ] ~docv:"S" ~doc)

let jobs_arg =
  let doc =
    "Number of concurrent piece solvers (domains). 1 = sequential."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let no_cache_arg =
  let doc =
    "Disable the piece cache that deduplicates repeated (byte-identical) \
     components."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let engine_params base ~jobs ~no_cache =
  { base with Mpl.Decomposer.jobs; cache = not no_cache }

let fault_conv =
  let parse s =
    match Mpl_engine.Fault.parse s with
    | Ok spec -> Ok spec
    | Error msg -> Error (`Msg msg)
  in
  let print ppf sp =
    Format.pp_print_string ppf (Mpl_engine.Fault.spec_to_string sp)
  in
  Arg.conv (parse, print)

let inject_arg =
  let doc =
    "Inject one deterministic fault: \
     $(docv) = SITE[:seed=N][:shots=N] with SITE one of solver_raise, \
     worker_delay, cache_corrupt, budget_trip (pipeline sites), or \
     conn_drop, write_stall, torn_frame (network sites, honoured by \
     $(b,mpld serve) on its connection I/O; serve also delays its \
     shared pool's tasks for worker_delay). A pipeline-site run must \
     still produce a legal coloring; degradations are reported."
  in
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "inject" ] ~docv:"FAULT" ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace_event JSON profile of the run to $(docv) \
     (open in chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Collect run metrics and print the registry to stderr." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let verbose_arg =
  let doc = "Print per-phase timing summaries to stderr." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let colors_arg =
  let doc =
    "Write the final coloring to $(docv), one color per line in vertex \
     order (diffable against $(b,mpld client --colors))."
  in
  Arg.(value & opt (some string) None & info [ "colors" ] ~docv:"FILE" ~doc)

let windows_arg =
  let doc =
    "Shard the layout into $(docv) geometric window strips with halo \
     overlaps and decompose window by window, bounding peak memory to \
     the largest window. Output is bit-identical to an unsharded run. \
     1 (the default) decomposes whole-layout."
  in
  Arg.(value & opt int 1 & info [ "windows" ] ~docv:"N" ~doc)

let max_heap_arg =
  let doc =
    "Abort with exit code 7 if the OCaml major heap exceeds $(docv) \
     megabytes (checked at every major collection). Use with --windows \
     to enforce the sharded memory bound."
  in
  Arg.(value & opt (some int) None & info [ "max-heap-mb" ] ~docv:"MB" ~doc)

(* Heap-budget enforcement for --max-heap-mb: a Gc alarm fires at the
   end of every major collection; breaching the budget is a hard,
   deliberate failure (exit 7) so CI can assert the sharded path really
   stays within its window-bounded footprint. OCAMLRUNPARAM has no true
   heap cap, hence this alarm. *)
let arm_heap_budget = function
  | None -> ()
  | Some mb ->
    let budget_words = mb * 1024 * 1024 / (Sys.word_size / 8) in
    ignore
      (Gc.create_alarm (fun () ->
           let hw = (Gc.quick_stat ()).Gc.heap_words in
           if hw > budget_words then begin
             Printf.eprintf
               "error: heap budget exceeded: %d MB in use, budget %d MB\n%!"
               (hw * (Sys.word_size / 8) / 1024 / 1024)
               mb;
             exit 7
           end))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1024. /. 1024.

let write_colors path colors =
  let oc = open_out path in
  Array.iter (fun c -> Printf.fprintf oc "%d\n" c) colors;
  close_out oc

let resolve_min_s ~k ~min_s =
  Option.value min_s
    ~default:(Mpl_layout.Layout.min_s_for ~k Mpl_layout.Layout.default_tech)

let session_out_arg =
  let doc =
    "Write an ECO session snapshot of this decomposition to $(docv) for a \
     later $(b,mpld redecompose). Incompatible with --windows (the \
     snapshot needs the whole graph)."
  in
  Arg.(value & opt (some string) None & info [ "session" ] ~docv:"FILE" ~doc)

let decompose_cmd =
  let run source k min_s algo budget jobs no_cache inject trace metrics
      verbose colors_out windows max_heap_mb session_out =
    arm_heap_budget max_heap_mb;
    let layout = load_layout source in
    let min_s = resolve_min_s ~k ~min_s in
    let sharded = windows > 1 in
    if sharded && session_out <> None then begin
      Printf.eprintf
        "error: --session is incompatible with --windows (the snapshot \
         needs the whole graph)\n";
      exit 2
    end;
    (* -v needs span data even without a trace file. *)
    let sink =
      if trace <> None || verbose then Some (Mpl_obs.Sink.create ()) else None
    in
    let params =
      engine_params ~jobs ~no_cache
        {
          Mpl.Decomposer.default_params with
          k;
          solver_budget_s = budget;
          trace = sink;
          metrics;
          fault = inject;
        }
    in
    Format.printf "%a@." Mpl_layout.Layout.pp_summary layout;
    let report =
      if sharded then begin
        let report =
          Mpl.Decomposer.decompose_sharded ~params ~windows ~min_s algo layout
        in
        Format.printf
          "sharded: windows=%d vertices=%d peak_heap=%.1fMB (min_s=%d, k=%d)@."
          windows (Array.length report.Mpl.Decomposer.colors)
          (peak_heap_mb ()) min_s k;
        report
      end
      else begin
        let g, report = Mpl.Decomposer.decompose ~params ~min_s algo layout in
        Format.printf "graph: %a (min_s=%d, k=%d)@." Mpl.Decomp_graph.pp g
          min_s k;
        (match session_out with
        | Some path ->
          Mpl.Eco.save
            (Mpl.Decomposer.snapshot ~params ~min_s algo g layout report)
            path;
          Format.eprintf "session: wrote %s@." path
        | None -> ());
        report
      end
    in
    Format.printf "%a@." Mpl.Decomposer.pp_report report;
    let res = report.Mpl.Decomposer.resilience in
    if inject <> None || res.Mpl.Decomposer.degraded > 0 then
      Format.printf
        "resilience: degraded=%d piece_failures=%d fallbacks=%d fired=%b@."
        res.Mpl.Decomposer.degraded res.Mpl.Decomposer.piece_failures
        res.Mpl.Decomposer.fallback_attempts res.Mpl.Decomposer.fault_fired;
    (match colors_out with
    | Some path ->
      write_colors path report.Mpl.Decomposer.colors;
      Format.eprintf "colors: wrote %d entries to %s@."
        (Array.length report.Mpl.Decomposer.colors)
        path
    | None -> ());
    (match sink with
    | None -> ()
    | Some sink ->
      let events = Mpl_obs.Sink.events sink in
      if verbose then
        Format.eprintf "-- phases --@.%a" Mpl_obs.Export.pp_phases events;
      match trace with
      | None -> ()
      | Some file ->
        Mpl_obs.Export.write_chrome ~process_name:("mpld " ^ source) file
          events;
        Format.eprintf "trace: wrote %d spans to %s@." (List.length events)
          file);
    match report.Mpl.Decomposer.metrics with
    | Some snap when metrics ->
      Format.eprintf "-- metrics --@.%a" Mpl_obs.Export.pp_metrics snap
    | Some _ | None -> ()
  in
  let term =
    Term.(
      const run $ circuit_arg $ k_arg $ min_s_arg $ algo_arg $ budget_arg
      $ jobs_arg $ no_cache_arg $ inject_arg $ trace_arg $ metrics_arg
      $ verbose_arg $ colors_arg $ windows_arg $ max_heap_arg
      $ session_out_arg)
  in
  Cmd.v (Cmd.info "decompose" ~doc:"Decompose a layout and report cost") term

let redecompose_cmd =
  let session_pos_arg =
    let doc = "ECO session file written by $(b,mpld decompose --session)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SESSION" ~doc)
  in
  let edits_pos_arg =
    let doc =
      "Edit-script file (ADD/REMOVE/MOVE lines, as written by \
       $(b,mpld gen edits))."
    in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"EDITS" ~doc)
  in
  let save_layout_arg =
    let doc = "Write the edited layout to $(docv) (Layout_io format)." in
    Arg.(
      value & opt (some string) None & info [ "save-layout" ] ~docv:"FILE" ~doc)
  in
  let run session_file edits_file k algo jobs no_cache metrics verbose
      colors_out session_out save_layout =
    let prev =
      try Mpl.Eco.load session_file with
      | Mpl.Eco.Bad_file msg ->
        Printf.eprintf "error: %s: %s\n" session_file msg;
        exit 2
    in
    let edits =
      match Mpl.Eco.parse_edits (read_file edits_file) with
      | Ok e -> e
      | Error msg ->
        Printf.eprintf "error: %s: %s\n" edits_file msg;
        exit 2
    in
    let sink = if verbose then Some (Mpl_obs.Sink.create ()) else None in
    let params =
      engine_params ~jobs ~no_cache
        { Mpl.Decomposer.default_params with k; metrics; trace = sink }
    in
    match Mpl.Decomposer.redecompose ~params ~prev ~edits algo with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
    | Ok (edited, report, next) ->
      Format.printf "%a@." Mpl_layout.Layout.pp_summary edited;
      Format.printf "%a@." Mpl.Decomposer.pp_report report;
      (match report.Mpl.Decomposer.eco with
      | Some e ->
        Format.printf "eco: reused=%d dirty=%d dirty_features=%d@."
          e.Mpl.Decomposer.reused_components e.Mpl.Decomposer.dirty_components
          e.Mpl.Decomposer.dirty_features
      | None -> ());
      Option.iter
        (fun sink ->
          Format.eprintf "-- phases --@.%a" Mpl_obs.Export.pp_phases
            (Mpl_obs.Sink.events sink))
        sink;
      (match save_layout with
      | Some path ->
        Mpl_layout.Layout_io.save edited path;
        Format.eprintf "layout: wrote %s@." path
      | None -> ());
      (match session_out with
      | Some path ->
        Mpl.Eco.save next path;
        Format.eprintf "session: wrote %s@." path
      | None -> ());
      (match colors_out with
      | Some path ->
        write_colors path report.Mpl.Decomposer.colors;
        Format.eprintf "colors: wrote %d entries to %s@."
          (Array.length report.Mpl.Decomposer.colors)
          path
      | None -> ());
      match report.Mpl.Decomposer.metrics with
      | Some snap when metrics ->
        Format.eprintf "-- metrics --@.%a" Mpl_obs.Export.pp_metrics snap
      | Some _ | None -> ()
  in
  let term =
    Term.(
      const run $ session_pos_arg $ edits_pos_arg $ k_arg $ algo_arg
      $ jobs_arg $ no_cache_arg $ metrics_arg $ verbose_arg $ colors_arg
      $ session_out_arg $ save_layout_arg)
  in
  Cmd.v
    (Cmd.info "redecompose"
       ~doc:
         "Incrementally re-decompose an edited layout from an ECO session, \
          re-solving only the components the edit touches")
    term

let gen_cmd =
  let out_arg =
    let doc = "Output layout file." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc)
  in
  let features_arg =
    let doc =
      "$(b,synth) mode: target feature count (100k-1M scale inputs for \
       --windows)."
    in
    Arg.(value & opt int 100_000 & info [ "features" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "$(b,synth) mode: generator seed." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let density_arg =
    let doc = "$(b,synth) mode: motif density in 0..1." in
    Arg.(value & opt float 0.5 & info [ "density" ] ~docv:"D" ~doc)
  in
  let wires_arg =
    let doc =
      "$(b,synth) mode: routing-wire fraction in 0..1 (stitch richness)."
    in
    Arg.(value & opt float 0.4 & info [ "wires" ] ~docv:"W" ~doc)
  in
  let gadgets_arg =
    let doc =
      "$(b,synth) mode: number of guaranteed one-stitch gadgets to inject."
    in
    Arg.(value & opt int 0 & info [ "stitch-gadgets" ] ~docv:"N" ~doc)
  in
  let base_layout_arg =
    let doc =
      "$(b,edits) mode: the base layout file (or circuit name) the edit \
       script is generated against."
    in
    Arg.(value & opt (some string) None & info [ "layout" ] ~docv:"LAYOUT" ~doc)
  in
  let count_arg =
    let doc = "$(b,edits) mode: number of edits to generate." in
    Arg.(value & opt int 16 & info [ "count" ] ~docv:"N" ~doc)
  in
  let run name out features seed density wires gadgets base_layout count =
    if name = "edits" then begin
      (* Deterministic ECO edit script over an existing layout: the
         redecompose benchmarks and smokes feed on this. *)
      match base_layout with
      | None ->
        Printf.eprintf "error: gen edits needs --layout LAYOUT\n";
        exit 2
      | Some src ->
        let layout = load_layout src in
        let edits = Mpl.Eco.generate ~seed ~count layout in
        let oc = open_out out in
        output_string oc (Mpl.Eco.edits_to_string edits);
        close_out oc;
        Format.printf "wrote %d edits against %s to %s@." (List.length edits)
          src out
    end
    else
    let spec =
      if name = "synth" then
        Some
          (Mpl_layout.Benchgen.synth ~density ~wire_fraction:wires
             ~stitch_gadgets:gadgets ~seed ~features ())
      else
        match Mpl_layout.Benchgen.spec_of_circuit name with
        | spec -> Some spec
        | exception Not_found -> None
    in
    match spec with
    | Some spec ->
      let layout = Mpl_layout.Benchgen.generate spec in
      Mpl_layout.Layout_io.save layout out;
      Format.printf "wrote %a to %s@." Mpl_layout.Layout.pp_summary layout out
    | None ->
      Printf.eprintf "error: unknown circuit %s (or use \"synth\")\n" name;
      exit 2
  in
  let name_arg =
    let doc =
      "Benchmark circuit name (C432 .. S15850), $(b,synth) for the \
       parametric generator sized by --features/--seed/--density/--wires, \
       or $(b,edits) for an ECO edit script over --layout."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)
  in
  let term =
    Term.(
      const run $ name_arg $ out_arg $ features_arg $ seed_arg $ density_arg
      $ wires_arg $ gadgets_arg $ base_layout_arg $ count_arg)
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a synthetic benchmark layout (named circuit or \
          parametric synth), or an ECO edit script")
    term

let socket_arg =
  let doc = "Unix-domain socket path." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "TCP port." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "TCP host/bind address." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

(* Exit codes for anything talking to a server, so scripts can
   distinguish "retry later" from "give up":
     0 success          1 protocol / server error
     2 usage            3 server busy (admission control)
     4 deadline expired or cancelled server-side
     5 could not connect *)
let connect_target ~socket ~host ~port =
  match (socket, port) with
  | Some path, _ -> path
  | None, Some p -> Printf.sprintf "%s:%d" host p
  | None, None -> "?"

let try_connect ~socket ~host ~port =
  match (socket, port) with
  | Some path, _ -> (
    try Ok (Mpl_server.Client.connect_unix path) with e -> Error e)
  | None, Some p -> (
    try Ok (Mpl_server.Client.connect_tcp host p) with e -> Error e)
  | None, None ->
    Printf.eprintf "error: needs --socket PATH or --port PORT\n";
    exit 2

let connect_error_line ~socket ~host ~port e =
  let target = connect_target ~socket ~host ~port in
  match e with
  | Unix.Unix_error (ue, _, _) ->
    Printf.sprintf "connect %s: %s" target (Unix.error_message ue)
  | Not_found -> Printf.sprintf "connect %s: host not found" target
  | e -> Printf.sprintf "connect %s: %s" target (Printexc.to_string e)

let connect_or_die ~socket ~host ~port =
  match try_connect ~socket ~host ~port with
  | Ok conn -> conn
  | Error e ->
    Printf.eprintf "error: %s\n" (connect_error_line ~socket ~host ~port e);
    exit 5

(* Pretty-print a live server's STATS JSON: counters one-per-line plus
   the latency percentile estimates the SLO histograms feed. *)
let print_server_stats json =
  match Mpl_obs.Json.parse json with
  | Error e ->
    Printf.eprintf "error: unparseable STATS reply: %s\n" e;
    exit 1
  | Ok root ->
    let open Mpl_obs.Json in
    let num path obj =
      match member path obj with
      | Some v -> to_float v
      | None -> None
    in
    let fmt_num = function
      | Some f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Printf.sprintf "%.0f" f
        else Printf.sprintf "%.3f" f
      | None -> "-"
    in
    (match member "server" root with
    | Some srv ->
      Printf.printf
        "server: served=%s rejected=%s errors=%s inflight=%s/%s jobs=%s \
         uptime=%ss queue=%s/%s\n"
        (fmt_num (num "served" srv))
        (fmt_num (num "rejected" srv))
        (fmt_num (num "errors" srv))
        (fmt_num (num "inflight" srv))
        (fmt_num (num "max_inflight" srv))
        (fmt_num (num "jobs" srv))
        (fmt_num (num "uptime_s" srv))
        (fmt_num (num "queue_depth" srv))
        (fmt_num (num "queue_bound" srv))
    | None -> ());
    (match member "latency" root with
    | Some lat ->
      List.iter
        (fun key ->
          match member key lat with
          | Some (Obj _ as h) ->
            Printf.printf "latency %-12s n=%s p50=%sms p90=%sms p99=%sms\n" key
              (fmt_num (num "count" h))
              (fmt_num (num "p50_ms" h))
              (fmt_num (num "p90_ms" h))
              (fmt_num (num "p99_ms" h))
          | Some Null | None -> Printf.printf "latency %-12s (empty)\n" key
          | Some _ -> ())
        [ "e2e"; "queue_wait"; "first_piece"; "solve" ]
    | None -> ());
    match member "cache" root with
    | Some c ->
      Printf.printf
        "cache: entries=%s bytes=%s hits=%s misses=%s evictions=%s\n"
        (fmt_num (num "entries" c))
        (fmt_num (num "bytes" c))
        (fmt_num (num "hits" c))
        (fmt_num (num "misses" c))
        (fmt_num (num "evictions" c))
    | None -> ()

let stats_cmd =
  let layout_opt_arg =
    let doc =
      "Layout file or benchmark circuit name. Omit when querying a live \
       server with --socket/--port."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"LAYOUT" ~doc)
  in
  let run socket host port source k min_s =
    if socket <> None || port <> None then begin
      (* Live-server mode: fetch STATS and render it, percentiles
         included, so p50/p90/p99 request latency is one command away
         after load. *)
      let conn = connect_or_die ~socket ~host ~port in
      Fun.protect
        ~finally:(fun () -> Mpl_server.Client.close conn)
        (fun () ->
          match Mpl_server.Client.stats conn with
          | Ok json -> print_server_stats json
          | Error e ->
            Printf.eprintf "error: %s\n"
              (Mpl_server.Client.error_to_string e);
            exit 1)
    end
    else begin
    let source =
      match source with
      | Some s -> s
      | None ->
        Printf.eprintf
          "error: LAYOUT required (or --socket/--port for a live server)\n";
        exit 2
    in
    let layout = load_layout source in
    let min_s = resolve_min_s ~k ~min_s in
    let g = Mpl.Decomp_graph.of_layout layout ~min_s in
    let ug = Mpl.Decomp_graph.union_graph g in
    let comps = Mpl_graph.Connectivity.components ug in
    let sizes = Array.map Array.length comps in
    Array.sort compare sizes;
    let largest = if Array.length sizes = 0 then 0 else sizes.(Array.length sizes - 1) in
    Format.printf "%a@." Mpl_layout.Layout.pp_summary layout;
    Format.printf "graph: %a (min_s=%d)@." Mpl.Decomp_graph.pp g min_s;
    Format.printf "components: %d (largest %d)@." (Array.length comps) largest;
    (* Division-stage counts come from a metrics-enabled dry run of the
       full division pipeline under the cheap linear solver. The cache
       is off, so every component is divided and the counts describe
       the whole layout, not just its cache misses. *)
    let params = { Mpl.Decomposer.default_params with k; metrics = true } in
    let r = Mpl.Decomposer.assign ~params Mpl.Decomposer.Linear g in
    match r.Mpl.Decomposer.metrics with
    | None -> ()
    | Some snap ->
      let c name =
        Option.value ~default:0 (Mpl_obs.Metrics.find_counter snap name)
      in
      Format.printf
        "division: pieces=%d peeled=%d bicon_splits=%d gh_cuts=%d \
         maxflow_calls=%d bounded_exits=%d trivial=%d@."
        (c "division.pieces") (c "division.peeled")
        (c "division.bicon_splits") (c "division.gh_cuts")
        (c "division.maxflow_calls")
        (c "division.bounded_exits") (c "division.trivial")
    end
  in
  let term =
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ layout_opt_arg $ k_arg
      $ min_s_arg)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print decomposition-graph and division-pipeline statistics, or \
          query a live server's counters and latency percentiles with \
          --socket/--port")
    term

let trace_check_cmd =
  let file_arg =
    let doc = "Chrome trace JSON file (as written by decompose --trace)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)
  in
  let require_arg =
    let doc = "Fail unless a span named $(docv) is present (repeatable)." in
    Arg.(value & opt_all string [] & info [ "require" ] ~docv:"NAME" ~doc)
  in
  let run file required =
    match Mpl_obs.Export.validate_chrome ~required (read_file file) with
    | Ok spans -> Format.printf "%s: valid, %d spans@." file spans
    | Error e ->
      Format.eprintf "%s: invalid trace: %s@." file e;
      exit 1
  in
  let term = Term.(const run $ file_arg $ require_arg) in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:"Validate a Chrome trace emitted by decompose --trace")
    term

let prom_check_cmd =
  let file_arg =
    let doc = "Prometheus text-exposition file (as served by /metrics)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    match Mpl_obs.Export.validate_prometheus (read_file file) with
    | Ok samples -> Format.printf "%s: valid, %d samples@." file samples
    | Error e ->
      Format.eprintf "%s: invalid exposition: %s@." file e;
      exit 1
  in
  let term = Term.(const run $ file_arg) in
  Cmd.v
    (Cmd.info "prom-check"
       ~doc:"Validate a Prometheus text exposition fetched from /metrics")
    term

let report_cmd =
  let run source k min_s budget jobs no_cache =
    let layout = load_layout source in
    let min_s = resolve_min_s ~k ~min_s in
    let g = Mpl.Decomp_graph.of_layout layout ~min_s in
    let lb = Mpl.Lower_bound.conflict_lower_bound ~k g in
    Format.printf "%a@." Mpl_layout.Layout.pp_summary layout;
    Format.printf "graph: %a (min_s=%d, k=%d)@." Mpl.Decomp_graph.pp g min_s k;
    Format.printf "clique lower bound on conflicts: %d@." lb;
    List.iter
      (fun algo ->
        let params =
          engine_params ~jobs ~no_cache
            { Mpl.Decomposer.default_params with k; solver_budget_s = budget }
        in
        let r = Mpl.Decomposer.assign ~params algo g in
        let balanced =
          Mpl.Balance.rebalance ~k ~alpha:Mpl.Coloring.alpha g
            r.Mpl.Decomposer.colors
        in
        Format.printf "%a | gap vs LB: %d | imbalance %.3f -> %.3f@."
          Mpl.Decomposer.pp_report r
          (r.Mpl.Decomposer.cost.Mpl.Coloring.conflicts - lb)
          (Mpl.Balance.imbalance ~k r.Mpl.Decomposer.colors)
          (Mpl.Balance.imbalance ~k balanced))
      [
        Mpl.Decomposer.Sdp_backtrack;
        Mpl.Decomposer.Sdp_greedy;
        Mpl.Decomposer.Linear;
      ]
  in
  let term =
    Term.(
      const run $ circuit_arg $ k_arg $ min_s_arg $ budget_arg $ jobs_arg
      $ no_cache_arg)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Compare the heuristic algorithms on one layout, with certified \
          lower bounds and mask-density balance")
    term

(* ---- serving ---- *)

let serve_cmd =
  let max_inflight_arg =
    let doc =
      "Maximum concurrently decomposing requests; excess requests get an \
       immediate BUSY reply."
    in
    Arg.(value & opt int 4 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let cache_budget_arg =
    let doc =
      "Byte budget of the shared piece cache (least-recently-used entries \
       are evicted beyond it). Unlimited when omitted."
    in
    Arg.(value & opt (some int) None & info [ "cache-budget" ] ~docv:"BYTES" ~doc)
  in
  let persist_arg =
    let doc =
      "Persist the shared cache to $(docv): loaded on boot, saved on \
       graceful shutdown (and periodically, see --persist-every)."
    in
    Arg.(value & opt (some string) None & info [ "persist" ] ~docv:"FILE" ~doc)
  in
  let persist_every_arg =
    let doc = "Also save the cache every N served requests (0 = off)." in
    Arg.(value & opt int 0 & info [ "persist-every" ] ~docv:"N" ~doc)
  in
  let ring_arg =
    let doc =
      "Keep the last $(docv) request summaries (with per-request traces) \
       for the /requests and /trace admin endpoints. 0 disables \
       per-request telemetry entirely — the served path then reads no \
       clocks beyond the aggregate counters."
    in
    Arg.(value & opt int 32 & info [ "ring" ] ~docv:"N" ~doc)
  in
  let log_arg =
    let doc = "Append one JSON line per finished request to $(docv)." in
    Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE" ~doc)
  in
  let log_max_bytes_arg =
    let doc =
      "Rotate the access log (rename to FILE.1) when it would exceed \
       $(docv) bytes."
    in
    Arg.(
      value
      & opt int (8 * 1024 * 1024)
      & info [ "log-max-bytes" ] ~docv:"BYTES" ~doc)
  in
  let read_timeout_arg =
    let doc =
      "Reap a connection whose partially sent command line or request \
       body stalls longer than $(docv) milliseconds (slowloris \
       protection). 0 disables the read deadline."
    in
    Arg.(value & opt int 10_000 & info [ "read-timeout-ms" ] ~docv:"MS" ~doc)
  in
  let write_timeout_arg =
    let doc =
      "Reap a connection whose client stops draining its socket for \
       $(docv) milliseconds mid-reply; the request's queued pieces are \
       cancelled. 0 disables the write deadline."
    in
    Arg.(value & opt int 10_000 & info [ "write-timeout-ms" ] ~docv:"MS" ~doc)
  in
  let max_body_arg =
    let doc =
      "Refuse DECOMPOSE bodies larger than $(docv) bytes (ERR proto, \
       before any allocation)."
    in
    Arg.(
      value
      & opt int (64 * 1024 * 1024)
      & info [ "max-body-bytes" ] ~docv:"BYTES" ~doc)
  in
  let sessions_arg =
    let doc =
      "Keep ECO sessions for the last $(docv) distinct decomposed layouts \
       (keyed by layout hash), enabling REDECOMPOSE requests that re-solve \
       only the edited region. 0 disables incremental serving."
    in
    Arg.(value & opt int 8 & info [ "sessions" ] ~docv:"N" ~doc)
  in
  let run socket port host jobs max_inflight cache_budget persist
      persist_every ring access_log log_max_bytes read_timeout_ms
      write_timeout_ms max_body_bytes inject sessions =
    if socket = None && port = None then begin
      Printf.eprintf "error: serve needs --socket PATH and/or --port PORT\n";
      exit 2
    end;
    let log msg = Printf.eprintf "mpld-serve: %s\n%!" msg in
    let config =
      {
        Mpl_server.Server.unix_socket = socket;
        tcp_port = port;
        tcp_host = host;
        jobs;
        max_inflight;
        cache_budget;
        persist;
        persist_every;
        ring;
        access_log;
        log_max_bytes;
        log = Some log;
        read_timeout_s = float_of_int read_timeout_ms /. 1000.;
        write_timeout_s = float_of_int write_timeout_ms /. 1000.;
        max_body_bytes;
        fault = inject;
        sessions;
      }
    in
    let srv = Mpl_server.Server.create config in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let stop _ = Mpl_server.Server.request_stop srv in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Mpl_server.Server.run srv
  in
  let term =
    Term.(
      const run $ socket_arg $ port_arg $ host_arg $ jobs_arg
      $ max_inflight_arg $ cache_budget_arg $ persist_arg $ persist_every_arg
      $ ring_arg $ log_arg $ log_max_bytes_arg $ read_timeout_arg
      $ write_timeout_arg $ max_body_arg $ inject_arg
      $ sessions_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the decomposition server: concurrent requests on a shared \
          solver pool and a persistent shared piece cache")
    term

let client_cmd =
  let layout_arg =
    let doc =
      "Layout file, or a benchmark circuit name generated on the fly. \
       Omit for admin requests (--stats, --metrics, --ping, --quit)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"LAYOUT" ~doc)
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print the server STATS JSON.")
  in
  let metrics_flag =
    Arg.(
      value & flag & info [ "metrics" ] ~doc:"Print the server METRICS JSON.")
  in
  let ping_flag =
    Arg.(value & flag & info [ "ping" ] ~doc:"Check server liveness.")
  in
  let quit_flag =
    Arg.(
      value & flag
      & info [ "quit" ] ~doc:"Ask the server to shut down gracefully.")
  in
  let http_arg =
    let doc =
      "Fetch $(docv) from the server's HTTP admin plane (e.g. /metrics, \
       /healthz, /requests, /trace?id=N) and print the body. Exits \
       nonzero unless the status is 2xx."
    in
    Arg.(value & opt (some string) None & info [ "http" ] ~docv:"PATH" ~doc)
  in
  let deadline_arg =
    let doc =
      "Server-side deadline in milliseconds, counted from the start of \
       the request's color assignment: past it the request is cancelled \
       with a TIMEOUT reply (exit code 4)."
    in
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let retries_arg =
    let doc =
      "Retry a BUSY reply, a dropped/torn connection, or a transient \
       connect failure up to $(docv) times with capped exponential \
       backoff. TIMEOUT/CANCELLED and server ERR replies are never \
       retried."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let edits_arg =
    let doc =
      "Send a REDECOMPOSE instead of a DECOMPOSE: $(docv) is an ECO \
       edit-script file applied against the server's session for LAYOUT \
       (which must have been decomposed on this server first). Only the \
       re-solved pieces are streamed back."
    in
    Arg.(value & opt (some string) None & info [ "edits" ] ~docv:"FILE" ~doc)
  in
  let backoff_arg =
    let doc =
      "Base backoff in milliseconds for --retries: sleep base*2^i with \
       deterministic +/-25% jitter, capped at 2000 ms."
    in
    Arg.(value & opt int 100 & info [ "backoff-ms" ] ~docv:"MS" ~doc)
  in
  let run socket host port layout k min_s algo no_cache inject
      deadline_ms retries backoff_ms colors_out windows do_stats do_metrics
      do_ping do_quit http_path edits_path =
    let fail e =
      Printf.eprintf "error: %s\n" (Mpl_server.Client.error_to_string e);
      exit
        (match e with
        | Mpl_server.Client.Busy _ -> 3
        | Mpl_server.Client.Timed_out _ | Mpl_server.Client.Cancelled _ -> 4
        | Mpl_server.Client.Remote _ | Mpl_server.Client.Protocol _ -> 1)
    in
    let with_conn f =
      let conn = connect_or_die ~socket ~host ~port in
      Fun.protect
        ~finally:(fun () -> Mpl_server.Client.close conn)
        (fun () -> f conn)
    in
    match http_path with
    | Some path ->
      with_conn (fun conn ->
          match Mpl_server.Client.http conn path with
          | Error e -> fail e
          | Ok (status, body) ->
            print_string body;
            if String.length body > 0 && body.[String.length body - 1] <> '\n'
            then print_newline ();
            if status < 200 || status > 299 then begin
              Printf.eprintf "error: HTTP %d\n" status;
              exit 1
            end)
    | None -> (
      if do_quit then with_conn Mpl_server.Client.quit
      else if do_stats || do_metrics then
        with_conn (fun conn ->
            (if do_stats then
               match Mpl_server.Client.stats conn with
               | Ok json -> print_endline json
               | Error e -> fail e);
            if do_metrics then
              match Mpl_server.Client.metrics conn with
              | Ok json -> print_endline json
              | Error e -> fail e)
      else if do_ping then
        with_conn (fun conn ->
            if Mpl_server.Client.ping conn then print_endline "PONG"
            else begin
              Printf.eprintf "error: no PONG\n";
              exit 1
            end)
      else
        match layout with
        | None ->
          Printf.eprintf
            "error: LAYOUT required unless an admin flag is given\n";
          exit 2
        | Some source ->
          (* With --edits the positional LAYOUT names the *base* layout:
             its canonical hash keys the server-side session, and the
             request body is the edit script. *)
          let submit, body =
            match edits_path with
            | Some edits_file ->
              let hash = Mpl.Eco.hash_layout (load_layout source) in
              ( (fun conn request body ->
                  Mpl_server.Client.redecompose conn ~request ~hash body),
                read_file edits_file )
            | None ->
              let body =
                if Sys.file_exists source then read_file source
                else
                  match Mpl_layout.Benchgen.circuit source with
                  | layout -> Mpl_layout.Layout_io.to_string layout
                  | exception Not_found ->
                    Printf.eprintf
                      "error: %s is neither a file nor a known benchmark \
                       circuit\n"
                      source;
                    exit 2
              in
              ( (fun conn request body ->
                  Mpl_server.Client.decompose conn ~request body),
                body )
          in
          let request =
            {
              Mpl_server.Proto.default_request with
              k;
              algo;
              min_s;
              cache = not no_cache;
              inject;
              deadline_ms;
              windows;
            }
          in
          (* Retry loop: each attempt opens a fresh connection (a BUSY
             or torn reply leaves the old one unusable). Retryable
             failures and transient connect errors draw sleeps from one
             shared deterministic backoff schedule; a TIMEOUT/CANCELLED
             or ERR reply fails immediately — an identical retry would
             meet the same fate. *)
          let rec go sleeps =
            match try_connect ~socket ~host ~port with
            | Error e -> (
              match sleeps with
              | s :: rest when Mpl_server.Client.transient_connect_error e ->
                Printf.eprintf "retry: %s (backing off %.0f ms)\n%!"
                  (connect_error_line ~socket ~host ~port e)
                  (s *. 1000.);
                Unix.sleepf s;
                go rest
              | _ ->
                Printf.eprintf "error: %s\n"
                  (connect_error_line ~socket ~host ~port e);
                exit 5)
            | Ok conn -> (
              let r =
                Fun.protect
                  ~finally:(fun () -> Mpl_server.Client.close conn)
                  (fun () -> submit conn request body)
              in
              match r with
              | Ok o -> o
              | Error e -> (
                match sleeps with
                | s :: rest when Mpl_server.Client.retryable e ->
                  Printf.eprintf "retry: %s (backing off %.0f ms)\n%!"
                    (Mpl_server.Client.error_to_string e)
                    (s *. 1000.);
                  Unix.sleepf s;
                  go rest
                | _ -> fail e))
          in
          let o =
            go
              (Mpl_server.Client.backoff_schedule ~base_ms:backoff_ms ~retries
                 ())
          in
          (match o.Mpl_server.Client.rid with
          | Some rid -> Printf.printf "rid: %d\n" rid
          | None -> ());
              let c = o.Mpl_server.Client.cost in
              Printf.printf
                "cost: conflicts=%d stitches=%d scaled=%d elapsed=%.3f \
                 timed_out=%b\n"
                c.Mpl_server.Proto.conflicts c.Mpl_server.Proto.stitches
                c.Mpl_server.Proto.scaled c.Mpl_server.Proto.elapsed_s
                c.Mpl_server.Proto.timed_out;
              (match o.Mpl_server.Client.engine with
              | Some e ->
                Printf.printf
                  "engine: pieces=%d solved=%d hits=%d reused=%d failed=%d \
                   rejected=%d\n"
                  e.Mpl_engine.Engine.pieces e.Mpl_engine.Engine.solved
                  e.Mpl_engine.Engine.hits e.Mpl_engine.Engine.reused
                  e.Mpl_engine.Engine.failed e.Mpl_engine.Engine.rejected
              | None -> ());
              let r = o.Mpl_server.Client.resilience in
              Printf.printf
                "resilience: degraded=%d piece_failures=%d fallbacks=%d \
                 fired=%b\n"
                r.Mpl_server.Proto.degraded r.Mpl_server.Proto.piece_failures
                r.Mpl_server.Proto.fallbacks r.Mpl_server.Proto.fired;
              (match o.Mpl_server.Client.cache with
              | Some cs ->
                Printf.printf "cache: entries=%d bytes=%d evictions=%d\n"
                  cs.Mpl_server.Proto.entries cs.Mpl_server.Proto.bytes
                  cs.Mpl_server.Proto.evictions
              | None -> ());
              (match o.Mpl_server.Client.reused with
              | Some (reused, dirty, features) ->
                Printf.printf "eco: reused=%d dirty=%d features=%d\n" reused
                  dirty features
              | None -> ());
              Printf.printf "stream: pieces=%d cells=%d consistent=%b\n"
                o.Mpl_server.Client.streamed_pieces
                o.Mpl_server.Client.streamed_cells
                o.Mpl_server.Client.streams_consistent;
              (match colors_out with
              | Some path ->
                write_colors path o.Mpl_server.Client.colors;
                Printf.eprintf "colors: wrote %d entries to %s\n"
                  (Array.length o.Mpl_server.Client.colors)
                  path
              | None -> ());
          if not o.Mpl_server.Client.streams_consistent then exit 1)
  in
  let term =
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ layout_arg $ k_arg
      $ min_s_arg $ algo_arg $ no_cache_arg $ inject_arg
      $ deadline_arg $ retries_arg $ backoff_arg $ colors_arg $ windows_arg
      $ stats_flag $ metrics_flag $ ping_flag $ quit_flag $ http_arg
      $ edits_arg)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Submit a layout to a running mpld server (or query its admin \
          endpoints)")
    term

let () =
  (* Writing to a server that reaped our connection must surface as
     EPIPE (handled) in every subcommand, never kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let doc = "multiple-patterning (K>=4) layout decomposition" in
  let info = Cmd.info "mpld" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [
        decompose_cmd;
        redecompose_cmd;
        gen_cmd;
        stats_cmd;
        trace_check_cmd;
        prom_check_cmd;
        report_cmd;
        serve_cmd;
        client_cmd;
      ]
  in
  (* An unreadable or unwritable file is a user error: one [error:]
     line and exit 2, never an uncaught exception. Anything else
     escaping a command is a bug, reported as Cmdliner would. *)
  exit
    (try Cmd.eval ~catch:false cmd with
    | Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      2
    | e ->
      Printf.eprintf "mpld: internal error, uncaught exception:\n%s\n"
        (Printexc.to_string e);
      Cmd.Exit.internal_error)
