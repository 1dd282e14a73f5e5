type config = {
  unix_socket : string option;
  tcp_port : int option;
  tcp_host : string;
  jobs : int;
  max_inflight : int;
  cache_budget : int option;
  persist : string option;
  persist_every : int;
  log : (string -> unit) option;
  ring : int;
  access_log : string option;
  log_max_bytes : int;
  read_timeout_s : float;
  write_timeout_s : float;
  max_body_bytes : int;
  fault : Mpl_engine.Fault.spec option;
  sessions : int;
}

let default_config =
  {
    unix_socket = None;
    tcp_port = None;
    tcp_host = "127.0.0.1";
    jobs = 1;
    max_inflight = 4;
    cache_budget = None;
    persist = None;
    persist_every = 0;
    log = None;
    ring = 32;
    access_log = None;
    log_max_bytes = 8 * 1024 * 1024;
    read_timeout_s = 10.;
    write_timeout_s = 10.;
    max_body_bytes = 64 * 1024 * 1024;
    fault = None;
    sessions = 8;
  }

type t = {
  config : config;
  obs : Mpl_obs.Obs.t;
  metrics : Mpl_obs.Metrics.t;
  pool : Mpl_engine.Pool.t;
  cache : Mpl.Division.stats Mpl_engine.Cache.t;
  req_ring : Ring.t option;
  access : Mpl_obs.Logfile.t option;
  start_ns : int64;
  served_c : Mpl_obs.Metrics.counter;
  rejected_c : Mpl_obs.Metrics.counter;
  errors_c : Mpl_obs.Metrics.counter;
  admin_c : Mpl_obs.Metrics.counter;
  eco_c : Mpl_obs.Metrics.counter;
  cancelled_c : Mpl_obs.Metrics.counter;
  timeouts_c : Mpl_obs.Metrics.counter;
  reaped_c : Mpl_obs.Metrics.counter;
  dropped_c : Mpl_obs.Metrics.counter;
  latency_h : Mpl_obs.Metrics.histogram;
  queue_wait_h : Mpl_obs.Metrics.histogram;
  first_piece_h : Mpl_obs.Metrics.histogram;
  e2e_h : Mpl_obs.Metrics.histogram;
  inflight_g : Mpl_obs.Metrics.gauge;
  pool_depth_g : Mpl_obs.Metrics.gauge;
  uptime_g : Mpl_obs.Metrics.gauge;
  lock : Mutex.t;
  drained : Condition.t;
  mutable inflight : int;
  mutable next_rid : int;
  mutable conns : (Unix.file_descr * Thread.t option ref) list;
  (* ECO session table: bounded, keyed by the base layout's canonical
     hash, most-recently-used order in [session_lru]. Guarded by
     [lock]. Auto-captured from unsharded DECOMPOSEs, consumed and
     refreshed by REDECOMPOSE. *)
  sessions_tbl : (string, Mpl.Eco.session) Hashtbl.t;
  mutable session_lru : string list;
  save_lock : Mutex.t;
  stop : bool Atomic.t;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  fault : Mpl_engine.Fault.t;  (* probed by Connio and the shared pool *)
}

let log t msg = match t.config.log with Some f -> f msg | None -> ()

(* Persistence codec for the cache's metadata payload (the division
   statistics recorded with each solved component). *)
let stats_to_string (s : Mpl.Division.stats) =
  Printf.sprintf "%d %d %d %d" s.Mpl.Division.pieces
    s.Mpl.Division.largest_piece s.Mpl.Division.peeled s.Mpl.Division.cuts

let stats_of_string line =
  match
    List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim line))
  with
  | [ a; b; c; d ] -> (
    match
      ( int_of_string_opt a,
        int_of_string_opt b,
        int_of_string_opt c,
        int_of_string_opt d )
    with
    | Some pieces, Some largest_piece, Some peeled, Some cuts ->
      Some { Mpl.Division.pieces; largest_piece; peeled; cuts }
    | _ -> None)
  | _ -> None

let create config =
  if config.unix_socket = None && config.tcp_port = None then
    invalid_arg "Server.create: no listener configured";
  if config.jobs < 1 then invalid_arg "Server.create: jobs < 1";
  if config.max_inflight < 1 then invalid_arg "Server.create: max_inflight < 1";
  if config.ring < 0 then invalid_arg "Server.create: ring < 0";
  if config.sessions < 0 then invalid_arg "Server.create: sessions < 0";
  (* A client vanishing mid-stream must surface as EPIPE on the write,
     not as a fatal SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let metrics = Mpl_obs.Metrics.create () in
  let obs = Mpl_obs.Obs.make ~sink:Mpl_obs.Sink.null ~metrics () in
  let fault =
    match config.fault with
    | Some spec -> Mpl_engine.Fault.arm spec
    | None -> Mpl_engine.Fault.none
  in
  let pool = Mpl_engine.Pool.create ~obs ~fault ~jobs:config.jobs () in
  let cache =
    Mpl_engine.Cache.create ?byte_budget:config.cache_budget ~obs ()
  in
  let stop_r, stop_w = Unix.pipe () in
  let t =
    {
      config;
      obs;
      metrics;
      pool;
      cache;
      req_ring = (if config.ring > 0 then Some (Ring.create config.ring) else None);
      access =
        Option.map
          (Mpl_obs.Logfile.open_ ~max_bytes:config.log_max_bytes)
          config.access_log;
      start_ns = Mpl_util.Timer.now_ns ();
      served_c = Mpl_obs.Metrics.counter metrics "server.served";
      rejected_c = Mpl_obs.Metrics.counter metrics "server.rejected";
      errors_c = Mpl_obs.Metrics.counter metrics "server.errors";
      admin_c = Mpl_obs.Metrics.counter metrics "server.admin";
      eco_c = Mpl_obs.Metrics.counter metrics "server.eco_requests";
      cancelled_c = Mpl_obs.Metrics.counter metrics "server.cancelled";
      timeouts_c = Mpl_obs.Metrics.counter metrics "server.timeouts";
      reaped_c = Mpl_obs.Metrics.counter metrics "server.reaped_conns";
      dropped_c = Mpl_obs.Metrics.counter metrics "server.dropped_tasks";
      latency_h = Mpl_obs.Metrics.histogram metrics "server.request_ns";
      queue_wait_h = Mpl_obs.Metrics.histogram metrics "server.queue_wait_ns";
      first_piece_h = Mpl_obs.Metrics.histogram metrics "server.first_piece_ns";
      e2e_h = Mpl_obs.Metrics.histogram metrics "server.e2e_ns";
      inflight_g = Mpl_obs.Metrics.gauge metrics "server.inflight";
      pool_depth_g = Mpl_obs.Metrics.gauge metrics "pool.queue_depth";
      uptime_g = Mpl_obs.Metrics.gauge metrics "server.uptime_s";
      lock = Mutex.create ();
      drained = Condition.create ();
      inflight = 0;
      next_rid = 0;
      conns = [];
      sessions_tbl = Hashtbl.create 16;
      session_lru = [];
      save_lock = Mutex.create ();
      stop = Atomic.make false;
      stop_r;
      stop_w;
      fault;
    }
  in
  (match config.persist with
  | Some path when Sys.file_exists path -> (
    match
      Mpl_engine.Cache.load t.cache ~value_of_string:stats_of_string path
    with
    | loaded, dropped ->
      log t
        (Printf.sprintf "cache: loaded %d entries from %s%s" loaded path
           (if dropped > 0 then Printf.sprintf " (%d dropped)" dropped
            else ""))
    | exception Mpl_engine.Cache.Bad_file msg ->
      log t (Printf.sprintf "cache: ignoring %s: %s" path msg)
    | exception Sys_error msg -> log t (Printf.sprintf "cache: %s" msg))
  | Some _ | None -> ());
  t

let fresh_rid t =
  Mutex.lock t.lock;
  t.next_rid <- t.next_rid + 1;
  let rid = t.next_rid in
  Mutex.unlock t.lock;
  rid

let request_stop t =
  if not (Atomic.exchange t.stop true) then
    try ignore (Unix.write t.stop_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ | Sys_error _ -> ()

let save_cache t =
  match t.config.persist with
  | None -> ()
  | Some path ->
    Mutex.lock t.save_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.save_lock)
      (fun () ->
        match
          Mpl_engine.Cache.save t.cache ~value_to_string:stats_to_string path
        with
        | () ->
          log t
            (Printf.sprintf "cache: saved %d entries (%d bytes) to %s"
               (Mpl_engine.Cache.length t.cache)
               (Mpl_engine.Cache.bytes t.cache)
               path)
        | exception e ->
          log t (Printf.sprintf "cache: save failed: %s" (Printexc.to_string e)))

(* The peer stopped being a peer: its socket timed out on write (it
   stopped draining), returned EPIPE/ECONNRESET (it vanished), or an
   injected network fault tore the connection. Raised by the checked
   send below and caught at exactly two levels — the request runner
   (which cancels queued work) and the connection loop (which reaps the
   connection). Never escapes the handler thread. *)
exception Client_gone of Connio.werr

(* All protocol writes go through here: a failed send is a lifecycle
   event, not an I/O detail, so it must not be ignorable. *)
let send cio s =
  match Connio.send cio s with
  | Ok () -> ()
  | Error e -> raise (Client_gone e)

(* The reply stream is buffered; terminal replies and admin responses
   must actually reach the wire before the handler moves on. *)
let send_flush cio s =
  send cio s;
  match Connio.flush cio with
  | Ok () -> ()
  | Error e -> raise (Client_gone e)

(* One source of truth for the derived gauges: every snapshot consumer
   (STATS, METRICS, /metrics, /healthz) refreshes them from the live
   pool/clock immediately before reading the registry, so the text path
   and the admin plane can never disagree. The cache publishes its own
   [cache.bytes]/[cache.entries] into the same registry on every size
   change. *)
let refresh_gauges t =
  Mpl_obs.Metrics.set t.pool_depth_g
    (float_of_int (Mpl_engine.Pool.queue_depth t.pool));
  Mpl_obs.Metrics.set t.uptime_g
    (Int64.to_float (Int64.sub (Mpl_util.Timer.now_ns ()) t.start_ns) *. 1e-9)

let ns_to_ms ns = ns *. 1e-6

(* p50/p90/p99 of a nanosecond histogram, rendered in milliseconds. *)
let percentile_json snap name =
  match Mpl_obs.Metrics.find_histogram snap name with
  | None -> Mpl_obs.Json.Null
  | Some h when h.Mpl_obs.Metrics.count = 0 -> Mpl_obs.Json.Null
  | Some h ->
    let ps = Mpl_obs.Metrics.percentiles h [ 0.5; 0.9; 0.99 ] in
    let open Mpl_obs.Json in
    Obj
      (("count", Int h.Mpl_obs.Metrics.count)
      :: List.map2
           (fun label v -> (label, Float (ns_to_ms v)))
           [ "p50_ms"; "p90_ms"; "p99_ms" ]
           ps)

(* The lifecycle counts live in the registry only; STATS and /healthz
   read them back from the snapshot under their JSON names. *)
let count snap name =
  Option.value ~default:0 (Mpl_obs.Metrics.find_counter snap name)

let stats_json t =
  refresh_gauges t;
  Mutex.lock t.lock;
  let sessions = Hashtbl.length t.sessions_tbl and inflight = t.inflight in
  Mutex.unlock t.lock;
  let cs = Mpl_engine.Cache.stats t.cache in
  let snap = Mpl_obs.Metrics.snapshot t.metrics in
  let count = count snap in
  let uptime_s =
    Int64.to_float (Int64.sub (Mpl_util.Timer.now_ns ()) t.start_ns) *. 1e-9
  in
  let open Mpl_obs.Json in
  to_string
    (Obj
       [
         ( "server",
           Obj
             [
               ("served", Int (count "server.served"));
               ("rejected", Int (count "server.rejected"));
               ("errors", Int (count "server.errors"));
               ("cancelled", Int (count "server.cancelled"));
               ("timeouts", Int (count "server.timeouts"));
               ("reaped_conns", Int (count "server.reaped_conns"));
               ("dropped_tasks", Int (count "server.dropped_tasks"));
               ("eco_requests", Int (count "server.eco_requests"));
               ("sessions", Int sessions);
               ("session_cap", Int t.config.sessions);
               ("inflight", Int inflight);
               ("max_inflight", Int t.config.max_inflight);
               ("jobs", Int (Mpl_engine.Pool.jobs t.pool));
               ("uptime_s", Float uptime_s);
               ("queue_depth", Int (Mpl_engine.Pool.queue_depth t.pool));
               ("queue_bound", Int (Mpl_engine.Pool.bound t.pool));
             ] );
         ( "latency",
           Obj
             [
               ("e2e", percentile_json snap "server.e2e_ns");
               ("queue_wait", percentile_json snap "server.queue_wait_ns");
               ("first_piece", percentile_json snap "server.first_piece_ns");
               ("solve", percentile_json snap "server.request_ns");
             ] );
         ( "cache",
           Obj
             [
               ("entries", Int cs.Mpl_engine.Cache.entries);
               ("bytes", Int cs.Mpl_engine.Cache.resident_bytes);
               ( "budget",
                 match cs.Mpl_engine.Cache.byte_budget with
                 | Some b -> Int b
                 | None -> Null );
               ("hits", Int cs.Mpl_engine.Cache.s_hits);
               ("misses", Int cs.Mpl_engine.Cache.s_misses);
               ("corrupt_drops", Int cs.Mpl_engine.Cache.s_corrupt_drops);
               ("evictions", Int cs.Mpl_engine.Cache.s_evictions);
             ] );
       ])

let metrics_json t =
  refresh_gauges t;
  Mpl_obs.Json.to_string
    (Mpl_obs.Export.metrics_json (Mpl_obs.Metrics.snapshot t.metrics))

let prometheus t =
  refresh_gauges t;
  Mpl_obs.Export.prometheus (Mpl_obs.Metrics.snapshot t.metrics)

(* ------------------------------------------------------------------ *)
(* ECO session table *)

let rec take_drop n = function
  | [] -> ([], [])
  | l when n <= 0 -> ([], l)
  | x :: tl ->
    let keep, drop = take_drop (n - 1) tl in
    (x :: keep, drop)

(* Sessions are keyed by the canonical layout MD5, the name clients give
   a base layout by. The key costs one whole-layout serialization, so it
   is made before taking the server lock and under its own span. *)
let session_store t ~obs (s : Mpl.Eco.session) =
  let cap = t.config.sessions in
  if cap > 0 then begin
    let key =
      Mpl_obs.Obs.span obs "server.session_key" @@ fun () ->
      Mpl.Eco.hash_layout s.Mpl.Eco.layout
    in
    Mutex.lock t.lock;
    Hashtbl.replace t.sessions_tbl key s;
    let keep, drop =
      take_drop cap (key :: List.filter (fun k -> k <> key) t.session_lru)
    in
    t.session_lru <- keep;
    List.iter (Hashtbl.remove t.sessions_tbl) drop;
    Mutex.unlock t.lock
  end

let session_find t key =
  Mutex.lock t.lock;
  let r = Hashtbl.find_opt t.sessions_tbl key in
  (match r with
  | Some _ ->
    t.session_lru <- key :: List.filter (fun k -> k <> key) t.session_lru
  | None -> ());
  Mutex.unlock t.lock;
  r

(* ------------------------------------------------------------------ *)
(* Request telemetry *)

(* Cap on captured spans per ring entry: a traced S-circuit run emits
   tens of thousands of spans; keeping the earliest [max_trace_events]
   preserves the pipeline structure while bounding ring memory. *)
let max_trace_events = 20_000

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

type req_timing = {
  rid : int;
  recv_ns : int64;  (* absolute, request line read *)
  queue_wait_ns : int64;
  mutable first_piece_ns : int64;  (* relative to admission; -1 = none *)
}

(* Every DECOMPOSE outcome — ok, error, parse failure or busy — lands
   one ring entry and one access-log line, so the admin plane never
   has blind spots for exactly the requests that went wrong. *)
let finish_request t (rp : Proto.request) (tm : req_timing) ~body_len ~circuit
    ~solve_ns ~pieces ~cache_hits ~degraded ~outcome ~sink =
  let total_ns = Int64.sub (Mpl_util.Timer.now_ns ()) tm.recv_ns in
  Mpl_obs.Metrics.observe t.e2e_h (Int64.to_float total_ns);
  (* Outcome accounting lives here, next to the ring entry and access
     line, so "every non-ok outcome is counted" holds by construction:
     there is exactly one finish_request per request. *)
  (match outcome with
  | "timeout" -> Mpl_obs.Metrics.incr t.timeouts_c
  | "cancelled" | "disconnected" -> Mpl_obs.Metrics.incr t.cancelled_c
  | _ -> ());
  let algo = Proto.name_of_algorithm rp.Proto.algo in
  (match t.req_ring with
  | None -> ()
  | Some ring ->
    let trace =
      match sink with
      | None -> []
      | Some s -> take max_trace_events (Mpl_obs.Sink.events s)
    in
    Ring.add ring
      {
        Ring.id = tm.rid;
        circuit;
        algo;
        k = rp.Proto.k;
        bytes = body_len;
        pieces;
        cache_hits;
        queue_wait_ns = tm.queue_wait_ns;
        first_piece_ns = tm.first_piece_ns;
        solve_ns;
        total_ns;
        degraded;
        outcome;
        trace;
      });
  match t.access with
  | None -> ()
  | Some lg ->
    let ms ns = ns_to_ms (Int64.to_float ns) in
    let open Mpl_obs.Json in
    Mpl_obs.Logfile.write lg
      (to_string
         (Obj
            [
              ("ts", Float (Unix.gettimeofday ()));
              ("rid", Int tm.rid);
              ("outcome", Str outcome);
              ("circuit", Str circuit);
              ("algo", Str algo);
              ("k", Int rp.Proto.k);
              ("bytes", Int body_len);
              ("pieces", Int pieces);
              ("cache_hits", Int cache_hits);
              ("degraded", Int degraded);
              ("queue_wait_ms", Float (ms tm.queue_wait_ns));
              ( "first_piece_ms",
                if tm.first_piece_ns < 0L then Null
                else Float (ms tm.first_piece_ns) );
              ("solve_ms", Float (ms solve_ns));
              ("total_ms", Float (ms total_ns));
            ]))

(* A deterministic refusal discovered mid-pipeline (unknown or
   mismatched session, corrupt edit script): reply [ERR <code>] instead
   of a stream, account it as an error. *)
exception Rejected of { code : string; msg : string }

(* The shared request runner: everything between the body read and the
   terminal reply — per-request sink, cancel token, the reply tail,
   outcome accounting — is identical for DECOMPOSE and REDECOMPOSE.
   [solve] produces the report plus any extra reply lines to send
   between CACHE and DONE (REDECOMPOSE's REUSED line). *)
let run_pipeline t cio (rp : Proto.request) (tm : req_timing) ~body_len
    ~circuit ~solve =
  let finish = finish_request t rp tm ~body_len in
  begin
    (* Per-request span sink (ring enabled only): shares the server's
       aggregate metrics registry but collects spans privately, tagged
       with the request's identity, so /trace?id= can replay exactly
       one request. Ring off = the pre-telemetry null sink — the
       served pipeline reads no extra clocks and stays bit-identical
       (covered by the invariance property in the test suite). *)
    let sink =
      match t.req_ring with
      | None -> None
      | Some _ ->
        Some
          (Mpl_obs.Sink.create
             ~tags:
               [
                 ("rid", Mpl_obs.Sink.Str (string_of_int tm.rid));
                 ("circuit", Mpl_obs.Sink.Str circuit);
                 ("k", Mpl_obs.Sink.Int rp.Proto.k);
                 ( "algo",
                   Mpl_obs.Sink.Str (Proto.name_of_algorithm rp.Proto.algo) );
               ]
             ())
    in
    let req_obs =
      match sink with
      | None -> t.obs
      | Some s -> Mpl_obs.Obs.make ~sink:s ~metrics:t.metrics ()
    in
    (* Every request carries a cancel token. A disconnect cancels it;
       a [deadline=MS] arms it with an instant when the assignment
       starts, so an expired request is torn down by the same token
       checks, with no thread of its own. With neither, the token is
       never set and has no instant: the path costs one atomic read per
       checkpoint, reads no clock, and the served pipeline stays
       bit-identical to the direct one. [disconnected] is only touched
       on this handler thread (the streaming callback runs on it). *)
    let token = Mpl_engine.Pool.token () in
    let disconnected = ref false in
    let abort () =
      disconnected := true;
      Mpl_engine.Pool.cancel token
    in
    let params =
      {
        Mpl.Decomposer.default_params with
        k = rp.Proto.k;
        cache = rp.Proto.cache;
        fault = rp.Proto.inject;
        cancel = Some token;
        deadline_s =
          Option.map (fun ms -> float_of_int ms /. 1000.) rp.Proto.deadline_ms;
      }
    in
    let shared_cache = if rp.Proto.cache then Some t.cache else None in
    let admit_ns = Mpl_util.Timer.now_ns () in
    let on_component idx back colors =
      (* Streamed on the coordinating thread in deterministic order,
         so the first call is the true first piece. *)
      if tm.first_piece_ns < 0L then begin
        tm.first_piece_ns <- Int64.sub (Mpl_util.Timer.now_ns ()) admit_ns;
        Mpl_obs.Metrics.observe t.first_piece_h
          (Int64.to_float tm.first_piece_ns)
      end;
      (* Flushed per piece: streamed progress should reach the wire
         promptly, and the flush is where a vanished or stalled client
         is detected — mid-stream, while queued pieces can still be
         dropped, not after all the solving is already done. *)
      match
        match Connio.send cio (Proto.piece_line ~idx ~back ~colors) with
        | Ok () -> Connio.flush cio
        | Error _ as e -> e
      with
      | Ok () -> ()
      | Error e ->
        abort ();
        raise (Client_gone e)
    in
    (* After any abort or expiry: queued-but-unstarted pieces of this
       request are still sitting in the shared pool. Sweep them out now
       (so other requests' tasks stop queueing behind dead work) and
       account every dropped task to server.dropped_tasks. *)
    let sweep () =
      if Mpl_engine.Pool.cancelled token then begin
        ignore (Mpl_engine.Pool.discard_cancelled t.pool);
        Mpl_obs.Metrics.add t.dropped_c (Mpl_engine.Pool.drops token)
      end
    in
    let t0 = Mpl_util.Timer.now_ns () in
    let elapsed_solve () = Int64.sub (Mpl_util.Timer.now_ns ()) t0 in
    (try
       send cio (Proto.ack_line ~rid:tm.rid ());
       (match Connio.flush cio with
       | Ok () -> ()
       | Error e -> raise (Client_gone e));
       let report, extra =
         solve ~req_obs ~params ~shared_cache ~on_component
       in
       let cost = report.Mpl.Decomposer.cost in
       send cio
         (Proto.cost_line
            {
              Proto.conflicts = cost.Mpl.Coloring.conflicts;
              stitches = cost.Mpl.Coloring.stitches;
              scaled = cost.Mpl.Coloring.scaled;
              elapsed_s = report.Mpl.Decomposer.elapsed_s;
              timed_out = report.Mpl.Decomposer.timed_out;
            });
       send cio (Proto.engine_line report.Mpl.Decomposer.engine);
       let res = report.Mpl.Decomposer.resilience in
       send cio
         (Proto.resilience_line
            {
              Proto.degraded = res.Mpl.Decomposer.degraded;
              piece_failures = res.Mpl.Decomposer.piece_failures;
              fallbacks = res.Mpl.Decomposer.fallback_attempts;
              fired = res.Mpl.Decomposer.fault_fired;
            });
       (match report.Mpl.Decomposer.cache with
       | Some cs ->
         send cio
           (Proto.cache_line
              {
                Proto.entries = cs.Mpl_engine.Cache.entries;
                bytes = cs.Mpl_engine.Cache.resident_bytes;
                hits = cs.Mpl_engine.Cache.s_hits;
                misses = cs.Mpl_engine.Cache.s_misses;
                corrupt_drops = cs.Mpl_engine.Cache.s_corrupt_drops;
                evictions = cs.Mpl_engine.Cache.s_evictions;
              })
       | None -> ());
       List.iter (send cio) extra;
       send cio (Proto.done_line report.Mpl.Decomposer.colors);
       (match Connio.flush cio with
       | Ok () -> ()
       | Error e ->
         abort ();
         raise (Client_gone e));
       let solve_ns = elapsed_solve () in
       Mpl_obs.Metrics.observe t.latency_h (Int64.to_float solve_ns);
       let served = Mpl_obs.Metrics.incr_get t.served_c in
       let e = report.Mpl.Decomposer.engine in
       finish ~circuit ~solve_ns ~pieces:e.Mpl_engine.Engine.pieces
         ~cache_hits:e.Mpl_engine.Engine.hits
         ~degraded:res.Mpl.Decomposer.degraded ~outcome:"ok" ~sink;
       if
         t.config.persist_every > 0
         && served mod t.config.persist_every = 0
       then save_cache t
     with
    | Mpl_engine.Pool.Cancelled -> (
      sweep ();
      let solve_ns = elapsed_solve () in
      if !disconnected then
        (* No reply: there is no one left to read it. *)
        finish ~circuit ~solve_ns ~pieces:0 ~cache_hits:0 ~degraded:0
          ~outcome:"disconnected" ~sink
      else if Mpl_engine.Pool.expired token then begin
        let deadline_ms = Option.value ~default:0 rp.Proto.deadline_ms in
        let elapsed_ms =
          Int64.to_int
            (Int64.div
               (Int64.sub (Mpl_util.Timer.now_ns ()) admit_ns)
               1_000_000L)
        in
        (try send_flush cio (Proto.timeout_line ~deadline_ms ~elapsed_ms)
         with Client_gone _ -> ());
        finish ~circuit ~solve_ns ~pieces:0 ~cache_hits:0 ~degraded:0
          ~outcome:"timeout" ~sink
      end
      else begin
        (try send_flush cio (Proto.cancelled_line ~reason:"shutdown")
         with Client_gone _ -> ());
        finish ~circuit ~solve_ns ~pieces:0 ~cache_hits:0 ~degraded:0
          ~outcome:"cancelled" ~sink
      end)
    | Client_gone w ->
      abort ();
      sweep ();
      (* A write timeout is a reap (we gave up on a stalled reader); a
         Closed is the peer giving up on us. Both cancel the same way. *)
      if w = Connio.Timeout then Mpl_obs.Metrics.incr t.reaped_c;
      finish ~circuit ~solve_ns:(elapsed_solve ()) ~pieces:0 ~cache_hits:0
        ~degraded:0 ~outcome:"disconnected" ~sink
    | Rejected { code; msg } ->
      sweep ();
      Mpl_obs.Metrics.incr t.errors_c;
      (try send_flush cio (Proto.err_line ~code msg)
       with Client_gone _ -> ());
      finish ~circuit ~solve_ns:(elapsed_solve ()) ~pieces:0 ~cache_hits:0
        ~degraded:0 ~outcome:"error" ~sink
    | e ->
      sweep ();
      Mpl_obs.Metrics.incr t.errors_c;
      (try
         send_flush cio (Proto.err_line ~code:"internal" (Printexc.to_string e))
       with Client_gone _ -> ());
      finish ~circuit ~solve_ns:(elapsed_solve ()) ~pieces:0 ~cache_hits:0
        ~degraded:0 ~outcome:"error" ~sink)
  end

let run_request t cio (rp : Proto.request) (tm : req_timing) body =
  match Mpl_layout.Layout_io.of_string body with
  | exception Mpl_layout.Layout_io.Parse_error { line; msg } ->
    Mpl_obs.Metrics.incr t.errors_c;
    (try send_flush cio (Proto.err_line ~code:"parse" ~line msg)
     with Client_gone _ -> ());
    finish_request t rp tm ~body_len:(String.length body) ~circuit:""
      ~solve_ns:0L ~pieces:0 ~cache_hits:0 ~degraded:0 ~outcome:"parse"
      ~sink:None
  | layout ->
    let circuit = layout.Mpl_layout.Layout.name in
    let min_s =
      Option.value rp.Proto.min_s
        ~default:
          (Mpl_layout.Layout.min_s_for ~k:rp.Proto.k
             Mpl_layout.Layout.default_tech)
    in
    run_pipeline t cio rp tm ~body_len:(String.length body) ~circuit
      ~solve:(fun ~req_obs ~params ~shared_cache ~on_component ->
        (* Sharded requests never build the whole-layout graph: the
           server's per-request residency stays bounded by the largest
           window even for very large bodies. *)
        if rp.Proto.windows > 1 then
          ( Mpl.Decomposer.decompose_sharded ~params ~obs:req_obs ~pool:t.pool
              ?shared_cache ~on_component ~windows:rp.Proto.windows ~min_s
              rp.Proto.algo layout,
            [] )
        else begin
          let g = Mpl.Decomp_graph.of_layout ~obs:req_obs layout ~min_s in
          let report =
            Mpl.Decomposer.assign ~params ~obs:req_obs ~pool:t.pool
              ?shared_cache ~on_component rp.Proto.algo g
          in
          (* Capture the finished run as an ECO session, so a later
             REDECOMPOSE against this layout can reuse every component
             the edit does not touch. *)
          if t.config.sessions > 0 then
            session_store t ~obs:req_obs
              (Mpl.Decomposer.snapshot ~params ~obs:req_obs ~min_s
                 rp.Proto.algo g layout report);
          (report, [])
        end)

let run_redecompose t cio ~hash (rp : Proto.request) (tm : req_timing) body =
  Mpl_obs.Metrics.incr t.eco_c;
  let body_len = String.length body in
  let fail ~code ~outcome msg =
    Mpl_obs.Metrics.incr t.errors_c;
    (try send_flush cio (Proto.err_line ~code msg) with Client_gone _ -> ());
    finish_request t rp tm ~body_len ~circuit:"" ~solve_ns:0L ~pieces:0
      ~cache_hits:0 ~degraded:0 ~outcome ~sink:None
  in
  if rp.Proto.windows > 1 then
    fail ~code:"proto" ~outcome:"error"
      "REDECOMPOSE does not take windows (the dirty sub-layout is already \
       bounded)"
  else
    match session_find t hash with
    | None ->
      fail ~code:"session" ~outcome:"session"
        (Printf.sprintf
           "no session for layout hash %s (DECOMPOSE the base layout first, \
            or raise --sessions)"
           hash)
    | Some prev -> (
      match Mpl.Eco.parse_edits body with
      | Error msg -> fail ~code:"parse" ~outcome:"parse" msg
      | Ok edits ->
        let circuit =
          "eco:" ^ String.sub hash 0 (min 12 (String.length hash))
        in
        run_pipeline t cio rp tm ~body_len ~circuit
          ~solve:(fun ~req_obs ~params ~shared_cache ~on_component ->
            match
              Mpl.Decomposer.redecompose ~params ~obs:req_obs ~pool:t.pool
                ?shared_cache ~on_component ~prev ~edits rp.Proto.algo
            with
            | Error msg -> raise (Rejected { code = "session"; msg })
            | Ok (_edited, report, next) ->
              session_store t ~obs:req_obs next;
              let reused, dirty, features =
                match report.Mpl.Decomposer.eco with
                | Some e ->
                  ( e.Mpl.Decomposer.reused_components,
                    e.Mpl.Decomposer.dirty_components,
                    e.Mpl.Decomposer.dirty_features )
                | None -> (0, 0, 0)
              in
              (report, [ Proto.reused_line ~reused ~dirty ~features ])))

(* Shared admission front-end for the two body-carrying verbs: size
   cap, body read, inflight accounting, BUSY, then [run]. *)
let handle_submit t cio nbytes rp ~run =
  let recv_ns = Mpl_util.Timer.now_ns () in
  if nbytes > t.config.max_body_bytes then begin
    (* Refuse before allocating or reading: an absurd length prefix
       must not let one connection balloon server memory. *)
    (try
       send_flush cio
         (Proto.err_line ~code:"proto"
            (Printf.sprintf "request body too large (%d > %d bytes)" nbytes
               t.config.max_body_bytes))
     with Client_gone _ -> ());
    false
  end
  else
    match Connio.read_exact cio nbytes with
    | Error `Eof ->
      (try send_flush cio (Proto.err_line ~code:"proto" "truncated request body")
       with Client_gone _ -> ());
      false
    | Error `Timeout ->
      (* Stalled mid-upload: reap the connection. *)
      Mpl_obs.Metrics.incr t.reaped_c;
      false
    | Ok body ->
    let admitted, inflight =
      Mutex.lock t.lock;
      let ok =
        (not (Atomic.get t.stop)) && t.inflight < t.config.max_inflight
      in
      if ok then begin
        t.inflight <- t.inflight + 1;
        Mpl_obs.Metrics.set t.inflight_g (float_of_int t.inflight)
      end;
      let infl = t.inflight in
      Mutex.unlock t.lock;
      (ok, infl)
    in
    let queue_wait_ns = Int64.sub (Mpl_util.Timer.now_ns ()) recv_ns in
    Mpl_obs.Metrics.observe t.queue_wait_h (Int64.to_float queue_wait_ns);
    let tm =
      { rid = fresh_rid t; recv_ns; queue_wait_ns; first_piece_ns = -1L }
    in
    if not admitted then begin
      Mpl_obs.Metrics.incr t.rejected_c;
      (try
         send_flush cio (Proto.busy_line ~inflight ~limit:t.config.max_inflight)
       with Client_gone _ -> ());
      finish_request t rp tm ~body_len:(String.length body) ~circuit:""
        ~solve_ns:0L ~pieces:0 ~cache_hits:0 ~degraded:0 ~outcome:"busy"
        ~sink:None
    end
    else
      Fun.protect
        ~finally:(fun () ->
          Mutex.lock t.lock;
          t.inflight <- t.inflight - 1;
          Mpl_obs.Metrics.set t.inflight_g (float_of_int t.inflight);
          Condition.broadcast t.drained;
          Mutex.unlock t.lock)
        (fun () -> run t cio rp tm body);
    true

let handle_decompose t cio nbytes rp = handle_submit t cio nbytes rp ~run:run_request

let handle_redecompose t cio nbytes hash rp =
  handle_submit t cio nbytes rp ~run:(fun t cio rp tm body ->
      run_redecompose t cio ~hash rp tm body)

(* ------------------------------------------------------------------ *)
(* HTTP admin plane *)

(* The line listener doubles as a minimal HTTP/1.0 responder: a
   connection whose first line is an HTTP request-line gets exactly one
   response and is closed. This keeps curl/Prometheus reachable over
   the very same socket the decompose protocol uses — no second
   listener, no extra select loop. *)

let requests_json t =
  let entries = match t.req_ring with Some r -> Ring.entries r | None -> [] in
  let open Mpl_obs.Json in
  let entry_json (e : Ring.entry) =
    Obj
      [
        ("id", Int e.Ring.id);
        ("circuit", Str e.Ring.circuit);
        ("algo", Str e.Ring.algo);
        ("k", Int e.Ring.k);
        ("bytes", Int e.Ring.bytes);
        ("pieces", Int e.Ring.pieces);
        ("cache_hits", Int e.Ring.cache_hits);
        ("degraded", Int e.Ring.degraded);
        ("outcome", Str e.Ring.outcome);
        ("queue_wait_ms", Float (ns_to_ms (Int64.to_float e.Ring.queue_wait_ns)));
        ( "first_piece_ms",
          if e.Ring.first_piece_ns < 0L then Null
          else Float (ns_to_ms (Int64.to_float e.Ring.first_piece_ns)) );
        ("solve_ms", Float (ns_to_ms (Int64.to_float e.Ring.solve_ns)));
        ("total_ms", Float (ns_to_ms (Int64.to_float e.Ring.total_ns)));
        ("trace_events", Int (List.length e.Ring.trace));
      ]
  in
  to_string
    (Obj
       [
         ("capacity", Int (match t.req_ring with Some r -> Ring.capacity r | None -> 0));
         ("requests", List (List.map entry_json entries));
       ])

let healthz t =
  refresh_gauges t;
  Mutex.lock t.lock;
  let inflight = t.inflight in
  Mutex.unlock t.lock;
  let count = count (Mpl_obs.Metrics.snapshot t.metrics) in
  let stopping = Atomic.get t.stop in
  let depth = Mpl_engine.Pool.queue_depth t.pool in
  let bound = Mpl_engine.Pool.bound t.pool in
  let cs = Mpl_engine.Cache.stats t.cache in
  let accepting = not stopping in
  let inflight_ok = inflight < t.config.max_inflight in
  let queue_ok = depth < bound in
  let cache_ok =
    match cs.Mpl_engine.Cache.byte_budget with
    | None -> true
    | Some b -> cs.Mpl_engine.Cache.resident_bytes <= b
  in
  let ok = accepting && inflight_ok && queue_ok && cache_ok in
  let open Mpl_obs.Json in
  let body =
    to_string
      (Obj
         [
           ("status", Str (if ok then "ok" else "degraded"));
           ("accepting", Bool accepting);
           ("inflight", Int inflight);
           ("max_inflight", Int t.config.max_inflight);
           ("queue_depth", Int depth);
           ("queue_bound", Int bound);
           ("cancelled", Int (count "server.cancelled"));
           ("timeouts", Int (count "server.timeouts"));
           ("reaped_conns", Int (count "server.reaped_conns"));
           ("dropped_tasks", Int (count "server.dropped_tasks"));
           ("cache_bytes", Int cs.Mpl_engine.Cache.resident_bytes);
           ( "cache_budget",
             match cs.Mpl_engine.Cache.byte_budget with
             | Some b -> Int b
             | None -> Null );
         ])
  in
  (ok, body)

let http_status_reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 503 -> "Service Unavailable"
  | _ -> "Error"

let http_respond cio ~head_only ~status ~ctype body =
  send cio
    (Printf.sprintf
       "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
        Connection: close\r\n\r\n"
       status (http_status_reason status) ctype (String.length body));
  if not head_only then send cio body;
  match Connio.flush cio with
  | Ok () -> ()
  | Error e -> raise (Client_gone e)

let query_param query key =
  let prefix = key ^ "=" in
  let plen = String.length prefix in
  List.find_map
    (fun tok ->
      if String.length tok >= plen && String.sub tok 0 plen = prefix then
        Some (String.sub tok plen (String.length tok - plen))
      else None)
    (String.split_on_char '&' query)

let http_dispatch t path query =
  match path with
  | "/metrics" -> (200, "text/plain; version=0.0.4", prometheus t)
  | "/healthz" ->
    let ok, body = healthz t in
    ((if ok then 200 else 503), "application/json", body ^ "\n")
  | "/requests" -> (200, "application/json", requests_json t ^ "\n")
  | "/trace" -> (
    match query_param query "id" with
    | None -> (400, "text/plain", "missing id query parameter\n")
    | Some id_str -> (
      match int_of_string_opt id_str with
      | None -> (400, "text/plain", "id is not an integer\n")
      | Some id -> (
        match t.req_ring with
        | None -> (404, "text/plain", "request tracing disabled (ring=0)\n")
        | Some ring -> (
          match Ring.find ring id with
          | None -> (404, "text/plain", "unknown request id\n")
          | Some e ->
            ( 200,
              "application/json",
              Mpl_obs.Export.chrome_json
                ~process_name:(Printf.sprintf "mpld rid=%d" id)
                e.Ring.trace )))))
  | _ -> (404, "text/plain", "not found\n")

let is_http_line line =
  let has_prefix p =
    String.length line > String.length p && String.sub line 0 (String.length p) = p
  in
  has_prefix "GET " || has_prefix "HEAD "

let handle_http t cio line =
  Mpl_obs.Metrics.incr t.admin_c;
  (* Drain the request headers up to the blank line; this responder
     never reads a body (GET/HEAD only). Every header line is timed —
     a client that sent a request-line owes us the rest promptly
     (slowloris protection for the admin plane). *)
  let rec drain () =
    match Connio.read_line ~timed:true cio with
    | Error (`Eof | `Too_long) -> ()
    | Error `Timeout -> Mpl_obs.Metrics.incr t.reaped_c
    | Ok l ->
      let l =
        let n = String.length l in
        if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l
      in
      if l <> "" then drain ()
  in
  drain ();
  match
    List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim line))
  with
  | meth :: target :: _ ->
    let path, query =
      match String.index_opt target '?' with
      | None -> (target, "")
      | Some i ->
        ( String.sub target 0 i,
          String.sub target (i + 1) (String.length target - i - 1) )
    in
    let status, ctype, body = http_dispatch t path query in
    http_respond cio ~head_only:(meth = "HEAD") ~status ~ctype body
  | _ ->
    http_respond cio ~head_only:false ~status:400 ~ctype:"text/plain"
      "bad request\n"

let handle_line t cio line =
  if is_http_line line then begin
    handle_http t cio line;
    false
  end
  else
    match Proto.parse_command line with
    | Error msg ->
      send_flush cio (Proto.err_line ~code:"proto" msg);
      false
    | Ok Proto.Ping ->
      Mpl_obs.Metrics.incr t.admin_c;
      send_flush cio Proto.pong_line;
      true
    | Ok Proto.Stats ->
      Mpl_obs.Metrics.incr t.admin_c;
      send_flush cio (stats_json t ^ "\n");
      true
    | Ok Proto.Metrics ->
      Mpl_obs.Metrics.incr t.admin_c;
      send_flush cio (metrics_json t ^ "\n");
      true
    | Ok Proto.Quit ->
      Mpl_obs.Metrics.incr t.admin_c;
      send_flush cio Proto.bye_line;
      request_stop t;
      false
    | Ok (Proto.Decompose (nbytes, rp)) -> handle_decompose t cio nbytes rp
    | Ok (Proto.Redecompose (nbytes, hash, rp)) ->
      handle_redecompose t cio nbytes hash rp

let rec serve_conn t cio =
  match Connio.read_line cio with
  | Error `Eof -> ()
  | Error `Timeout ->
    (* A half-sent command line that stalled: slowloris, reaped. *)
    Mpl_obs.Metrics.incr t.reaped_c
  | Error `Too_long -> (
    try send_flush cio (Proto.err_line ~code:"proto" "line too long")
    with Client_gone _ -> ())
  | Ok line -> (
    match handle_line t cio line with
    | true -> serve_conn t cio
    | false -> ()
    | exception Client_gone Connio.Timeout ->
      (* The peer stopped draining its socket mid-reply: reap it. The
         request path handles its own Client_gone (it has a request to
         account); what reaches here is admin/HTTP replies. *)
      Mpl_obs.Metrics.incr t.reaped_c
    | exception Client_gone Connio.Closed -> ())

let spawn_handler t fd =
  let cell = ref None in
  Mutex.lock t.lock;
  t.conns <- (fd, cell) :: t.conns;
  Mutex.unlock t.lock;
  let th =
    Thread.create
      (fun () ->
        let cio =
          Connio.create ~fault:t.fault
            ~read_timeout_s:t.config.read_timeout_s
            ~write_timeout_s:t.config.write_timeout_s fd
        in
        (try serve_conn t cio
         with _ -> () (* a dying connection never takes the server down *));
        Mutex.lock t.lock;
        t.conns <- List.filter (fun (f, _) -> f != fd) t.conns;
        Mutex.unlock t.lock;
        (* Connio owns the descriptor: this is the single close *)
        Connio.close cio)
      ()
  in
  cell := Some th

(* Test access to the telemetry ring. *)
let requests t = match t.req_ring with Some r -> Ring.entries r | None -> []

let trace_events t id =
  match t.req_ring with
  | None -> None
  | Some r -> Option.map (fun e -> e.Ring.trace) (Ring.find r id)

let make_unix_listener path =
  (match Unix.lstat path with
  | st when st.Unix.st_kind = Unix.S_SOCK -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let make_tcp_listener host port =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  fd

let run t =
  let listeners =
    (match t.config.unix_socket with
    | Some path ->
      let fd = make_unix_listener path in
      log t (Printf.sprintf "listening on unix:%s" path);
      [ (fd, Some path) ]
    | None -> [])
    @
    match t.config.tcp_port with
    | Some port ->
      let fd = make_tcp_listener t.config.tcp_host port in
      log t (Printf.sprintf "listening on tcp:%s:%d" t.config.tcp_host port);
      [ (fd, None) ]
    | None -> []
  in
  let listen_fds = List.map fst listeners in
  let rec accept_loop () =
    if not (Atomic.get t.stop) then begin
      match Unix.select (t.stop_r :: listen_fds) [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | ready, _, _ ->
        if List.mem t.stop_r ready || Atomic.get t.stop then ()
        else begin
          List.iter
            (fun lfd ->
              if List.mem lfd ready then
                match Unix.accept lfd with
                | cfd, _ -> spawn_handler t cfd
                | exception Unix.Unix_error _ -> ())
            listen_fds;
          accept_loop ()
        end
    end
  in
  accept_loop ();
  (* Graceful drain: no new connections, in-flight requests finish and
     send their full reply streams, then lingering idle connections are
     broken so their handlers exit. *)
  List.iter
    (fun (lfd, path) ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      match path with
      | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
      | None -> ())
    listeners;
  Mutex.lock t.lock;
  while t.inflight > 0 do
    Condition.wait t.drained t.lock
  done;
  let conns = t.conns in
  Mutex.unlock t.lock;
  List.iter
    (fun (fd, _) ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  List.iter
    (fun (_, cell) -> match !cell with Some th -> Thread.join th | None -> ())
    conns;
  save_cache t;
  Mpl_engine.Pool.shutdown t.pool;
  (match t.access with Some lg -> Mpl_obs.Logfile.close lg | None -> ());
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_w with Unix.Unix_error _ -> ());
  log t "stopped"
