(* End-to-end tests for the mpl_server subsystem: protocol round
   trips, server/one-shot parity (bit-identical colorings over a Unix
   socket, including concurrent older clients sending fields the
   protocol no longer has), the shared cross-request cache (second
   identical request fully cache-served), resilience reporting under
   fault injection, and the persisted-cache warm restart. *)

module Server = Mpl_server.Server
module Client = Mpl_server.Client
module Proto = Mpl_server.Proto
module Ring = Mpl_server.Ring
module Engine = Mpl_engine.Engine
module Fault = Mpl_engine.Fault
module D = Mpl.Decomposer
module C = Mpl.Coloring
module G = Mpl.Decomp_graph

(* ------------------------------------------------------------------ *)
(* Protocol round trips (pure, no sockets) *)

let test_proto_request_roundtrip () =
  let r =
    {
      Proto.k = 5;
      algo = D.Sdp_backtrack;
      jobs = 3;
      min_s = Some 110;
      cache = false;
      inject = Some { Fault.site = Fault.Solver_raise; seed = 9; shots = 2 };
      deadline_ms = Some 250;
      windows = 4;
    }
  in
  let line = Proto.encode_request r ~body_len:123 in
  Alcotest.(check bool) "newline-terminated" true
    (String.length line > 0 && line.[String.length line - 1] = '\n');
  match Proto.parse_command (String.sub line 0 (String.length line - 1)) with
  | Ok (Proto.Decompose (len, r')) ->
    Alcotest.(check int) "body length" 123 len;
    Alcotest.(check bool) "request fields survive" true (r' = r)
  | Ok _ -> Alcotest.fail "parsed as a different command"
  | Error msg -> Alcotest.failf "round trip failed: %s" msg

let test_proto_reply_roundtrips () =
  let check_roundtrip name line expected =
    Alcotest.(check bool) "line framed" true
      (line.[String.length line - 1] = '\n');
    match Proto.parse_reply (String.sub line 0 (String.length line - 1)) with
    | Ok r -> Alcotest.(check bool) name true (r = expected)
    | Error msg -> Alcotest.failf "%s: %s" name msg
  in
  check_roundtrip "busy" (Proto.busy_line ~inflight:4 ~limit:4)
    (Proto.Busy (4, 4));
  check_roundtrip "piece"
    (Proto.piece_line ~idx:2 ~back:[| 5; 9; 11 |] ~colors:[| 0; 3; 1 |])
    (Proto.Piece { idx = 2; cells = [| (5, 0); (9, 3); (11, 1) |] });
  check_roundtrip "done" (Proto.done_line [| 1; 0; 2; 3 |])
    (Proto.Done [| 1; 0; 2; 3 |]);
  check_roundtrip "err"
    (Proto.err_line ~code:"parse" ~line:12 "bad rect\nnext")
    (Proto.Err { code = "parse"; line = Some 12; msg = "bad rect; next" });
  let cost =
    {
      Proto.conflicts = 3;
      stitches = 7;
      scaled = 37;
      elapsed_s = 0.25;
      timed_out = false;
    }
  in
  check_roundtrip "cost" (Proto.cost_line cost) (Proto.Cost cost);
  check_roundtrip "timeout"
    (Proto.timeout_line ~deadline_ms:50 ~elapsed_ms:1312)
    (Proto.Timeout { deadline_ms = 50; elapsed_ms = 1312 });
  check_roundtrip "cancelled"
    (Proto.cancelled_line ~reason:"shutdown")
    (Proto.Cancelled "shutdown")

(* ------------------------------------------------------------------ *)
(* A small but non-trivial layout shared by every server test. *)

let spec =
  {
    Mpl_layout.Benchgen.name = "serve";
    seed = 7;
    rows = 2;
    cells_per_row = 6;
    density = 0.5;
    wire_fraction = 0.4;
    sparse_gap_prob = 0.7;
    native_five = 1;
    native_six = 0;
    hard_blocks = 0;
    stitch_gadgets = 1;
    penta_six = 0;
  }

let layout = lazy (Mpl_layout.Benchgen.generate spec)
let body = lazy (Mpl_layout.Layout_io.to_string (Lazy.force layout))
let min_s = 80

(* For the lifecycle tests: a quick graph build, then 32 hard blocks
   that each become a pool task of their own, slow enough under SDP
   that a request torn down mid-stream provably leaves work queued. *)
let slow_spec =
  { spec with Mpl_layout.Benchgen.name = "serve-slow"; hard_blocks = 32 }

let slow_body =
  lazy (Mpl_layout.Layout_io.to_string (Mpl_layout.Benchgen.generate slow_spec))

let reference = Hashtbl.create 4

(* One-shot result for parity checks, computed once per algorithm. *)
let one_shot algo =
  match Hashtbl.find_opt reference algo with
  | Some r -> r
  | None ->
    let _g, r = D.decompose ~min_s algo (Lazy.force layout) in
    Hashtbl.add reference algo r;
    r

let request ?(algo = D.Sdp_backtrack) ?(cache = true) ?inject () =
  {
    Proto.default_request with
    Proto.algo;
    cache;
    inject;
    min_s = Some min_s;
  }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Fields the protocol no longer has stay parseable: a request's
   [permuted=] key and a CACHE reply's [warm=] field are skipped like
   any unknown key, and today's CACHE line round-trips without one. *)
let test_proto_dropped_fields () =
  (match
     Proto.parse_command
       "DECOMPOSE 10 k=4 algo=linear priority=0 cache=1 permuted=1"
   with
  | Ok (Proto.Decompose (10, r)) ->
    Alcotest.(check bool) "permuted= ignored" true (r = Proto.default_request)
  | Ok _ -> Alcotest.fail "parsed as a different command"
  | Error msg -> Alcotest.failf "legacy request refused: %s" msg);
  (* An older client's priority= is ignored: the protocol has no
     request priority. *)
  (match Proto.parse_command "DECOMPOSE 10 k=4 algo=sdp-backtrack priority=5" with
  | Ok (Proto.Decompose (10, r)) ->
    Alcotest.(check bool) "priority= ignored" true
      (r = { Proto.default_request with Proto.algo = D.Sdp_backtrack })
  | Ok _ -> Alcotest.fail "parsed as a different command"
  | Error msg -> Alcotest.failf "legacy priority= request refused: %s" msg);
  (* An older client's window_nm= sizing key is ignored: the request
     runs unsharded, and sharding never changes a coloring. *)
  (match Proto.parse_command "DECOMPOSE 10 k=4 algo=linear window_nm=700" with
  | Ok (Proto.Decompose (10, r)) ->
    Alcotest.(check int) "window_nm= ignored" 1 r.Proto.windows;
    Alcotest.(check bool) "rest of the request intact" true
      (r = Proto.default_request)
  | Ok _ -> Alcotest.fail "parsed as a different command"
  | Error msg -> Alcotest.failf "legacy window_nm= request refused: %s" msg);
  let ci =
    {
      Proto.entries = 3;
      bytes = 512;
      hits = 7;
      misses = 2;
      corrupt_drops = 1;
      evictions = 0;
    }
  in
  let line = Proto.cache_line ci in
  Alcotest.(check bool) "no warm= field" false (contains line "warm=");
  let parse l = Proto.parse_reply (String.trim l) in
  Alcotest.(check bool) "CACHE round trip" true
    (parse line = Ok (Proto.Cache_info ci));
  Alcotest.(check bool) "older server's warm= skipped" true
    (parse
       "CACHE entries=3 bytes=512 hits=7 misses=2 warm=5 drops=1 evictions=0"
    = Ok (Proto.Cache_info ci))

(* ------------------------------------------------------------------ *)
(* Server harness: boot on a fresh Unix socket, run the body, then
   drain gracefully (request_stop + join runs the cache save). *)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "mpld-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

let with_server ?(jobs = 2) ?(max_inflight = 8) ?cache_budget ?persist
    ?(persist_every = 0) ?(ring = 32) ?access_log ?fault f =
  let sock = fresh_sock () in
  let cfg =
    {
      Server.default_config with
      Server.unix_socket = Some sock;
      jobs;
      max_inflight;
      cache_budget;
      persist;
      persist_every;
      ring;
      access_log;
      fault;
    }
  in
  let t = Server.create cfg in
  let th = Thread.create Server.run t in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop t;
      Thread.join th;
      try Sys.remove sock with Sys_error _ -> ())
    (fun () ->
      (* The listener binds asynchronously: poll until it accepts. *)
      let rec wait n =
        if n = 0 then Alcotest.fail "server did not come up";
        match Client.connect_unix sock with
        | c -> Client.close c
        | exception Unix.Unix_error _ ->
          Thread.delay 0.01;
          wait (n - 1)
      in
      wait 500;
      f sock t)

let with_client sock f =
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "request failed: %s" (Client.error_to_string e)

(* The lifecycle tests write into sockets the server may already have
   torn down; EPIPE must surface as Unix_error, not kill the runner. *)
let () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

(* One integer counter out of the STATS "server" block. *)
let server_counter stats name =
  match Mpl_obs.Json.parse stats with
  | Error e -> Alcotest.failf "stats not JSON: %s" e
  | Ok v -> (
    match Mpl_obs.Json.member "server" v with
    | None -> Alcotest.fail "stats has no server block"
    | Some server -> (
      match Mpl_obs.Json.member name server with
      | Some (Mpl_obs.Json.Int n) -> n
      | _ -> Alcotest.failf "stats server.%s missing" name))

(* Teardown is asynchronous to the client's view of the connection:
   poll for the server-side effect instead of sleeping blindly. *)
let rec poll_until ?(tries = 500) msg f =
  if not (f ()) then
    if tries = 0 then Alcotest.fail msg
    else begin
      Thread.delay 0.01;
      poll_until ~tries:(tries - 1) msg f
    end

(* Raw-socket client for misbehaving-peer tests (the Client module is
   deliberately too well-behaved to vanish mid-request). *)
let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let raw_write fd s =
  let n = String.length s in
  let rec go i =
    if i < n then
      match Unix.write_substring fd s i (n - i) with
      | w -> go (i + w)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  go 0


(* ------------------------------------------------------------------ *)
(* Parity: the served result is bit-identical to the one-shot path. *)

let check_parity algo (out : Client.outcome) =
  let r = one_shot algo in
  Alcotest.(check (array int)) "bit-identical coloring" r.D.colors out.colors;
  Alcotest.(check int) "same conflicts" r.D.cost.C.conflicts
    out.cost.Proto.conflicts;
  Alcotest.(check int) "same stitches" r.D.cost.C.stitches
    out.cost.Proto.stitches;
  Alcotest.(check bool) "stream matches final coloring" true
    out.streams_consistent;
  Alcotest.(check bool) "pieces were streamed" true (out.streamed_pieces > 0)

(* An older client's DECOMPOSE of the shared layout, written straight
   to the socket with [fields] verbatim after the body length, so keys
   the protocol no longer has reach the server as that client sent
   them. The reply stream is read back into a [Client.outcome]. *)
let legacy_decompose sock fields =
  let body = Lazy.force body in
  let fd = raw_connect sock in
  let ic = Unix.in_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      raw_write fd
        (Printf.sprintf "DECOMPOSE %d %s min_s=%d\n%s" (String.length body)
           fields min_s body);
      let rec read pieces cost resilience =
        match Proto.parse_reply (input_line ic) with
        | Ok (Proto.Piece { cells; _ }) -> read (cells :: pieces) cost resilience
        | Ok (Proto.Cost c) -> read pieces (Some c) resilience
        | Ok (Proto.Resilience r) -> read pieces cost (Some r)
        | Ok (Proto.Done colors) -> (
          match (cost, resilience) with
          | Some cost, Some resilience ->
            {
              Client.colors;
              rid = None;
              streamed_pieces = List.length pieces;
              streamed_cells =
                List.fold_left (fun n cs -> n + Array.length cs) 0 pieces;
              streams_consistent =
                List.for_all
                  (Array.for_all (fun (v, c) -> colors.(v) = c))
                  pieces;
              cost;
              engine = None;
              resilience;
              cache = None;
              reused = None;
            }
          | _ -> Alcotest.fail "DONE before COST/RESILIENCE")
        | Ok (Proto.Err { msg; _ }) -> Alcotest.failf "served ERR: %s" msg
        | Ok _ -> read pieces cost resilience
        | Error msg -> Alcotest.failf "bad reply: %s" msg
      in
      read [] None None)

(* An older client's request carrying [permuted=1], sent twice: both
   replies (the second served from the shared cache) carry the
   one-shot coloring. *)
let test_serve_legacy_permuted () =
  with_server (fun sock _t ->
      for _ = 1 to 2 do
        check_parity D.Sdp_backtrack
          (legacy_decompose sock
             "k=4 algo=sdp-backtrack priority=0 cache=1 permuted=1")
      done)

let test_serve_parity () =
  with_server (fun sock _t ->
      with_client sock (fun c ->
          Alcotest.(check bool) "ping" true (Client.ping c);
          (* Two algorithms through one shared cache: the parameter
             salt keeps their entries apart. *)
          List.iter
            (fun algo ->
              let out = ok (Client.decompose c ~request:(request ~algo ()) (Lazy.force body)) in
              check_parity algo out)
            [ D.Sdp_backtrack; D.Linear ];
          (let s = ok (Client.stats c) in
           Alcotest.(check bool) "stats is JSON" true (s.[0] = '{');
           Alcotest.(check bool) "stats has server block" true
             (contains s "\"served\"");
           Alcotest.(check bool) "stats has cache block" true
             (contains s "\"cache\""));
          let m = ok (Client.metrics c) in
          Alcotest.(check bool) "metrics is JSON" true (m.[0] = '{')))

(* Older clients sending mixed [priority=] values concurrently: every
   reply is still bit-identical to the one-shot run. *)
let test_serve_concurrent_priorities () =
  with_server ~jobs:2 ~max_inflight:8 (fun sock _t ->
      let n = 8 in
      let priorities = [| 0; 9; 1; 5; 9; 0; 5; 1 |] in
      let results = Array.make n None in
      let worker i =
        let fields =
          Printf.sprintf "k=4 algo=sdp-backtrack priority=%d cache=1"
            priorities.(i)
        in
        results.(i) <-
          Some
            (try Ok (legacy_decompose sock fields)
             with e -> Error (Printexc.to_string e))
      in
      let threads = List.init n (fun i -> Thread.create worker i) in
      List.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          match r with
          | None -> Alcotest.failf "request %d never completed" i
          | Some (Error e) -> Alcotest.failf "request %d failed: %s" i e
          | Some (Ok out) -> check_parity D.Sdp_backtrack out)
        results)

(* ------------------------------------------------------------------ *)
(* Shared cache: a repeated request is served without solving. *)

let test_serve_repeat_cache_hits () =
  with_server (fun sock _t ->
      with_client sock (fun c ->
          let req = request () in
          let first = ok (Client.decompose c ~request:req (Lazy.force body)) in
          let second = ok (Client.decompose c ~request:req (Lazy.force body)) in
          Alcotest.(check (array int)) "identical colorings" first.colors
            second.colors;
          match second.engine with
          | None -> Alcotest.fail "expected engine stats"
          | Some e ->
            Alcotest.(check bool) "routed pieces" true (e.Engine.pieces > 0);
            Alcotest.(check int) "nothing solved fresh" 0 e.Engine.solved;
            Alcotest.(check int) "every piece cache-served" e.Engine.pieces
              e.Engine.hits;
            (match second.cache with
            | None -> Alcotest.fail "expected a CACHE line"
            | Some ci ->
              Alcotest.(check bool) "shared cache is resident" true
                (ci.Proto.entries > 0 && ci.Proto.bytes > 0))))

(* ------------------------------------------------------------------ *)
(* Fault injection: the RESILIENCE line reflects the degraded solve,
   and the degraded coloring is still complete, in range and honestly
   costed. *)

let test_serve_inject_resilience () =
  with_server ~jobs:1 (fun sock _t ->
      with_client sock (fun c ->
          let inject = { Fault.site = Fault.Solver_raise; seed = 0; shots = 1 } in
          let req = request ~cache:false ~inject () in
          let out = ok (Client.decompose c ~request:req (Lazy.force body)) in
          Alcotest.(check bool) "injection fired" true out.resilience.Proto.fired;
          Alcotest.(check bool) "solver failure recorded" true
            (out.resilience.Proto.piece_failures >= 1);
          Alcotest.(check bool) "fallback ladder ran" true
            (out.resilience.Proto.fallbacks >= 1);
          (* The injected raise is absorbed by the fallback ladder, so
             the engine driver itself never sees a failure. *)
          (match out.engine with
          | Some e -> Alcotest.(check int) "no driver-level failures" 0 e.Engine.failed
          | None -> Alcotest.fail "expected engine stats");
          (* Degraded, not wrong: the reply's cost must be the true cost
             of the reply's coloring. *)
          Alcotest.(check bool) "coloring complete" true
            (C.is_complete out.colors);
          Alcotest.(check bool) "coloring in range" true
            (C.check_range ~k:4 out.colors);
          let g = G.of_layout (Lazy.force layout) ~min_s in
          let cost = C.evaluate g out.colors in
          Alcotest.(check int) "honest conflicts" cost.C.conflicts
            out.cost.Proto.conflicts;
          Alcotest.(check int) "honest stitches" cost.C.stitches
            out.cost.Proto.stitches))

(* ------------------------------------------------------------------ *)
(* Request lifecycle: disconnect mid-stream, deadlines, injected
   write stalls, and protocol garbage — none of which may wedge a
   handler thread, leak an inflight slot, or run queued pieces of a
   dead request. *)

let outcome_in ring outcomes =
  List.exists (fun (e : Ring.entry) -> List.mem e.Ring.outcome outcomes) ring

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_serve_disconnect_drops_queued () =
  (* The client vanishes exactly at the first PIECE send: Conn_drop's
     third occurrence on this connection (body read, ACK, first piece).
     Injection makes the race-free version of pulling the plug. The
     pool has a worker domain, so the driver keeps every hard block in
     flight; the two consumers have solved only the first few when the
     first piece goes out, the rest are still queued, and none of them
     may ever run. (A pool of width 1 forces each component right after
     its push, so it has nothing queued to drop.) *)
  let access_log = Filename.temp_file "mpld-access" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove access_log with Sys_error _ -> ())
    (fun () ->
      with_server ~jobs:2 ~access_log
        ~fault:{ Fault.site = Fault.Conn_drop; seed = 2; shots = 1 }
        (fun sock t ->
          (with_client sock (fun c ->
               match
                 Client.decompose c
                   ~request:(request ~cache:false ())
                   (Lazy.force slow_body)
               with
               | Ok _ -> Alcotest.fail "expected the dropped conn to fail"
               | Error e ->
                 Alcotest.(check bool) "client sees transport trouble" true
                   (Client.retryable e)));
          poll_until "disconnect never landed in the ring" (fun () ->
              outcome_in (Server.requests t) [ "disconnected" ]);
          poll_until "inflight slot never released" (fun () ->
              server_counter (Server.stats_json t) "inflight" = 0);
          let stats = Server.stats_json t in
          Alcotest.(check bool) "queued pieces were dropped unrun" true
            (server_counter stats "dropped_tasks" >= 1);
          Alcotest.(check bool) "teardown counted as cancelled" true
            (server_counter stats "cancelled" >= 1);
          (* One access-log line, outcome "disconnected", and never a
             backtrace dumped into the log. *)
          let log = read_file access_log in
          Alcotest.(check bool) "access log has the disconnect" true
            (contains log "\"disconnected\"");
          Alcotest.(check bool) "no backtrace in the log" false
            (contains log "Raised at");
          (* The server shrugs it off: the fault is spent, so the same
             request now round-trips bit-identically. *)
          with_client sock (fun c ->
              Alcotest.(check bool) "server still answers" true
                (Client.ping c);
              let out =
                ok (Client.decompose c ~request:(request ()) (Lazy.force body))
              in
              check_parity D.Sdp_backtrack out)))

let test_serve_deadline_timeout () =
  (* The deadline trips the request's token 50 ms into its assignment:
     late enough that the quick graph build and the division have
     queued the request's pool tasks even on a loaded machine. The
     pool has a worker domain, so the driver keeps every component in
     flight (a pool of width 1 would force each one right after its
     push and hold nothing queued). Every pool task busy-waits 5 ms
     before it runs, so the 33 tasks keep the two consumers busy for at
     least 82 ms and some are still queued when the deadline passes;
     they are dropped at dequeue. *)
  with_server ~jobs:2
    ~fault:{ Fault.site = Fault.Worker_delay; seed = 0; shots = 1_000_000 }
    (fun sock t ->
      with_client sock (fun c ->
          let req =
            { (request ~cache:false ()) with Proto.deadline_ms = Some 50 }
          in
          (match Client.decompose c ~request:req (Lazy.force slow_body) with
          | Ok _ -> Alcotest.fail "expected TIMEOUT, the request completed"
          | Error (Client.Timed_out { deadline_ms; elapsed_ms }) ->
            Alcotest.(check int) "echoed deadline" 50 deadline_ms;
            Alcotest.(check bool) "elapsed past the deadline" true
              (elapsed_ms >= 50)
          | Error e ->
            Alcotest.failf "expected TIMEOUT, got %s"
              (Client.error_to_string e));
          (* TIMEOUT is terminal for the request, not the connection. *)
          Alcotest.(check bool) "connection still usable" true (Client.ping c));
      poll_until "timeout outcome never reached the ring" (fun () ->
          outcome_in (Server.requests t) [ "timeout" ]);
      let stats = Server.stats_json t in
      Alcotest.(check bool) "timeouts counted" true
        (server_counter stats "timeouts" >= 1);
      Alcotest.(check bool) "cancelled pieces dropped unrun" true
        (server_counter stats "dropped_tasks" >= 1))

(* A deadline the request meets changes nothing: the reply is the
   one-shot coloring, with no degraded piece and no timeout flag. *)
let test_serve_met_deadline () =
  with_server ~jobs:2 (fun sock _t ->
      with_client sock (fun c ->
          let req = { (request ()) with Proto.deadline_ms = Some 600_000 } in
          let out = ok (Client.decompose c ~request:req (Lazy.force body)) in
          check_parity D.Sdp_backtrack out;
          Alcotest.(check int) "nothing degraded" 0
            out.Client.resilience.Proto.degraded;
          Alcotest.(check bool) "not timed out" false
            out.Client.cost.Proto.timed_out))

let test_serve_write_stall_reaps () =
  with_server ~jobs:1
    ~fault:{ Fault.site = Fault.Write_stall; seed = 0; shots = 1 }
    (fun sock t ->
      (* The server's very first reply write stalls: the connection is
         reaped, the request torn down, and the client sees transport
         trouble it may retry — never a hang. *)
      (with_client sock (fun c ->
           match Client.decompose c ~request:(request ()) (Lazy.force body) with
           | Ok _ -> Alcotest.fail "expected the stalled reply to fail"
           | Error e ->
             Alcotest.(check bool) "transport error is retryable" true
               (Client.retryable e)));
      poll_until "stalled connection never reaped" (fun () ->
          server_counter (Server.stats_json t) "reaped_conns" >= 1);
      poll_until "torn-down request never left the ring" (fun () ->
          outcome_in (Server.requests t) [ "disconnected" ]);
      (* shots = 1: the fault is spent, a plain retry succeeds. *)
      with_client sock (fun c ->
          let out =
            ok (Client.decompose c ~request:(request ()) (Lazy.force body))
          in
          check_parity D.Sdp_backtrack out))

let test_serve_protocol_fuzz () =
  with_server ~jobs:1 (fun sock t ->
      let rng = Mpl_util.Rng.create 0xf02 in
      let n_streams = 1000 in
      for _ = 1 to n_streams do
        let fd = raw_connect sock in
        let payload =
          match Mpl_util.Rng.int rng 4 with
          | 0 ->
            (* binary garbage, newlines included by chance *)
            String.init
              (Mpl_util.Rng.int rng 200)
              (fun _ -> Char.chr (Mpl_util.Rng.int rng 256))
          | 1 ->
            (* truncated upload: promises a body, never delivers *)
            Printf.sprintf
              "DECOMPOSE %d k=4 algo=linear priority=0 cache=1\n"
              (1 + Mpl_util.Rng.int rng 4096)
          | 2 ->
            (* absurd length prefix: refused before any allocation *)
            "DECOMPOSE 999999999 k=4 algo=linear priority=0 cache=1\n"
          | _ ->
            (* a well-formed header torn mid-line *)
            let line =
              Proto.encode_request (request ()) ~body_len:64
            in
            String.sub line 0 (Mpl_util.Rng.int rng (String.length line))
        in
        raw_write fd payload;
        Unix.close fd
      done;
      (* Whatever the garbage did, the server still serves: PING after
         every stream, and not one inflight slot leaked. *)
      with_client sock (fun c ->
          Alcotest.(check bool) "ping after the storm" true (Client.ping c));
      poll_until "inflight leaked under fuzz" (fun () ->
          server_counter (Server.stats_json t) "inflight" = 0);
      with_client sock (fun c ->
          let out =
            ok (Client.decompose c ~request:(request ()) (Lazy.force body))
          in
          check_parity D.Sdp_backtrack out))

(* Any single armed network fault: a retrying client converges on the
   bit-identical coloring, and cancelled + timeouts accounts for every
   torn-down request in the ring. *)
let prop_network_fault_retry =
  QCheck.Test.make ~count:6 ~name:"serve: retry under one network fault"
    QCheck.(
      make
        ~print:(fun (site, seed) ->
          Printf.sprintf "%s seed=%d" (Fault.site_name site) seed)
        Gen.(
          pair
            (oneofl [ Fault.Conn_drop; Fault.Write_stall; Fault.Torn_frame ])
            (int_bound 3)))
    (fun (site, seed) ->
      with_server ~jobs:1 ~fault:{ Fault.site; seed; shots = 1 }
        (fun sock t ->
          let rec attempt n =
            if n = 0 then
              Alcotest.fail "fault never cleared within 10 attempts";
            let r =
              try
                with_client sock (fun c ->
                    Client.decompose c ~request:(request ()) (Lazy.force body))
              with Unix.Unix_error _ -> Error (Client.Protocol "connect")
            in
            match r with
            | Ok out -> out
            | Error e when Client.retryable e -> attempt (n - 1)
            | Error e ->
              Alcotest.failf "non-retryable under %s: %s" (Fault.site_name site)
                (Client.error_to_string e)
          in
          let out = attempt 10 in
          let reference = one_shot D.Sdp_backtrack in
          let parity = out.Client.colors = reference.D.colors in
          (* Teardown bookkeeping finishes just after the client's view
             of the failure; settle before auditing the ring. *)
          poll_until "inflight never settled" (fun () ->
              server_counter (Server.stats_json t) "inflight" = 0);
          let entries = Server.requests t in
          let torn =
            List.length
              (List.filter
                 (fun (e : Ring.entry) ->
                   List.mem e.Ring.outcome
                     [ "timeout"; "cancelled"; "disconnected" ])
                 entries)
          in
          let known =
            List.for_all
              (fun (e : Ring.entry) ->
                List.mem e.Ring.outcome [ "ok"; "disconnected" ])
              entries
          in
          let stats = Server.stats_json t in
          let accounted =
            server_counter stats "cancelled" + server_counter stats "timeouts"
            = torn
          in
          parity && known && accounted))

(* ------------------------------------------------------------------ *)
(* HTTP admin plane: /metrics, /healthz, /requests, /trace?id= are all
   served on the protocol socket (request-line sniffing), and the
   artifacts pass the same validators tier1 runs on them. *)

let http_get sock path =
  with_client sock (fun c ->
      match Client.http c path with
      | Ok (status, body) -> (status, body)
      | Error e -> Alcotest.failf "GET %s: %s" path (Client.error_to_string e))

let test_serve_http_admin () =
  with_server (fun sock t ->
      (* Serve one request first so every endpoint has data. *)
      let out =
        with_client sock (fun c ->
            ok (Client.decompose c ~request:(request ()) (Lazy.force body)))
      in
      let rid =
        match out.Client.rid with
        | Some rid -> rid
        | None -> Alcotest.fail "ACK carried no rid"
      in
      (* A ring entry records the fully written reply, so it lands just
         after the client has read DONE: wait for the server side. *)
      poll_until "the served request never reached the ring" (fun () ->
          Server.trace_events t rid <> None);
      (* /metrics: valid Prometheus text exposition. *)
      let status, text = http_get sock "/metrics" in
      Alcotest.(check int) "/metrics status" 200 status;
      (match Mpl_obs.Export.validate_prometheus text with
      | Ok n -> Alcotest.(check bool) "/metrics samples" true (n > 10)
      | Error e -> Alcotest.failf "/metrics invalid: %s" e);
      Alcotest.(check bool) "/metrics has served counter" true
        (contains text "mpl_server_served");
      Alcotest.(check bool) "/metrics has cache bytes gauge" true
        (contains text "mpl_cache_bytes");
      Alcotest.(check bool) "/metrics has e2e histogram" true
        (contains text "mpl_server_e2e_ns_bucket");
      (* /healthz: healthy and accepting. *)
      let status, health = http_get sock "/healthz" in
      Alcotest.(check int) "/healthz status" 200 status;
      Alcotest.(check bool) "/healthz ok" true (contains health "\"ok\"");
      (* /requests: the ring holds our request, newest first. *)
      let status, reqs = http_get sock "/requests" in
      Alcotest.(check int) "/requests status" 200 status;
      (match Mpl_obs.Json.parse reqs with
      | Error e -> Alcotest.failf "/requests not JSON: %s" e
      | Ok v -> (
        match Mpl_obs.Json.member "requests" v with
        | Some (Mpl_obs.Json.List (entry :: _)) ->
          Alcotest.(check bool) "entry has our rid" true
            (Mpl_obs.Json.member "id" entry = Some (Mpl_obs.Json.Int rid));
          Alcotest.(check bool) "entry outcome ok" true
            (Mpl_obs.Json.member "outcome" entry
            = Some (Mpl_obs.Json.Str "ok"))
        | _ -> Alcotest.fail "/requests entries missing"));
      (* /trace?id=: a valid Chrome trace of that one request. *)
      let status, trace =
        http_get sock (Printf.sprintf "/trace?id=%d" rid)
      in
      Alcotest.(check int) "/trace status" 200 status;
      (match
         Mpl_obs.Export.validate_chrome
           ~required:[ "assign"; "engine.batch" ]
           trace
       with
      | Ok spans -> Alcotest.(check bool) "/trace spans" true (spans > 0)
      | Error e -> Alcotest.failf "/trace invalid: %s" e);
      (* Unknown ids and paths fail cleanly. *)
      let status, _ = http_get sock "/trace?id=999999" in
      Alcotest.(check int) "unknown rid is 404" 404 status;
      let status, _ = http_get sock "/nope" in
      Alcotest.(check int) "unknown path is 404" 404 status;
      ignore t)

(* ------------------------------------------------------------------ *)
(* Request-scoped traces: under concurrent load, every
   ring entry's trace is well-nested and every one of its events is
   tagged with that request's rid — even though the shared pool lets
   one request's threads help solve another's pieces. *)

let test_serve_request_traces_concurrent () =
  with_server ~jobs:2 (fun sock t ->
      let n = 4 in
      let rids = Array.make n None in
      let worker i =
        with_client sock (fun c ->
            let out =
              ok (Client.decompose c ~request:(request ()) (Lazy.force body))
            in
            rids.(i) <- out.Client.rid)
      in
      let threads = List.init n (fun i -> Thread.create worker i) in
      List.iter Thread.join threads;
      let rids =
        Array.mapi
          (fun i rid ->
            match rid with
            | Some rid -> rid
            | None -> Alcotest.failf "request %d: no rid" i)
          rids
      in
      (* A ring entry records the fully written reply, so it lands just
         after the client has read DONE: wait for the server side. *)
      poll_until "a served request never reached the ring" (fun () ->
          Array.for_all (fun rid -> Server.trace_events t rid <> None) rids);
      Array.iter
        (fun rid ->
          match Server.trace_events t rid with
          | None -> Alcotest.failf "rid %d: no trace in the ring" rid
          | Some events ->
            Alcotest.(check bool)
              (Printf.sprintf "rid %d: non-empty trace" rid)
              true (events <> []);
            let tag = ("rid", Mpl_obs.Sink.Str (string_of_int rid)) in
            List.iter
              (fun (e : Mpl_obs.Sink.event) ->
                if not (List.mem tag e.Mpl_obs.Sink.args) then
                  Alcotest.failf "rid %d: event %s tagged %s" rid
                    e.Mpl_obs.Sink.name
                    (match
                       List.assoc_opt "rid" e.Mpl_obs.Sink.args
                     with
                    | Some (Mpl_obs.Sink.Str s) -> s
                    | _ -> "<none>"))
              events;
            Alcotest.(check bool)
              (Printf.sprintf "rid %d: well-nested" rid)
              true
              (Test_obs.well_nested events))
        rids;
      (* The ring kept all four, one entry per request. *)
      let entries = Server.requests t in
      Alcotest.(check bool) "ring holds all requests" true
        (List.length entries >= n))

(* ------------------------------------------------------------------ *)
(* Telemetry off (ring=0, no access log): the served path must stay
   bit-identical to the direct decomposition — no per-request sink, no
   clock-dependent behavior change. *)

let test_serve_invariance_telemetry_off () =
  with_server ~ring:0 (fun sock t ->
      with_client sock (fun c ->
          List.iter
            (fun algo ->
              let out =
                ok
                  (Client.decompose c ~request:(request ~algo ())
                     (Lazy.force body))
              in
              check_parity algo out)
            [ D.Sdp_backtrack; D.Linear ]);
      Alcotest.(check int) "ring stays empty" 0
        (List.length (Server.requests t));
      (* No request carried a deadline, and the run's cancel token
         carries the only deadline clock, with no counter of its own: no
         metric in the registry may name a deadline. *)
      let m = with_client sock (fun c -> ok (Client.metrics c)) in
      Alcotest.(check bool) "deadline clock never armed" false
        (contains m "deadline");
      (* The admin plane still answers; /trace just has nothing. *)
      let status, _ = http_get sock "/metrics" in
      Alcotest.(check int) "/metrics still served" 200 status;
      let status, _ = http_get sock "/trace?id=1" in
      Alcotest.(check int) "/trace disabled" 404 status)

(* ------------------------------------------------------------------ *)
(* Persistence: a restarted server answers from the reloaded cache. *)

let test_serve_persist_warm_restart () =
  let persist = Filename.temp_file "mpld-cache" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove persist with Sys_error _ -> ())
    (fun () ->
      Sys.remove persist;
      (* first life: populate the cache; every second served request
         saves it, before any shutdown *)
      let first =
        with_server ~persist ~persist_every:2 (fun sock _t ->
            with_client sock (fun c ->
                let decompose () =
                  ok
                    (Client.decompose c ~request:(request ())
                       (Lazy.force body))
                in
                ignore (decompose ());
                let r = decompose () in
                poll_until "second served request saved the cache" (fun () ->
                    Sys.file_exists persist);
                r))
      in
      (* second life: the very first request is answered warm *)
      with_server ~persist (fun sock _t ->
          with_client sock (fun c ->
              let out =
                ok (Client.decompose c ~request:(request ()) (Lazy.force body))
              in
              Alcotest.(check (array int)) "warm restart parity" first.colors
                out.colors;
              match out.engine with
              | None -> Alcotest.fail "expected engine stats"
              | Some e ->
                Alcotest.(check int) "no fresh solves after reload" 0
                  e.Engine.solved;
                Alcotest.(check int) "all pieces from the reloaded cache"
                  e.Engine.pieces e.Engine.hits)))

let suite =
  [
    Alcotest.test_case "proto: request round trip" `Quick
      test_proto_request_roundtrip;
    Alcotest.test_case "proto: reply round trips" `Quick
      test_proto_reply_roundtrips;
    Alcotest.test_case "proto: dropped permuted= and warm= fields" `Quick
      test_proto_dropped_fields;
    Alcotest.test_case "serve: legacy permuted=1 request" `Quick
      test_serve_legacy_permuted;
    Alcotest.test_case "serve: one-shot parity + admin" `Quick
      test_serve_parity;
    Alcotest.test_case "serve: concurrent mixed priorities" `Quick
      test_serve_concurrent_priorities;
    Alcotest.test_case "serve: repeat request fully cached" `Quick
      test_serve_repeat_cache_hits;
    Alcotest.test_case "serve: resilience under injection" `Quick
      test_serve_inject_resilience;
    Alcotest.test_case "serve: disconnect drops queued pieces" `Quick
      test_serve_disconnect_drops_queued;
    Alcotest.test_case "serve: hard deadline times out" `Quick
      test_serve_deadline_timeout;
    Alcotest.test_case "serve: met deadline is invisible" `Quick
      test_serve_met_deadline;
    Alcotest.test_case "serve: write stall reaps the connection" `Quick
      test_serve_write_stall_reaps;
    Alcotest.test_case "serve: protocol fuzz leaves a live server" `Quick
      test_serve_protocol_fuzz;
    QCheck_alcotest.to_alcotest prop_network_fault_retry;
    Alcotest.test_case "serve: HTTP admin plane" `Quick test_serve_http_admin;
    Alcotest.test_case "serve: per-request traces under concurrency" `Quick
      test_serve_request_traces_concurrent;
    Alcotest.test_case "serve: telemetry off is invariant" `Quick
      test_serve_invariance_telemetry_off;
    Alcotest.test_case "serve: persisted cache warm restart" `Quick
      test_serve_persist_warm_restart;
  ]
