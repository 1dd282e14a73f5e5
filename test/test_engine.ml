(* Tests for the mpl_engine subsystem: the work-stealing domain pool
   (ordering, exception propagation), the piece cache (a byte-identical
   piece hits, every other labeling is its own entry), the stream's
   deduplication, the atomic shared solver budget, and the
   end-to-end determinism / cache-correctness property: on random
   layouts, every algorithm produces identical (cn#, st#) and identical
   colorings at every jobs / cache setting. *)

module Pool = Mpl_engine.Pool
module Cache = Mpl_engine.Cache
module Engine = Mpl_engine.Engine
module G = Mpl.Decomp_graph
module C = Mpl.Coloring
module D = Mpl.Decomposer

(* ------------------------------------------------------------------ *)
(* Pool *)

(* Submit [f x] for every [x], then await the futures in input order. *)
let map_list pool f xs =
  let futs = List.map (fun x -> Pool.submit pool (fun () -> f x)) xs in
  List.map (Pool.await pool) futs

let test_pool_ordering () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let out = map_list pool (fun x -> x * x) (List.init 100 Fun.id) in
          Alcotest.(check (list int))
            (Printf.sprintf "squares in order at jobs=%d" jobs)
            (List.init 100 (fun x -> x * x))
            out))
    [ 1; 2; 4 ]

exception Boom of int

let test_pool_exception () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          match
            map_list pool
              (fun x -> if x = 37 then raise (Boom x) else x)
              (List.init 100 Fun.id)
          with
          | _ -> Alcotest.fail "expected Boom"
          | exception Boom x ->
            Alcotest.(check int)
              (Printf.sprintf "failing task's payload at jobs=%d" jobs)
              37 x))
    [ 1; 4 ]

let test_pool_await_isolates () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let ok = Pool.submit pool (fun () -> 41 + 1) in
      let bad = Pool.submit pool (fun () -> raise (Boom 7)) in
      let also_ok = Pool.submit pool (fun () -> "fine") in
      Alcotest.(check int) "ok future" 42 (Pool.await pool ok);
      (match Pool.await pool bad with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom x -> Alcotest.(check int) "payload isolated" 7 x);
      (* The failure is confined to its own future. *)
      Alcotest.(check string) "later future unaffected" "fine"
        (Pool.await pool also_ok))

let test_pool_reuse_after_await () =
  Pool.with_pool ~jobs:3 (fun pool ->
      (* Interleave submit/await rounds on one pool. *)
      for round = 0 to 4 do
        let futs = List.init 20 (fun i -> Pool.submit pool (fun () -> (round * 100) + i)) in
        List.iteri
          (fun i fut ->
            Alcotest.(check int) "round-trip" ((round * 100) + i) (Pool.await pool fut))
          futs
      done)

let test_pool_priority () =
  (* At jobs=1 nothing runs until the caller helps in [await], so the
     whole queue is visible when execution starts: tasks must run in
     (priority desc, submission order) heap order. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let ran = ref [] in
      let task tag () = ran := tag :: !ran in
      let futs =
        List.map
          (fun (prio, tag) -> Pool.submit ~priority:prio pool (task tag))
          [ (0, "a0"); (5, "b5"); (1, "c1"); (5, "d5"); (9, "e9") ]
      in
      List.iter (fun f -> Pool.await pool f) futs;
      Alcotest.(check (list string))
        "priority desc, FIFO among equals"
        [ "e9"; "b5"; "d5"; "c1"; "a0" ]
        (List.rev !ran))

let test_pool_bounded_backpressure () =
  (* A bound smaller than the burst: submission must make progress by
     helping (never deadlock, even at jobs=1) and every future must
     still resolve to its own result. *)
  Pool.with_pool ~jobs:1 ~bound:4 (fun pool ->
      let futs = List.init 32 (fun i -> Pool.submit pool (fun () -> i * 3)) in
      List.iteri
        (fun i fut ->
          Alcotest.(check int) "bounded round-trip" (i * 3) (Pool.await pool fut))
        futs)

let test_pool_cancel_drops_queued () =
  (* jobs = 1 leaves every submitted task queued until the caller
     helps, so a cancel before any await must drop all of them at
     dequeue time without a single body running. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let tok = Pool.token () in
      let ran = Atomic.make 0 in
      let k = 16 in
      let futs =
        List.init k (fun i ->
            Pool.submit ~cancel:tok pool (fun () ->
                Atomic.incr ran;
                i))
      in
      Alcotest.(check bool) "not yet cancelled" false (Pool.cancelled tok);
      Pool.cancel tok;
      Pool.cancel tok;
      (* idempotent *)
      Alcotest.(check bool) "cancelled" true (Pool.cancelled tok);
      (* The eager sweep settles the drop accounting without waiting
         for a consumer to stumble over the corpses. *)
      Alcotest.(check int) "sweep drops every queued task" k
        (Pool.discard_cancelled pool);
      Alcotest.(check int) "token counted every drop" k (Pool.drops tok);
      Alcotest.(check int) "queue emptied" 0 (Pool.queue_depth pool);
      Alcotest.(check int) "no task body ever ran" 0 (Atomic.get ran);
      List.iter
        (fun fut ->
          match Pool.await pool fut with
          | exception Pool.Cancelled -> ()
          | _ -> Alcotest.fail "dropped task returned a value")
        futs;
      (* The pool itself is unharmed: later uncancelled work runs. *)
      let f = Pool.submit pool (fun () -> 7) in
      Alcotest.(check int) "pool still serves" 7 (Pool.await pool f))

let test_pool_cancel_at_dequeue () =
  (* Without an eager sweep a cancelled task is dropped exactly when a
     consumer would otherwise run it; awaiting the batch observes every
     drop as Cancelled. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let tok = Pool.token () in
      let ran = Atomic.make 0 in
      let futs =
        List.init 8 (fun i ->
            Pool.submit ~cancel:tok pool (fun () ->
                Atomic.incr ran;
                i))
      in
      Pool.cancel tok;
      List.iter
        (fun fut ->
          match Pool.await pool fut with
          | exception Pool.Cancelled -> ()
          | _ -> Alcotest.fail "cancelled task ran")
        futs;
      Alcotest.(check int) "every task dropped at dequeue" 8
        (Pool.drops tok);
      Alcotest.(check int) "no task body ever ran" 0 (Atomic.get ran))

let test_pool_deadline_at_dequeue () =
  (* A token whose deadline has passed reads as cancelled at dequeue,
     with no cancel call and no thread: its queued task is dropped, and
     the token tells the deadline apart from an explicit cancel. A
     token without a deadline is unaffected. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let late = Pool.token () and plain = Pool.token () in
      Pool.arm_deadline late (-1.);
      let ran = Atomic.make 0 in
      let dropped =
        Pool.submit ~cancel:late pool (fun () -> Atomic.incr ran)
      in
      let kept = Pool.submit ~cancel:plain pool (fun () -> 7) in
      (match Pool.await pool dropped with
      | () -> Alcotest.fail "expired task ran"
      | exception Pool.Cancelled -> ());
      Alcotest.(check int) "one drop" 1 (Pool.drops late);
      Alcotest.(check int) "no task body ever ran" 0 (Atomic.get ran);
      Alcotest.(check bool) "expired" true (Pool.expired late);
      Pool.cancel late;
      Alcotest.(check bool) "a later cancel keeps the cause" true
        (Pool.expired late);
      Alcotest.(check int) "unarmed token's task ran" 7 (Pool.await pool kept);
      Alcotest.(check int) "unarmed token dropped nothing" 0 (Pool.drops plain);
      Alcotest.(check bool) "unarmed token live" false (Pool.cancelled plain);
      Pool.cancel plain;
      Alcotest.(check bool) "explicit cancel is not expiry" false
        (Pool.expired plain))

let test_pool_invalid () =
  Alcotest.check_raises "jobs=0 rejected" (Invalid_argument "Pool.create: jobs < 1")
    (fun () -> ignore (Pool.create ~jobs:0 ()));
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun () -> ())))

(* ------------------------------------------------------------------ *)
(* Cache *)

(* An undirected edge list as the CSR runs [Cache.signature] reads:
   every edge in both endpoints' runs, each run sorted and deduplicated. *)
let csr_of_edges ~n edges =
  let runs = Array.make n [] in
  List.iter
    (fun (u, v) ->
      runs.(u) <- v :: runs.(u);
      runs.(v) <- u :: runs.(v))
    edges;
  let runs = Array.map (List.sort_uniq Int.compare) runs in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun u r -> off.(u + 1) <- off.(u) + List.length r) runs;
  (off, Array.of_list (List.concat (Array.to_list runs)))

(* The parity oracle: the serialization built from edge lists, as the
   cache once did — each edge's (min, max) pair coded as min * n + max
   (whose integer order is the lexicographic pair order), the codes
   sorted, then written out. The CSR walk must produce these bytes. *)
let serial_of_edges ~salt ~n relations =
  let buf = Buffer.create 64 in
  if salt <> "" then begin
    Buffer.add_string buf salt;
    Buffer.add_char buf '!'
  end;
  Buffer.add_string buf (string_of_int n);
  Array.iter
    (fun es ->
      Buffer.add_char buf '|';
      let codes =
        Array.of_list
          (List.map
             (fun (u, v) -> if u <= v then (u * n) + v else (v * n) + u)
             es)
      in
      Array.sort Int.compare codes;
      Array.iter
        (fun c ->
          Buffer.add_string buf (Printf.sprintf "%d,%d;" (c / n) (c mod n)))
        codes)
    relations;
  Buffer.contents buf

let sig_of_edges ~n ~ce ~se =
  Cache.signature ~n ~relations:[| csr_of_edges ~n ce; csr_of_edges ~n se |]

(* Random graphs on 0..12 vertices whose three relations are disjoint
   sets of distinct edges, each listed in a random orientation and
   order; any relation may be empty. *)
let three_relation_gen =
  QCheck.Gen.(
    int_range 0 12 >>= fun n ->
    int_range 0 100 >>= fun density ->
    int_range 0 1_000_000 >|= fun seed ->
    let rng = Mpl_util.Rng.create seed in
    let rels = Array.make 3 [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Mpl_util.Rng.int rng 100 < density then begin
          let r = Mpl_util.Rng.int rng 3 in
          let e = if Mpl_util.Rng.bool rng then (u, v) else (v, u) in
          rels.(r) <- e :: rels.(r)
        end
      done
    done;
    let shuffle es =
      List.map snd
        (List.sort compare
           (List.map (fun e -> (Mpl_util.Rng.int rng 1_000_000, e)) es))
    in
    (n, Array.map shuffle rels))

let prop_signature_matches_edge_list_oracle =
  QCheck.Test.make ~name:"CSR signature = edge-list oracle" ~count:500
    (QCheck.make
       ~print:(fun (n, rels) ->
         Printf.sprintf "n=%d %s" n
           (String.concat " | "
              (Array.to_list
                 (Array.map
                    (fun es ->
                      String.concat ";"
                        (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) es))
                    rels))))
       three_relation_gen)
    (fun (n, rels) ->
      List.for_all
        (fun salt ->
          (Cache.signature_salted ~salt ~n
             ~relations:(Array.map (csr_of_edges ~n) rels))
            .Cache.serial
          = serial_of_edges ~salt ~n rels)
        [ ""; "Linear;k=4" ])

(* The decomposer signs pieces straight from their CSR: on every
   component of a synth, the bytes equal the oracle's on the piece's
   edge lists. *)
let test_piece_signature_parity () =
  let module G = Mpl.Decomp_graph in
  let g =
    G.of_layout
      (Mpl_layout.Benchgen.generate
         (Mpl_layout.Benchgen.synth ~stitch_gadgets:20 ~seed:2
            ~features:3_000 ()))
      ~min_s:80
  in
  let comps = Mpl_graph.Connectivity.components (G.union_graph g) in
  Alcotest.(check bool) "many components" true (Array.length comps > 100);
  Array.iter
    (fun (piece, _) ->
      let salt = "Linear;k=4" in
      let got =
        match Mpl.Decomposer.piece_signature ~salt piece with
        | Some s -> s.Cache.serial
        | None -> Alcotest.fail "piece too large to sign"
      in
      Alcotest.(check string) "serial"
        (serial_of_edges ~salt ~n:piece.G.n
           [|
             G.conflict_edges piece;
             G.stitch_edges piece;
             G.friendly_edges piece;
           |])
        got)
    (G.subgraphs g comps)

let test_cache_inequivalent_miss () =
  (* C6 vs two triangles: identical degree sequences (all 2-regular),
     but different edge sets, so different serializations. *)
  let c6 = sig_of_edges ~n:6 ~ce:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ] ~se:[] in
  let tri2 = sig_of_edges ~n:6 ~ce:[ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ] ~se:[] in
  Alcotest.(check bool) "different serials" false
    (String.equal c6.Cache.serial tri2.Cache.serial);
  (* Relation identity matters: a conflict path is not a stitch path. *)
  let conf = sig_of_edges ~n:3 ~ce:[ (0, 1); (1, 2) ] ~se:[] in
  let stit = sig_of_edges ~n:3 ~ce:[] ~se:[ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "relations distinguished" false
    (String.equal conf.Cache.serial stit.Cache.serial)

let test_cache_exact_requires_same_labeling () =
  let s1 = sig_of_edges ~n:3 ~ce:[ (0, 1); (1, 2) ] ~se:[] in
  let s2 = sig_of_edges ~n:3 ~ce:[ (2, 1); (1, 0) ] ~se:[] in
  (* same labeled graph, edges listed differently: serial equal *)
  let s3 = sig_of_edges ~n:3 ~ce:[ (0, 2); (2, 1) ] ~se:[] in
  (* relabeled path: serial different *)
  let cache = Cache.create () in
  Cache.store cache s1 ([| 0; 1; 0 |], ());
  (match Cache.find cache s2 with
  | Some (colors, ()) ->
    Alcotest.(check (array int)) "byte-identical piece returns stored coloring"
      [| 0; 1; 0 |] colors
  | None -> Alcotest.fail "expected exact hit");
  Alcotest.(check bool) "relabeled piece misses" true
    (Cache.find cache s3 = None)

let test_cache_labelings_are_entries () =
  (* A 4-path with a stitch edge at one end is asymmetric: degree
     refinement tells all four vertices apart, so all 24 labelings are
     isomorphic and pairwise different as labeled graphs. Each stored
     labeling is its own entry and must hit, however many there are. *)
  let perms =
    let rec go = function
      | [] -> [ [] ]
      | xs ->
        List.concat_map
          (fun x -> List.map (List.cons x) (go (List.filter (( <> ) x) xs)))
          xs
    in
    List.map Array.of_list (go [ 0; 1; 2; 3 ])
  in
  let labeled p =
    sig_of_edges ~n:4
      ~ce:[ (p.(0), p.(1)); (p.(1), p.(2)); (p.(2), p.(3)) ]
      ~se:[ (p.(0), p.(1)) ]
  in
  (* The path position of each vertex, as the stored coloring: every
     labeling gets a different one. *)
  let colors_of p =
    let c = Array.make 4 0 in
    Array.iteri (fun pos v -> c.(v) <- pos) p;
    c
  in
  let stored = List.filteri (fun i _ -> i < 10) perms in
  let cache = Cache.create () in
  List.iter (fun p -> Cache.store cache (labeled p) (colors_of p, ())) stored;
  Alcotest.(check int) "ten entries" 10 (Cache.length cache);
  List.iter
    (fun p ->
      match Cache.find cache (labeled p) with
      | Some (c, ()) ->
        Alcotest.(check (array int)) "own coloring" (colors_of p) c
      | None -> Alcotest.fail "stored labeling missed")
    stored;
  Alcotest.(check bool) "never-stored labeling misses" true
    (Cache.find cache (labeled (List.nth perms 10)) = None);
  Alcotest.(check (pair int int)) "hits, misses" (10, 1)
    (Cache.hits cache, Cache.misses cache)

(* ------------------------------------------------------------------ *)
(* Engine stream *)

(* Push every piece through one [Engine.stream] whose plant submits the
   piece's solve to [pool], then force the cells in push order. *)
let stream_all ~pool ?cache ?signature ?validate ?recover ~solve pieces =
  let plant piece =
    let fut = Pool.submit pool (fun () -> solve piece) in
    fun () -> Pool.await pool fut
  in
  let t = Engine.stream ?cache ?signature ?validate ?recover ~plant () in
  let cells = List.map (Engine.push t) pieces in
  let results = List.map (Engine.force t) cells in
  (results, Engine.finish t)

let test_engine_dedup () =
  (* Five pieces, two distinct labeled graphs: the driver must solve
     each distinct labeled piece once. *)
  let path a b c = (3, [ (a, b); (b, c) ]) in
  let pieces = [ path 0 1 2; path 0 1 2; path 2 1 0; path 0 2 1; path 0 1 2 ] in
  let solves = Atomic.make 0 in
  let solve (n, ce) =
    Atomic.incr solves;
    (* proper 2-coloring of a path by BFS would be overkill: brute it *)
    let s = sig_of_edges ~n ~ce ~se:[] in
    ignore s;
    (Array.init n (fun v -> v mod 2), ())
  in
  let signature (n, ce) = Some (sig_of_edges ~n ~ce ~se:[]) in
  Pool.with_pool ~jobs:2 (fun pool ->
      let cache = Cache.create () in
      let results, stats =
        stream_all ~pool ~cache ~signature ~solve pieces
      in
      Alcotest.(check int) "five results" 5 (List.length results);
      (* [path 0 1 2] appears three times (one leader + two reuses);
         [path 2 1 0] serializes identically to [path 0 1 2]?? No: the
         serial lists edges as sorted (min,max) pairs, so 0-1,1-2 and
         2-1,1-0 are the same labeled graph -> reused as well. [path 0 2 1]
         is a different labeling -> solved fresh. *)
      Alcotest.(check int) "distinct labelings solved"
        (Atomic.get solves) stats.Engine.solved;
      Alcotest.(check int) "two distinct labeled pieces" 2 stats.Engine.solved;
      Alcotest.(check int) "three batch reuses" 3 stats.Engine.reused)

let test_engine_prepopulated_cache () =
  let piece = (2, [ (0, 1) ]) in
  let signature (n, ce) = Some (sig_of_edges ~n ~ce ~se:[]) in
  let cache = Cache.create () in
  Pool.with_pool ~jobs:1 (fun pool ->
      let _, s1 =
        stream_all ~pool ~cache ~signature
          ~solve:(fun (n, _) -> (Array.make n 0, ()))
          [ piece ]
      in
      Alcotest.(check int) "first run solves" 1 s1.Engine.solved;
      let _, s2 =
        stream_all ~pool ~cache ~signature
          ~solve:(fun _ -> Alcotest.fail "must not re-solve")
          [ piece; piece ]
      in
      Alcotest.(check int) "second run all hits" 2 s2.Engine.hits)

let test_engine_recover () =
  (* A solver that dies on one piece: with [recover], the batch survives
     and only that piece gets the substitute result. *)
  let pieces = [ (2, [ (0, 1) ]); (3, [ (0, 1); (1, 2) ]); (2, [ (0, 1) ]) ] in
  let solve (n, ce) =
    if n = 3 then raise (Boom n);
    ignore ce;
    (Array.make n 0, `Solved)
  in
  let recover (n, _ce) e _bt =
    (match e with Boom 3 -> () | _ -> Alcotest.fail "wrong exception");
    (Array.make n 9, `Recovered)
  in
  Pool.with_pool ~jobs:2 (fun pool ->
      let results, stats =
        stream_all ~pool ~recover ~solve pieces
      in
      Alcotest.(check int) "one failure" 1 stats.Engine.failed;
      (match results with
      | [ (_, `Solved); (c, `Recovered); (_, `Solved) ] ->
        Alcotest.(check (array int)) "substitute coloring" [| 9; 9; 9 |] c
      | _ -> Alcotest.fail "unexpected batch results");
      (* Without [recover] the exception still escapes. *)
      match
        stream_all ~pool ~solve [ (3, [ (0, 1); (1, 2) ]) ]
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 3 -> ())

let test_engine_validate_rejects () =
  (* Prepopulate the cache with an out-of-range coloring; a validating
     driver must reject the hit and re-solve. *)
  let piece = (2, [ (0, 1) ]) in
  let signature (n, ce) = Some (sig_of_edges ~n ~ce ~se:[]) in
  let cache = Cache.create () in
  let s = sig_of_edges ~n:2 ~ce:[ (0, 1) ] ~se:[] in
  Cache.store cache s ([| 9; 9 |], ());
  let solves = Atomic.make 0 in
  let solve (n, _) =
    Atomic.incr solves;
    (Array.init n (fun v -> v), ())
  in
  let validate _ colors = Array.for_all (fun c -> c >= 0 && c < 4) colors in
  Pool.with_pool ~jobs:1 (fun pool ->
      let results, stats =
        stream_all ~pool ~cache ~signature ~validate ~solve [ piece ]
      in
      Alcotest.(check int) "hit rejected" 1 stats.Engine.rejected;
      Alcotest.(check int) "no accepted hit" 0 stats.Engine.hits;
      Alcotest.(check int) "re-solved" 1 (Atomic.get solves);
      match results with
      | [ (c, ()) ] ->
        Alcotest.(check (array int)) "fresh coloring used" [| 0; 1 |] c
      | _ -> Alcotest.fail "unexpected results")

(* Push and force a fresh heap copy of [piece] through [t]; the copy is
   recorded in [w] at [i] and referenced nowhere else by the caller
   ([piece] itself may be a static constant the GC never frees). *)
let[@inline never] push_force_tracked t w i (n, ce) =
  let item = (n, ce) in
  Weak.set w i (Some item);
  ignore (Engine.force t (Engine.push t item))

let test_engine_forgets_forced_leaders () =
  (* A forced leader's result is in the cache, so the stream must not
     keep the leader's piece reachable; a duplicate pushed afterwards
     hits the cache. A recovered leader's substitute is never cached,
     so its entry (and piece) stays for the duplicates that follow it. *)
  let signature (n, ce) = Some (sig_of_edges ~n ~ce ~se:[]) in
  let recover (n, _) _ _ = (Array.make n 9, ()) in
  let solve (n, _) = if n = 3 then raise (Boom n) else (Array.make n 0, ()) in
  Pool.with_pool ~jobs:1 (fun pool ->
      let plant piece =
        let fut = Pool.submit pool (fun () -> solve piece) in
        fun () -> Pool.await pool fut
      in
      let t =
        Engine.stream ~cache:(Cache.create ()) ~signature ~recover ~plant ()
      in
      let w = Weak.create 2 in
      push_force_tracked t w 0 (2, [ (0, 1) ]);
      push_force_tracked t w 1 (3, [ (0, 1); (1, 2) ]);
      Gc.full_major ();
      Alcotest.(check bool) "forced leader's piece unreachable" false
        (Weak.check w 0);
      Alcotest.(check bool) "recovered leader's piece kept" true
        (Weak.check w 1);
      let hit = Engine.push t (2, [ (0, 1) ]) in
      let follower = Engine.push t (3, [ (0, 1); (1, 2) ]) in
      Alcotest.(check (array int)) "duplicate served from the cache"
        [| 0; 0 |] (fst (Engine.force t hit));
      Alcotest.(check (array int)) "duplicate follows the recovered leader"
        [| 9; 9; 9 |] (fst (Engine.force t follower));
      let stats = Engine.finish t in
      Alcotest.(check (list int)) "solved, hits, reused, failed"
        [ 2; 1; 1; 1 ]
        [ stats.Engine.solved; stats.Engine.hits; stats.Engine.reused;
          stats.Engine.failed ])

let test_cache_corrupt_dropped () =
  (* An injected store-time corruption must be caught by the checksum:
     the damaged entry is dropped on probe, never returned. *)
  let fault =
    Mpl_engine.Fault.arm
      { Mpl_engine.Fault.site = Mpl_engine.Fault.Cache_corrupt;
        seed = 0; shots = 1 }
  in
  let cache = Cache.create ~fault () in
  let s = sig_of_edges ~n:2 ~ce:[ (0, 1) ] ~se:[] in
  Cache.store cache s ([| 0; 1 |], ());
  Alcotest.(check int) "entry stored" 1 (Cache.length cache);
  Alcotest.(check bool) "corrupted entry not served" true
    (Cache.find cache s = None);
  Alcotest.(check int) "drop counted" 1 (Cache.corrupt_drops cache);
  Alcotest.(check int) "entry evicted" 0 (Cache.length cache);
  (* The next store is past the injection window and survives. *)
  Cache.store cache s ([| 0; 1 |], ());
  match Cache.find cache s with
  | Some (c, ()) -> Alcotest.(check (array int)) "clean store hits" [| 0; 1 |] c
  | None -> Alcotest.fail "expected hit after clean store"

(* ------------------------------------------------------------------ *)
(* LRU byte budget + disk persistence *)

(* Distinct path graphs: every length gets its own entry. *)
let path_sig n =
  sig_of_edges ~n ~ce:(List.init (n - 1) (fun i -> (i, i + 1))) ~se:[]

let path_colors s = Array.init s.Cache.n (fun v -> v mod 2)

(* Measure what one entry is charged by storing it alone. *)
let entry_size s =
  let c = Cache.create () in
  Cache.store c s (path_colors s, ());
  Cache.bytes c

let test_cache_lru_eviction_order () =
  let a = path_sig 6 and b = path_sig 7 and c = path_sig 8 in
  (* d is strictly smaller than any resident entry, so pushing it over
     the budget evicts exactly one LRU victim. *)
  let d = path_sig 3 in
  let budget = entry_size a + entry_size b + entry_size c in
  let cache = Cache.create ~byte_budget:budget () in
  List.iter (fun s -> Cache.store cache s (path_colors s, ())) [ a; b; c ];
  Alcotest.(check int) "all three resident" 3 (Cache.length cache);
  (* Touch [a]: recency refresh makes [b] the LRU entry. *)
  Alcotest.(check bool) "refresh probe hits" true (Cache.find cache a <> None);
  Cache.store cache d (path_colors d, ());
  Alcotest.(check int) "one eviction" 1 (Cache.evictions cache);
  Alcotest.(check bool) "LRU victim evicted" true (Cache.find cache b = None);
  List.iter
    (fun (name, s) ->
      Alcotest.(check bool) (name ^ " survives") true (Cache.find cache s <> None))
    [ ("touched entry", a); ("recent entry", c); ("new entry", d) ];
  Alcotest.(check bool) "still within budget" true (Cache.bytes cache <= budget)

let test_cache_byte_budget () =
  let sigs = List.init 10 (fun i -> path_sig (i + 3)) in
  let total = List.fold_left (fun acc s -> acc + entry_size s) 0 sigs in
  let budget = total / 2 in
  let cache = Cache.create ~byte_budget:budget () in
  List.iter
    (fun s ->
      Cache.store cache s (path_colors s, ());
      Alcotest.(check bool) "resident bytes within budget" true
        (Cache.bytes cache <= budget))
    sigs;
  Alcotest.(check bool) "budget forced evictions" true
    (Cache.evictions cache > 0);
  Alcotest.(check bool) "not all entries resident" true
    (Cache.length cache < List.length sigs);
  (* The snapshot agrees with the individual accessors. *)
  let st = Cache.stats cache in
  Alcotest.(check int) "stats entries" (Cache.length cache) st.Cache.entries;
  Alcotest.(check int) "stats bytes" (Cache.bytes cache)
    st.Cache.resident_bytes;
  Alcotest.(check (option int)) "stats budget" (Some budget)
    st.Cache.byte_budget;
  Alcotest.(check int) "stats evictions" (Cache.evictions cache)
    st.Cache.s_evictions

let test_cache_salt_partitions () =
  let relations = [| csr_of_edges ~n:3 [ (0, 1); (1, 2) ]; csr_of_edges ~n:3 [] |] in
  let s4 = Cache.signature_salted ~salt:"k=4" ~n:3 ~relations in
  let s5 = Cache.signature_salted ~salt:"k=5" ~n:3 ~relations in
  Alcotest.(check bool) "salts split the key space" false
    (String.equal s4.Cache.serial s5.Cache.serial);
  let cache = Cache.create () in
  Cache.store cache s4 ([| 0; 1; 0 |], ());
  Alcotest.(check bool) "same piece, other salt: miss" true
    (Cache.find cache s5 = None);
  Alcotest.check_raises "newline salts rejected"
    (Invalid_argument "Cache.signature: salt must not contain newlines")
    (fun () ->
      ignore
        (Cache.signature_salted ~salt:"a\nb" ~n:1
           ~relations:[| csr_of_edges ~n:1 [] |]));
  Alcotest.check_raises "offsets of the wrong length rejected"
    (Invalid_argument "Cache.signature: offsets are not n + 1 long")
    (fun () ->
      ignore (Cache.signature ~n:3 ~relations:[| csr_of_edges ~n:2 [] |]));
  Alcotest.check_raises "out-of-range neighbors rejected"
    (Invalid_argument "Cache.signature: endpoint out of range") (fun () ->
      ignore (Cache.signature ~n:2 ~relations:[| ([| 0; 1; 1 |], [| 5 |]) |]))

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let write_lines path lines =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines

let test_cache_persist_roundtrip_corruption () =
  let sigs = [ path_sig 3; path_sig 4; path_sig 5 ] in
  let cache = Cache.create () in
  List.iter (fun s -> Cache.store cache s (path_colors s, ())) sigs;
  let path = Filename.temp_file "mplcache" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Cache.save cache ~value_to_string:(fun () -> "") path;
      (* Clean round trip: every entry survives and hits. *)
      let fresh = Cache.create () in
      let loaded, dropped =
        Cache.load fresh ~value_of_string:(fun _ -> Some ()) path
      in
      Alcotest.(check (pair int int)) "clean load" (3, 0) (loaded, dropped);
      List.iter
        (fun s ->
          match Cache.find fresh s with
          | Some (colors, ()) ->
            Alcotest.(check (array int)) "round-tripped coloring"
              (path_colors s) colors
          | None -> Alcotest.fail "entry lost in round trip")
        sigs;
      (* Flip one character of the SECOND entry's coloring line (the
         format is one header plus three lines per entry, LRU-first, so
         that is line index 2 + 3*1). The checksum must drop exactly
         that entry; its neighbours are untouched. *)
      let lines = Array.of_list (read_lines path) in
      Alcotest.(check int) "expected file shape" 10 (Array.length lines);
      Alcotest.(check string) "format version 2" "mplcache 2 3" lines.(0);
      let idx = 2 + (3 * 1) in
      let l = lines.(idx) in
      let last = String.length l - 1 in
      lines.(idx) <-
        String.sub l 0 last ^ (if l.[last] = '0' then "1" else "0");
      write_lines path (Array.to_list lines);
      let damaged = Cache.create () in
      let loaded, dropped =
        Cache.load damaged ~value_of_string:(fun _ -> Some ()) path
      in
      Alcotest.(check (pair int int)) "one entry dropped" (2, 1)
        (loaded, dropped);
      Alcotest.(check bool) "corrupted entry gone" true
        (Cache.find damaged (path_sig 4) = None);
      Alcotest.(check bool) "first neighbour intact" true
        (Cache.find damaged (path_sig 3) <> None);
      Alcotest.(check bool) "second neighbour intact" true
        (Cache.find damaged (path_sig 5) <> None);
      (* A file of the old canonical-key format (version 1: a mode in
         the header, a key line per entry) is refused outright. *)
      write_lines path
        [ "mplcache 1 exact 1"; "3|0,1;1,2;|"; "3|0,1;1,2;|"; "0 3 0 1 0"; "" ];
      let fresh = Cache.create () in
      match Cache.load fresh ~value_of_string:(fun _ -> Some ()) path with
      | _ -> Alcotest.fail "expected Bad_file"
      | exception Cache.Bad_file _ ->
        Alcotest.(check int) "nothing loaded" 0 (Cache.length fresh))

(* ------------------------------------------------------------------ *)
(* Phase breakdown *)

(* The span tree is the one phase clock: a traced assignment records
   its extraction and leaf solves as spans, nested inside [assign], and
   each SDP solve's relaxation and backtrack inside the solve, at every
   jobs setting, and the settings agree on the coloring. *)
let test_phases_report () =
  (* Dense-enough layout that solving does real work at both settings. *)
  let spec =
    {
      Mpl_layout.Benchgen.name = "phases";
      seed = 11;
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
  in
  let layout = Mpl_layout.Benchgen.generate spec in
  let g = G.of_layout layout ~min_s:80 in
  let run jobs =
    let sink = Mpl_obs.Sink.create () in
    let params =
      { D.default_params with D.jobs; solver_budget_s = 0.; trace = Some sink }
    in
    let r = D.assign ~params D.Sdp_backtrack g in
    let events = Mpl_obs.Sink.events sink in
    let has name =
      List.exists
        (fun (e : Mpl_obs.Sink.event) -> e.Mpl_obs.Sink.name = name)
        events
    in
    List.iter
      (fun name ->
        Alcotest.(check bool)
          (Printf.sprintf "%s span at jobs=%d" name jobs)
          true (has name))
      [
        "assign";
        "division.extract";
        "solve.SDP+Backtrack";
        "sdp.relax";
        "sdp.backtrack";
      ];
    Alcotest.(check bool)
      (Printf.sprintf "spans well nested at jobs=%d" jobs)
      true
      (Test_obs.well_nested events);
    (* The SDP split sits inside its solve span, on the same thread. *)
    let within (c : Mpl_obs.Sink.event) (p : Mpl_obs.Sink.event) =
      c.Mpl_obs.Sink.tid = p.Mpl_obs.Sink.tid
      && c.Mpl_obs.Sink.ts_ns >= p.Mpl_obs.Sink.ts_ns
      && Int64.add c.Mpl_obs.Sink.ts_ns c.Mpl_obs.Sink.dur_ns
         <= Int64.add p.Mpl_obs.Sink.ts_ns p.Mpl_obs.Sink.dur_ns
    in
    let named n = List.filter (fun e -> e.Mpl_obs.Sink.name = n) events in
    List.iter
      (fun child ->
        Alcotest.(check bool)
          (Printf.sprintf "%s inside solve.SDP+Backtrack at jobs=%d"
             child.Mpl_obs.Sink.name jobs)
          true
          (List.exists (within child) (named "solve.SDP+Backtrack")))
      (named "sdp.relax" @ named "sdp.backtrack");
    r
  in
  let seq = run 1 and par = run 2 in
  Alcotest.(check (array int)) "same coloring both settings" seq.D.colors
    par.D.colors

(* ------------------------------------------------------------------ *)
(* Streamed components *)

(* [on_component] in process, at every source of the stream driver. *)
let test_on_component_stream () =
  let min_s = 80 in
  let layout = Mpl_layout.Benchgen.circuit "C432" in
  let g = G.of_layout layout ~min_s in
  let params jobs cache = { D.default_params with D.jobs; cache } in
  let streamed run =
    let acc = ref [] in
    let r = run (fun i back colors -> acc := (i, back, colors) :: !acc) in
    (List.rev !acc, r)
  in
  let whole jobs cache =
    streamed (fun on_component ->
        D.assign ~params:(params jobs cache) ~on_component D.Linear g)
  in
  let reference, r0 = whole 1 false in
  List.iter
    (fun (jobs, cache) ->
      Alcotest.(check bool)
        (Printf.sprintf "same stream at jobs=%d cache=%b" jobs cache)
        true
        (fst (whole jobs cache) = reference))
    [ (1, true); (2, false); (2, true) ];
  Alcotest.(check (list int)) "indices in push order"
    (List.init (List.length reference) Fun.id)
    (List.map (fun (i, _, _) -> i) reference);
  let scattered = Array.make g.G.n (-1) in
  List.iter
    (fun (_, back, colors) ->
      Array.iteri (fun j v -> scattered.(v) <- colors.(j)) back)
    reference;
  Alcotest.(check (array int)) "scatter reproduces report.colors"
    r0.D.colors scattered;
  (* Windows emit the same components in another order. *)
  let canon stream =
    List.sort compare
      (List.map
         (fun (_, back, colors) ->
           let vc = Array.mapi (fun j v -> (v, colors.(j))) back in
           Array.sort compare vc;
           (Array.map fst vc, Array.map snd vc))
         stream)
  in
  let windowed, _ =
    streamed (fun on_component ->
        D.decompose_sharded ~params:(params 1 false) ~on_component
          ~windows:4 ~min_s D.Linear layout)
  in
  Alcotest.(check bool) "windows stream the same components" true
    (canon windowed = canon reference);
  (* An ECO run streams its dirty components, in edited-layout ids. *)
  let prev = D.snapshot ~params:(params 1 false) ~min_s D.Linear g layout r0 in
  let edits = Mpl.Eco.generate ~seed:3 ~count:6 layout in
  let dirty, rep =
    streamed (fun on_component ->
        match
          D.redecompose ~params:(params 1 false) ~on_component ~prev ~edits
            D.Linear
        with
        | Ok (_, rep, _) -> rep
        | Error m -> Alcotest.failf "redecompose failed: %s" m)
  in
  Alcotest.(check int) "one streamed component per dirty component"
    (Option.get rep.D.eco).D.dirty_components (List.length dirty);
  Alcotest.(check bool) "some component is dirty" true (dirty <> []);
  List.iter
    (fun (_, back, colors) ->
      Array.iteri
        (fun j v ->
          Alcotest.(check int) "streamed color = report color"
            rep.D.colors.(v) colors.(j))
        back)
    dirty

(* ------------------------------------------------------------------ *)
(* Shared atomic budget *)

let test_budget_atomic () =
  let b = Mpl_util.Timer.budget 0. in
  Alcotest.(check bool) "unlimited never expires" false (Mpl_util.Timer.expired b);
  Alcotest.(check bool) "unlimited never trips" false (Mpl_util.Timer.tripped b);
  let b = Mpl_util.Timer.budget 1e-9 in
  Unix.sleepf 0.002;
  (* Observe expiry from a pool worker; the latch must be visible to
     the coordinating thread afterwards. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let fut = Pool.submit pool (fun () -> Mpl_util.Timer.expired b) in
      Alcotest.(check bool) "expired in worker" true (Pool.await pool fut));
  Alcotest.(check bool) "trip latched across domains" true
    (Mpl_util.Timer.tripped b)

(* ------------------------------------------------------------------ *)
(* End-to-end determinism + cache correctness on random layouts *)

let layout_gen =
  QCheck.Gen.(
    int_range 1 2 >>= fun rows ->
    int_range 2 5 >>= fun cells ->
    int_range 0 1 >>= fun five ->
    int_range 0 2 >>= fun gadgets ->
    int_range 0 10_000 >|= fun seed ->
    {
      Mpl_layout.Benchgen.name = "qcheck";
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

let prop_jobs_cache_invariant =
  QCheck.Test.make ~count:20 ~name:"jobs x cache: identical costs, valid colorings"
    layout_arb (fun spec ->
      let layout = Mpl_layout.Benchgen.generate spec in
      let g = G.of_layout layout ~min_s:80 in
      List.for_all
        (fun algo ->
          let run jobs cache =
            let params =
              {
                D.default_params with
                D.jobs;
                cache;
                solver_budget_s = 0. (* unlimited: keep runs deterministic *);
              }
            in
            D.assign ~params algo g
          in
          let reference = run 1 false in
          let ok r =
            C.is_complete r.D.colors
            && C.check_range ~k:4 r.D.colors
            && C.evaluate g r.D.colors = r.D.cost
            && r.D.cost.C.conflicts = reference.D.cost.C.conflicts
            && r.D.cost.C.stitches = reference.D.cost.C.stitches
            && r.D.colors = reference.D.colors
            && r.D.division.Mpl.Division.pieces
               = reference.D.division.Mpl.Division.pieces
          in
          List.for_all ok
            [
              run 2 false; run 4 false; run 1 true; run 2 true; run 4 true;
            ])
        [ D.Linear; D.Sdp_greedy; D.Sdp_backtrack; D.Exact ])

let suite =
  [
    Alcotest.test_case "pool: map ordering" `Quick test_pool_ordering;
    Alcotest.test_case "pool: exception propagation" `Quick test_pool_exception;
    Alcotest.test_case "pool: await isolates failures" `Quick
      test_pool_await_isolates;
    Alcotest.test_case "pool: reuse across rounds" `Quick test_pool_reuse_after_await;
    Alcotest.test_case "pool: priority ordering" `Quick test_pool_priority;
    Alcotest.test_case "pool: bounded queue backpressure" `Quick
      test_pool_bounded_backpressure;
    Alcotest.test_case "pool: cancel sweeps queued tasks" `Quick
      test_pool_cancel_drops_queued;
    Alcotest.test_case "pool: cancel observed at dequeue" `Quick
      test_pool_cancel_at_dequeue;
    Alcotest.test_case "pool: expired deadline drops at dequeue" `Quick
      test_pool_deadline_at_dequeue;
    Alcotest.test_case "pool: argument validation" `Quick test_pool_invalid;
    Alcotest.test_case "decomposer: phase breakdown" `Quick test_phases_report;
    Alcotest.test_case "decomposer: on_component stream" `Quick
      test_on_component_stream;
    Alcotest.test_case "cache: inequivalent miss" `Quick test_cache_inequivalent_miss;
    Alcotest.test_case "cache: exact labeling policy" `Quick
      test_cache_exact_requires_same_labeling;
    Alcotest.test_case "cache: every stored labeling hits" `Quick
      test_cache_labelings_are_entries;
    Alcotest.test_case "engine: batch dedup" `Quick test_engine_dedup;
    Alcotest.test_case "engine: prepopulated cache" `Quick
      test_engine_prepopulated_cache;
    Alcotest.test_case "engine: per-piece recovery" `Quick test_engine_recover;
    Alcotest.test_case "engine: cache-hit validation" `Quick
      test_engine_validate_rejects;
    Alcotest.test_case "engine: forced leaders are forgotten" `Quick
      test_engine_forgets_forced_leaders;
    Alcotest.test_case "cache: corruption detected by checksum" `Quick
      test_cache_corrupt_dropped;
    Alcotest.test_case "cache: LRU eviction order" `Quick
      test_cache_lru_eviction_order;
    Alcotest.test_case "cache: byte budget and stats" `Quick
      test_cache_byte_budget;
    QCheck_alcotest.to_alcotest prop_signature_matches_edge_list_oracle;
    Alcotest.test_case "cache: piece signatures = edge-list oracle" `Quick
      test_piece_signature_parity;
    Alcotest.test_case "cache: salt partitions the table" `Quick
      test_cache_salt_partitions;
    Alcotest.test_case "cache: persistence round trip + corruption" `Quick
      test_cache_persist_roundtrip_corruption;
    Alcotest.test_case "timer: atomic shared budget" `Quick test_budget_atomic;
    QCheck_alcotest.to_alcotest prop_jobs_cache_invariant;
  ]
