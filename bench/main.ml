(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md section 4 for the index).

     dune exec bench/main.exe            full run (both tables, exhibits,
                                         ablations, Bechamel micro-benches)
     dune exec bench/main.exe -- --table1 [--budget S]
     dune exec bench/main.exe -- --table2
     dune exec bench/main.exe -- --figures
     dune exec bench/main.exe -- --ablation
     dune exec bench/main.exe -- --beyond      (K=6 generalization)
     dune exec bench/main.exe -- --extensions  (LB / balance)
     dune exec bench/main.exe -- --parallel    (engine speedup + cache;
                                               writes bench/results/latest.json,
                                               kernel rows included)
     dune exec bench/main.exe -- --kernels     (hot-path kernel microbenches:
                                               bounded vs full max-flow,
                                               flat vs dense SDP; add --check
                                               to run the parity gate instead —
                                               exits nonzero on any mismatch)
     dune exec bench/main.exe -- --micro *)

module D = Mpl.Decomposer
module C = Mpl.Coloring

let ilp_budget = ref 20.

(* Process heap high-water mark, in MB. [Gc.top_heap_words] is monotone
   over the process lifetime, so a row's value is the high-water at the
   moment that row finished: rows later in a run inherit earlier peaks.
   Sections whose memory story matters (the shard pair) therefore run
   first, smaller-footprint setting first, so their recorded peaks are
   their own. *)
let peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1024. /. 1024.

type row = {
  circuit : string;
  cells : (string * (int * int * float * bool)) list;
      (* algorithm -> cn, st, cpu, timed_out *)
}

let run_algorithm ~params algo g =
  let report = D.assign ~params algo g in
  ( report.D.cost.C.conflicts,
    report.D.cost.C.stitches,
    report.D.elapsed_s,
    report.D.timed_out )

let build_graph ~min_s name =
  let layout = Mpl_layout.Benchgen.circuit name in
  Mpl.Decomp_graph.of_layout layout ~min_s

let print_table ~title ~algorithms rows =
  Format.printf "@.=== %s ===@." title;
  Format.printf "%-8s " "Circuit";
  List.iter (fun a -> Format.printf "| %13s: cn#  st#  CPU(s) " a) algorithms;
  Format.printf "@.";
  let sums = Hashtbl.create 8 in
  List.iter
    (fun r ->
      Format.printf "%-8s " r.circuit;
      List.iter
        (fun a ->
          let cn, st, cpu, timed_out = List.assoc a r.cells in
          if timed_out then
            Format.printf "|                 N/A  N/A  >%-6.0f" !ilp_budget
          else begin
            Format.printf "|                %4d %4d  %6.3f " cn st cpu;
            let scn, sst, scpu, k =
              match Hashtbl.find_opt sums a with
              | Some t -> t
              | None -> (0, 0, 0., 0)
            in
            Hashtbl.replace sums a (scn + cn, sst + st, scpu +. cpu, k + 1)
          end)
        algorithms;
      Format.printf "@.")
    rows;
  Format.printf "%-8s " "avg.";
  List.iter
    (fun a ->
      match Hashtbl.find_opt sums a with
      | Some (cn, st, cpu, k) when k > 0 ->
        let fk = float_of_int k in
        Format.printf "|               %5.1f %5.1f %7.3f "
          (float_of_int cn /. fk)
          (float_of_int st /. fk)
          (cpu /. fk)
      | Some _ | None -> Format.printf "|                  -    -       - ")
    algorithms;
  Format.printf "@."

let table1 () =
  Format.printf
    "@.Table 1: quadruple patterning (k=4, min_s=80nm, alpha=0.1); ILP \
     budget %.0fs (stand-in for the paper's 3600s)@."
    !ilp_budget;
  let algorithms = [ "ILP"; "SDP+Backtrack"; "SDP+Greedy"; "Linear" ] in
  let rows =
    List.map
      (fun name ->
        let g = build_graph ~min_s:80 name in
        let params budget =
          { D.default_params with D.solver_budget_s = budget }
        in
        let cells =
          [
            ("ILP", run_algorithm ~params:(params !ilp_budget) D.Ilp g);
            ( "SDP+Backtrack",
              run_algorithm ~params:(params 0.) D.Sdp_backtrack g );
            ("SDP+Greedy", run_algorithm ~params:(params 0.) D.Sdp_greedy g);
            ("Linear", run_algorithm ~params:(params 0.) D.Linear g);
          ]
        in
        { circuit = name; cells })
      Mpl_layout.Benchgen.table1_circuits
  in
  print_table ~title:"Table 1 — Quadruple Patterning" ~algorithms rows

let table2 () =
  Format.printf "@.Table 2: pentuple patterning (k=5, min_s=110nm)@.";
  let algorithms = [ "SDP+Backtrack"; "SDP+Greedy"; "Linear" ] in
  let params = { D.default_params with D.k = 5 } in
  let rows =
    List.map
      (fun name ->
        let g = build_graph ~min_s:110 name in
        let cells =
          [
            ("SDP+Backtrack", run_algorithm ~params D.Sdp_backtrack g);
            ("SDP+Greedy", run_algorithm ~params D.Sdp_greedy g);
            ("Linear", run_algorithm ~params D.Linear g);
          ]
        in
        { circuit = name; cells })
      Mpl_layout.Benchgen.table2_circuits
  in
  print_table ~title:"Table 2 — Pentuple Patterning" ~algorithms rows

(* ------------------------------------------------------------------ *)
(* Figure exhibits: the worked examples of the paper, checked live.    *)

let contact x y =
  Mpl_geometry.Polygon.of_rect
    (Mpl_geometry.Rect.make ~x0:x ~y0:y ~x1:(x + 20) ~y1:(y + 20))

let fig1 () =
  (* A 2x2 contact clique: a native conflict under TPL (K4 with three
     masks), resolved by QPL (paper Fig. 1). *)
  let layout =
    Mpl_layout.Layout.make Mpl_layout.Layout.default_tech
      [ contact 0 0; contact 40 0; contact 0 40; contact 40 40 ]
  in
  let g = Mpl.Decomp_graph.of_layout layout ~min_s:80 in
  let cn k =
    let params = { D.default_params with D.k } in
    (D.assign ~params D.Exact g).D.cost.C.conflicts
  in
  Format.printf
    "Fig 1 exhibit: 2x2 contact clique -> TPL (k=3) conflicts: %d, QPL \
     (k=4) conflicts: %d@."
    (cn 3) (cn 4)

let fig7 () =
  (* A brick pattern of 1-D regular wires: at min_s = 2 s_m + w_m = 60nm
     it contains a K5, hence is not 4-colorable (paper Fig. 7); five
     masks decompose it cleanly. *)
  let bar x y w =
    Mpl_geometry.Polygon.of_rect
      (Mpl_geometry.Rect.make ~x0:x ~y0:y ~x1:(x + w) ~y1:(y + 20))
  in
  let bricks = ref [] in
  for r = 0 to 4 do
    (* Stagger each row by 30 nm so a bar, its right neighbor, the two
       bars bridging them one row up, and the bar bridging them two rows
       up are pairwise within 60 nm: a K5. *)
    let offset = r * 30 mod 120 in
    for i = 0 to 3 do
      bricks := bar (offset + (i * 120)) (r * 40) 100 :: !bricks
    done
  done;
  let layout = Mpl_layout.Layout.make Mpl_layout.Layout.default_tech !bricks in
  let g =
    Mpl.Decomp_graph.of_layout ~max_stitches_per_feature:0 layout ~min_s:60
  in
  let cn k =
    let params = { D.default_params with D.k } in
    (D.assign ~params D.Exact g).D.cost.C.conflicts
  in
  Format.printf
    "Fig 7 exhibit: brick pattern at min_s=60nm -> k=4 conflicts: %d (>0: \
     K5 present, not 4-colorable), k=5 conflicts: %d@."
    (cn 4) (cn 5)

let figures () =
  Format.printf "@.=== Figure exhibits ===@.";
  fig1 ();
  fig7 ()

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out.                *)

(* One dense SDP-stressing component: a single "hard block" gadget with
   no surrounding cells. Shared by the SDP-mode ablation and the kernel
   microbenches. *)
let hardblock_graph () =
  let spec =
    {
      (Mpl_layout.Benchgen.spec_of_circuit "S38417") with
      Mpl_layout.Benchgen.rows = 1;
      cells_per_row = 1;
      native_five = 0;
      native_six = 0;
      hard_blocks = 1;
      stitch_gadgets = 0;
      penta_six = 0;
      wire_fraction = 0.;
      name = "hardblock";
    }
  in
  let layout = Mpl_layout.Benchgen.generate spec in
  Mpl.Decomp_graph.of_layout layout ~min_s:80

let ablation () =
  Format.printf
    "@.=== Ablation: graph division stages (S38417, Linear, k=4) ===@.";
  let g = build_graph ~min_s:80 "S38417" in
  let cases =
    [
      ("full pipeline", Mpl.Division.all_stages);
      ( "no GH-tree cuts",
        { Mpl.Division.all_stages with Mpl.Division.use_ghtree = false } );
      ( "no biconnected",
        { Mpl.Division.all_stages with Mpl.Division.use_biconnected = false }
      );
      ( "no peeling",
        { Mpl.Division.all_stages with Mpl.Division.use_peel = false } );
      ( "components only",
        {
          Mpl.Division.use_components = true;
          use_peel = false;
          use_biconnected = false;
          use_ghtree = false;
        } );
    ]
  in
  (* Division alone, on the stage subset: the decomposer always runs
     every stage, so the ablation drives the division oracle. *)
  List.iter
    (fun (name, stages) ->
      let stats = Mpl.Division.fresh_stats () in
      let colors, secs =
        Mpl_util.Timer.time (fun () ->
            Mpl.Division.assign ~stages ~stats ~k:4 ~alpha:C.alpha
              ~solver:(Mpl.Linear_color.solve ~k:4 ~alpha:C.alpha)
              g)
      in
      let cost = C.evaluate g colors in
      Format.printf
        "%-16s cn#=%-3d st#=%-4d CPU=%.3fs pieces=%d largest=%d@." name
        cost.C.conflicts cost.C.stitches secs stats.Mpl.Division.pieces
        stats.Mpl.Division.largest_piece)
    cases;
  Format.printf "@.=== Ablation: color-friendly rule (Linear, k=4) ===@.";
  List.iter
    (fun name ->
      let g = build_graph ~min_s:80 name in
      let cost solver =
        let colors = Mpl.Division.assign ~k:4 ~alpha:0.1 ~solver g in
        C.evaluate g colors
      in
      let with_rule = cost (Mpl.Linear_color.solve ~k:4 ~alpha:0.1) in
      let without =
        cost (Mpl.Linear_color.solve_no_friendly ~k:4 ~alpha:0.1)
      in
      Format.printf
        "%-8s with friendly: cn#=%d st#=%d; without: cn#=%d st#=%d@." name
        with_rule.C.conflicts with_rule.C.stitches without.C.conflicts
        without.C.stitches)
    [ "C6288"; "S38417" ];
  Format.printf "@.=== Ablation: SDP solver mode (one hard block, k=4) ===@.";
  let g = hardblock_graph () in
  let p = D.default_params in
  List.iter
    (fun (name, mode) ->
      let solver (piece : Mpl.Decomp_graph.t) =
        if piece.Mpl.Decomp_graph.n <= 1 then
          Array.make piece.Mpl.Decomp_graph.n 0
        else
          Mpl.Sdp_color.backtrack ~k:p.D.k ~alpha:Mpl.Coloring.alpha
            (Mpl.Sdp_color.relax ~mode ~k:p.D.k ~alpha:Mpl.Coloring.alpha
               piece)
            piece
      in
      let colors, secs =
        Mpl_util.Timer.time (fun () ->
            Mpl.Division.assign ~k:p.D.k ~alpha:Mpl.Coloring.alpha ~solver g)
      in
      let cost = C.evaluate g colors in
      Format.printf "%-12s cn#=%d st#=%d CPU=%.3fs@." name cost.C.conflicts
        cost.C.stitches secs)
    [
      ("projected", Mpl_numeric.Sdp.Projected);
      ("lagrangian", Mpl_numeric.Sdp.Lagrangian);
    ]

(* ------------------------------------------------------------------ *)
(* Beyond pentuple: the Section 5 generalization at K = 6.             *)

let beyond () =
  Format.printf "@.=== Beyond: hexuple patterning (k=6, min_s=135nm) ===@.";
  let algorithms = [ "SDP+Backtrack"; "Linear" ] in
  let params = { D.default_params with D.k = 6 } in
  let rows =
    List.map
      (fun name ->
        let g = build_graph ~min_s:135 name in
        let cells =
          [
            ("SDP+Backtrack", run_algorithm ~params D.Sdp_backtrack g);
            ("Linear", run_algorithm ~params D.Linear g);
          ]
        in
        { circuit = name; cells })
      Mpl_layout.Benchgen.table2_circuits
  in
  print_table ~title:"Hexuple Patterning (beyond the paper's K=5)"
    ~algorithms rows

(* ------------------------------------------------------------------ *)
(* Extensions: certified lower bounds and cost-free mask balancing.    *)

let extensions () =
  Format.printf "@.=== Extensions: clique lower bounds, balance ===@.";
  List.iter
    (fun name ->
      let g = build_graph ~min_s:80 name in
      let lb = Mpl.Lower_bound.conflict_lower_bound ~k:4 g in
      let base = D.assign D.Linear g in
      let balanced = Mpl.Balance.rebalance ~k:4 ~alpha:0.1 g base.D.colors in
      Format.printf
        "%-8s LB=%-3d linear cn#=%-3d (gap %d) imbalance %.3f -> %.3f@." name
        lb base.D.cost.C.conflicts
        (base.D.cost.C.conflicts - lb)
        (Mpl.Balance.imbalance ~k:4 base.D.colors)
        (Mpl.Balance.imbalance ~k:4 balanced))
    [ "C6288"; "C7552"; "S38417" ]

(* ------------------------------------------------------------------ *)
(* Hot-path kernel microbenches and parity gate (--kernels [--check]): *)
(* the K-bounded Gusfield construction vs the full one, and the flat   *)
(* unboxed SDP kernel vs the boxed dense reference. The same kernel    *)
(* rows are embedded in latest.json by --parallel.                     *)

module MF = Mpl_graph.Maxflow
module GH = Mpl_graph.Gomory_hu
module Ugraph = Mpl_graph.Ugraph
module Sdp = Mpl_numeric.Sdp

type kernel_row = {
  kr_kernel : string;  (* "ghtree" | "sdp" *)
  kr_variant : string;  (* "full" | "bounded" | "dense" | "flat" *)
  kr_case : string;
  kr_runs : int;
  kr_ns : float;  (* mean ns per run *)
}

let time_runs ~runs f =
  ignore (f ());
  (* warm-up *)
  let _, secs =
    Mpl_util.Timer.time (fun () ->
        for _ = 1 to runs do
          ignore (f ())
        done)
  in
  secs *. 1e9 /. float_of_int runs

(* Deterministic sparse random graph, roughly [deg] average degree. *)
let random_ugraph ~seed ~n ~deg =
  let rng = Mpl_util.Rng.create seed in
  let edges = ref [] in
  for _ = 1 to n * deg / 2 do
    let u = Mpl_util.Rng.int rng n and v = Mpl_util.Rng.int rng n in
    if u <> v then edges := (u, v) :: !edges
  done;
  Ugraph.of_edges n !edges

let ghtree_cases () =
  [
    ("hardblock", Mpl.Decomp_graph.union_graph (hardblock_graph ()));
    ("rand-n400", random_ugraph ~seed:11 ~n:400 ~deg:6);
  ]

(* Clique core plus a stitch ring: exercises both edge families of the
   projected solver. *)
let sdp_problem n =
  let conflict = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      conflict := (i, j) :: !conflict
    done
  done;
  let stitch = List.init n (fun i -> (i, (i + 1) mod n)) in
  {
    Sdp.n;
    conflict_edges = Array.of_list !conflict;
    stitch_edges = Array.of_list stitch;
    k = 4;
    alpha = 0.1;
  }

let kernel_rows () =
  let rows = ref [] in
  let add kr = rows := kr :: !rows in
  List.iter
    (fun (case, ug) ->
      let runs = 3 in
      add
        {
          kr_kernel = "ghtree";
          kr_variant = "full";
          kr_case = case;
          kr_runs = runs;
          kr_ns = time_runs ~runs (fun () -> GH.build ug);
        };
      add
        {
          kr_kernel = "ghtree";
          kr_variant = "bounded";
          kr_case = case;
          kr_runs = runs;
          kr_ns = time_runs ~runs (fun () -> GH.build ~bound:4 ug);
        })
    (ghtree_cases ());
  List.iter
    (fun n ->
      let p = sdp_problem n in
      let case = Printf.sprintf "clique+ring-n%d" n in
      let runs = 3 in
      add
        {
          kr_kernel = "sdp";
          kr_variant = "dense";
          kr_case = case;
          kr_runs = runs;
          kr_ns = time_runs ~runs (fun () -> Sdp.solve_dense p);
        };
      add
        {
          kr_kernel = "sdp";
          kr_variant = "flat";
          kr_case = case;
          kr_runs = runs;
          kr_ns = time_runs ~runs (fun () -> Sdp.solve p);
        })
    (* 6 and 48: the leaf sizes that dominate SDP+Backtrack on the
       S-circuits. *)
    [ 6; 16; 32; 48 ];
  List.rev !rows

let print_kernel_rows rows =
  Format.printf "@.=== Kernel microbenches ===@.";
  Format.printf "%-8s %-8s %-16s %6s %14s@." "kernel" "variant" "case" "runs"
    "ns/run";
  List.iter
    (fun r ->
      Format.printf "%-8s %-8s %-16s %6d %14.0f@." r.kr_kernel r.kr_variant
        r.kr_case r.kr_runs r.kr_ns)
    rows;
  (* Speedup summary per (kernel, case) pair. *)
  List.iter
    (fun (kernel, fast, slow) ->
      List.iter
        (fun r ->
          if r.kr_kernel = kernel && r.kr_variant = slow then
            match
              List.find_opt
                (fun f ->
                  f.kr_kernel = kernel && f.kr_variant = fast
                  && f.kr_case = r.kr_case)
                rows
            with
            | Some f when f.kr_ns > 0. ->
              Format.printf "%-8s %-16s %s/%s speedup: %.2fx@." kernel
                r.kr_case slow fast (r.kr_ns /. f.kr_ns)
            | Some _ | None -> ())
        rows)
    [ ("ghtree", "bounded", "full"); ("sdp", "flat", "dense") ]

(* Parity gate (--kernels --check): the fast kernels must agree with
   their reference implementations. Exits nonzero on any mismatch —
   wired into tier1.sh as a smoke test. *)
let kernels_check () =
  Format.printf "@.=== Kernel parity checks ===@.";
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Format.printf fmt
  in
  (* 1. Bounded max-flow == min(full flow, bound), and below the bound
        the residual witnesses the same minimal source side. *)
  let rng = Mpl_util.Rng.create 2014 in
  for _ = 1 to 200 do
    let n = 2 + Mpl_util.Rng.int rng 9 in
    let ug = random_ugraph ~seed:(Mpl_util.Rng.int rng 1_000_000) ~n ~deg:4 in
    let s = 0 and t = n - 1 in
    let full =
      let net = MF.of_ugraph ug in
      MF.max_flow net ~s ~t
    in
    for b = 0 to 5 do
      let net = MF.of_ugraph ug in
      let got = MF.max_flow_bounded net ~bound:b ~s ~t in
      if got <> min full b then
        fail "FAIL maxflow: n=%d b=%d got=%d want=%d@." n b got (min full b);
      if got < b then begin
        let side = MF.min_cut_side net ~s in
        let net2 = MF.of_ugraph ug in
        ignore (MF.max_flow net2 ~s ~t);
        if side <> MF.min_cut_side net2 ~s then
          fail "FAIL maxflow cut side: n=%d b=%d@." n b
      end
    done
  done;
  (* 2. The bounded Gusfield tree finds the same actionable (< k)
        minimum as the exact tree. *)
  for seed = 1 to 60 do
    let n = 3 + (seed mod 8) in
    let ug = random_ugraph ~seed:(1000 + seed) ~n ~deg:4 in
    let k = 4 in
    let min_below tree =
      Array.fold_left
        (fun acc (_, _, w) -> if w < k && w < acc then w else acc)
        max_int (GH.tree_edges tree)
    in
    let exact = min_below (GH.build ug) in
    let bounded = min_below (GH.build ~bound:k ug) in
    if exact <> bounded then
      fail "FAIL ghtree: seed=%d min<k exact=%d bounded=%d@." seed exact
        bounded
  done;
  (* 3. End-to-end: bounded division must reproduce the unbounded
        colorings bit-for-bit. *)
  List.iter
    (fun name ->
      let g = build_graph ~min_s:80 name in
      let solve bounded_cuts =
        Mpl.Division.assign ~bounded_cuts ~k:4 ~alpha:0.1
          ~solver:(Mpl.Linear_color.solve ~k:4 ~alpha:0.1)
          g
      in
      if solve true <> solve false then
        fail "FAIL division: %s bounded/unbounded colorings differ@." name)
    [ "C432"; "C880"; "S1488" ];
  (* 4. Flat SDP kernel is bit-identical to the dense reference. *)
  List.iter
    (fun n ->
      let p = sdp_problem n in
      let flat = Sdp.solve p and dense = Sdp.solve_dense p in
      if flat.Sdp.objective <> dense.Sdp.objective then
        fail "FAIL sdp objective: n=%d flat=%.17g dense=%.17g@." n
          flat.Sdp.objective dense.Sdp.objective;
      let exact_cells = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let a = Float.Array.get flat.Sdp.gram ((i * n) + j) in
          let b = Float.Array.get dense.Sdp.gram ((i * n) + j) in
          if Int64.bits_of_float a <> Int64.bits_of_float b then
            exact_cells := false
        done
      done;
      if not !exact_cells then fail "FAIL sdp gram: n=%d not bit-identical@." n)
    [ 2; 5; 9; 16; 24; 48 ];
  if !failures = 0 then begin
    Format.printf "kernel parity: all checks passed@.";
    true
  end
  else begin
    Format.printf "kernel parity: %d check(s) FAILED@." !failures;
    false
  end

(* ------------------------------------------------------------------ *)
(* Parallel engine: wall-clock speedup vs --jobs and cache hit rates   *)
(* on the four largest Table 1 circuits, where ILP/SDP runtime         *)
(* dominates. Emits bench/results/latest.json for perf tracking.       *)

let parallel_circuits = [ "S38417"; "S35932"; "S38584"; "S15850" ]

(* The ECO rows warn when an incremental run is less than this many
   times faster than the cold one. Three runs on a 2-core VM read
   5.8-6.6x with the cache off and 4.2-4.8x with it on (1% edit of the
   120k synth: 617 of 17,729 components re-solved); the floor sits
   below that spread, so it flags a regression rather than noise. *)
let eco_speedup_floor = 3.0

type parallel_row = {
  p_circuit : string;
  p_algorithm : string;
  p_k : int;  (* mask count of the run (4 unless the K sweep) *)
  p_jobs : int;
  p_cache : bool;
  p_wall_s : float;
  p_cn : int;
  p_st : int;
  p_cache_hits : int;
  p_cache_bytes : int;  (* resident cache footprint after the run *)
  p_pieces : int;
  p_degraded : int;
  p_build_s : float;  (* graph construction (shared across settings) *)
  p_windows : int;  (* geometric windows (1 = whole-layout graph) *)
  p_inject : string option;  (* armed fault spec, if any *)
  p_peak_mb : float;  (* process heap high-water when the row finished *)
  p_eco : (int * int * int) option;
      (* redecompose rows only: components reused verbatim, components
         re-solved, features inside the dirty window *)
}

(* One row from a finished report. Everything but the row's name, its
   graph-construction time, its window count (sharded rows) and (for
   wall clocks measured around more than the assignment) its wall comes
   from the report and its params. *)
let row_of_report ~circuit ~build_s ?wall_s ?(windows = 1) (r : D.report) =
  {
    p_circuit = circuit;
    p_algorithm = D.algorithm_name r.D.algorithm;
    p_k = r.D.params.D.k;
    p_jobs = r.D.params.D.jobs;
    p_cache = r.D.params.D.cache;
    p_wall_s = Option.value wall_s ~default:r.D.elapsed_s;
    p_cn = r.D.cost.C.conflicts;
    p_st = r.D.cost.C.stitches;
    p_cache_hits =
      r.D.engine.Mpl_engine.Engine.hits + r.D.engine.Mpl_engine.Engine.reused;
    p_cache_bytes =
      (match r.D.cache with
      | Some cs -> cs.Mpl_engine.Cache.resident_bytes
      | None -> 0);
    p_pieces = r.D.division.Mpl.Division.pieces;
    p_degraded = r.D.resilience.D.degraded;
    p_build_s = build_s;
    p_windows = windows;
    p_inject = Option.map Mpl_engine.Fault.spec_to_string r.D.params.D.fault;
    p_peak_mb = peak_mb ();
    p_eco =
      Option.map
        (fun e ->
          (e.D.reused_components, e.D.dirty_components, e.D.dirty_features))
        r.D.eco;
  }

let json_of_rows rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      (* "windows", "inject" and "eco_*" appear only on the
         rows that have them so the keys of the pre-v8 matrix are
         byte-stable. *)
      let extras =
        (if r.p_windows <> 1 then
           Printf.sprintf ", \"windows\": %d" r.p_windows
         else "")
        ^ (match r.p_inject with
          | Some spec -> Printf.sprintf ", \"inject\": %S" spec
          | None -> "")
        ^
        match r.p_eco with
        | Some (reused, dirty, features) ->
          Printf.sprintf
            ", \"eco_reused\": %d, \"eco_dirty\": %d, \
             \"eco_dirty_features\": %d"
            reused dirty features
        | None -> ""
      in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"circuit\": %S, \"algorithm\": %S, \"k\": %d, \"jobs\": %d, \
            \"cache\": %b, \"wall_s\": %.6f, \"cn\": %d, \"st\": %d, \
            \"cache_hits\": %d, \"cache_bytes\": %d, \"pieces\": %d, \
            \"degraded_pieces\": %d, \"peak_mb\": %.1f%s, \"phases\": \
            {\"build_s\": %.6f}}"
           r.p_circuit r.p_algorithm r.p_k r.p_jobs r.p_cache r.p_wall_s
           r.p_cn r.p_st r.p_cache_hits r.p_cache_bytes r.p_pieces
           r.p_degraded r.p_peak_mb extras r.p_build_s))
    rows;
  Buffer.add_string b "\n  ]";
  Buffer.contents b

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line
  with _ -> "unknown"

(* Schema v2: run metadata plus an optional metrics-registry sample next
   to the raw result rows, so regressions can be traced to the machine
   and commit that produced them.
   Schema v3: each result row gains "degraded_pieces" — pieces that fell
   down the solver fallback ladder (should be 0 on healthy runs).
   Schema v4: "pieces" is now always the division's leaf-solve count
   (engine rows used to report routed components instead — 1911 vs 540
   on S38417 — making the column incomparable across settings), and a
   top-level "kernels" array records the hot-path kernel microbenches
   (ns/run for bounded vs full Gusfield, flat vs dense SDP).
   Schema v5: each result row gains a "phases" object breaking the wall
   down into graph construction ("build_s", shared across the circuit's
   settings), structural division, leaf solving (summed over domains, so
   it can exceed "wall_s" when jobs > 1) and reassembly ("merge_s").
   Schema v6: "meta" gains the run "stamp" (fixed once at startup or via
   --stamp, never read from the clock inside the benchmark loop), result
   rows gain "cache_bytes" (resident piece-cache footprint after the
   run) and the same document is also written to the history file
   <commit>-<stamp>.json next to latest.json.
   Schema v7: result rows gain "k" (mask count; older documents imply
   k=4) and the matrix grows single-job solver baselines — ILP (10s
   budget), SDP+Greedy and Linear on C432/C880/S1488 at k=4, plus a
   K=5/6 sweep of SDP+Backtrack and Linear on the same circuits — so
   [bench compare] can gate every solver family and mask count, keyed
   circuit|algorithm|jobs|cache|k.
   Schema v8: result rows gain "peak_mb" (the process heap high-water
   mark when the row finished — monotone over the run, so only rows
   early in a run carry their own peak; the geometric-sharding pair
   runs first for exactly that reason), plus two optional fields that
   extend the compare key only when present: "windows" (geometric
   window count, emitted when > 1, key suffix "|win=N") and "inject"
   (armed fault spec, key suffix "|inject=SPEC"). The matrix grows a
   sharded-vs-whole-graph pair on a generated synthetic layout and a
   clean-vs-injected fault overhead pair; keys of all pre-v8 rows are
   unchanged.
   Schema v9: rows gain optional "balance_features"/"balance_area"
   (per-mask tallies of the final coloring, present whenever the run
   materialized the whole graph) and the ECO trio "eco_reused"/
   "eco_dirty"/"eco_dirty_features" (present only on incremental
   redecompose rows; the presence of "eco_reused" suffixes the compare
   key with "|eco"). The matrix grows a cold-vs-incremental pair on
   the synthetic 120k layout (~1% of features edited; the incremental
   coloring must match the cold run bit-for-bit — fatal otherwise),
   and [bench compare] gains [--mem-threshold PCT], gating per-row
   "peak_mb" past an absolute 16 MB floor.
   Schema v10: "phases" gains "extract_s" — coordinator time spent
   cutting pieces out of their parent graph (top-level components and
   every division stage), split out of "division_s"; [bench compare]
   gates it like the other phases when both documents carry it.
   Schema v11: rows no longer carry "balance_features"/"balance_area";
   per-mask tallies are [Mpl.Balance]'s, printed by [mpld report].
   Schema v12: "phases" keeps only "build_s". The division, extraction,
   solve and merge split is the span tree's: [mpld decompose -v] and
   [--trace] print it, and perfbench reads it as the "division.s",
   "solve.s" and "assign.unattributed_s" layers. [bench compare] skips
   the dropped keys, so v11 documents still compare on "build_s". *)
let results_schema_version = 12

let json_of_kernels rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"kernel\": %S, \"variant\": %S, \"case\": %S, \"runs\": %d, \
            \"ns_per_run\": %.0f}"
           r.kr_kernel r.kr_variant r.kr_case r.kr_runs r.kr_ns))
    rows;
  Buffer.add_string b "\n  ]";
  Buffer.contents b

(* The run stamp is fixed once, before any benchmark work starts (or
   supplied via --stamp for reproducible filenames in CI); nothing on
   the timed path ever consults the clock for naming. *)
let run_stamp = ref ""

(* [mkdir -p]: create [dir] and any missing parents. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The results go to bench/results under the working directory, made if
   missing; the printed paths are absolute, so a run started elsewhere
   than the repository root says where its JSON went. *)
let write_results ?metrics ?kernels ~stamp rows =
  let dir = Filename.concat (Sys.getcwd ()) "bench/results" in
  mkdir_p dir;
  let path = Filename.concat dir "latest.json" in
  let commit = git_commit () in
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"schema_version\": %d,\n" results_schema_version);
  Buffer.add_string b
    (Printf.sprintf
       "  \"meta\": {\"git_commit\": %S, \"stamp\": %S, \"cores\": %d, \
        \"ocaml_version\": %S},\n"
       commit stamp
       (Domain.recommended_domain_count ())
       Sys.ocaml_version);
  Buffer.add_string b "  \"results\": ";
  Buffer.add_string b (json_of_rows rows);
  (match kernels with
  | None -> ()
  | Some ks ->
    Buffer.add_string b ",\n  \"kernels\": ";
    Buffer.add_string b (json_of_kernels ks));
  (match metrics with
  | None -> ()
  | Some snap ->
    Buffer.add_string b ",\n  \"metrics\": ";
    Buffer.add_string b
      (Mpl_obs.Json.to_string (Mpl_obs.Export.metrics_json snap)));
  Buffer.add_string b "\n}\n";
  let doc = Buffer.contents b in
  let write p =
    let oc = open_out p in
    output_string oc doc;
    close_out oc
  in
  write path;
  (* Timestamped history copy next to latest.json, so successive runs
     on the same checkout are comparable without external archiving. *)
  let stamped =
    Filename.concat dir (Printf.sprintf "%s-%s.json" commit stamp)
  in
  write stamped;
  Format.printf "wrote %s and %s (%d records, schema v%d)@." path stamped
    (List.length rows) results_schema_version

let parallel () =
  let algo = D.Sdp_backtrack in
  let settings =
    [ (1, false); (2, false); (4, false); (1, true); (4, true) ]
  in
  let rows = ref [] in
  let metrics_sample = ref None in
  (* Geometric window sharding on a generated synthetic layout. This
     section runs before everything else, windowed run first, because
     peak_mb is a process high-water mark: this ordering is the only
     one under which both rows record their own peaks. The sharded and
     whole-graph colorings must be byte-identical (the qcheck suite
     checks the same contract on random small layouts) — any
     divergence is fatal. *)
  Format.printf
    "@.=== Geometric sharding: windows=8 vs whole graph (Linear, jobs=2) \
     ===@.";
  let spec = Mpl_layout.Benchgen.synth ~seed:7 ~features:120_000 () in
  let synth_name = spec.Mpl_layout.Benchgen.name in
  let layout, gen_s =
    Mpl_util.Timer.time (fun () -> Mpl_layout.Benchgen.generate spec)
  in
  Format.printf "generated %s: %d features in %.2fs@." synth_name
    (Mpl_layout.Layout.feature_count layout)
    gen_s;
  let shard_params = { D.default_params with D.jobs = 2; cache = false } in
  let pp_shard_row label (r : D.report) =
    Format.printf
      "%-8s cn#=%-4d st#=%-4d wall=%.3fs peak=%.0fMB@." label
      r.D.cost.C.conflicts r.D.cost.C.stitches r.D.elapsed_s (peak_mb ())
  in
  let r_sh =
    D.decompose_sharded ~params:shard_params ~windows:8 ~min_s:80 D.Linear
      layout
  in
  pp_shard_row "win=8" r_sh;
  (* Window graph construction happens inside the windows (it is part
     of the point — no whole-layout graph ever exists), so the sharded
     row has no separate build phase. *)
  rows :=
    row_of_report ~circuit:synth_name ~build_s:0. ~windows:8 r_sh :: !rows;
  let g_full, full_build_s =
    Mpl_util.Timer.time (fun () ->
        Mpl.Decomp_graph.of_layout layout ~min_s:80)
  in
  let r_full = D.assign ~params:shard_params D.Linear g_full in
  pp_shard_row "win=1" r_full;
  rows :=
    row_of_report ~circuit:synth_name ~build_s:full_build_s r_full :: !rows;
  if r_sh.D.colors <> r_full.D.colors then begin
    Format.printf "!! sharded coloring diverged from whole-graph on %s@."
      synth_name;
    exit 1
  end;
  Format.printf "sharded coloring identical to whole-graph reference@.";
  (* ECO pair: a ~1%-of-features edit of the same 120k layout, cold
     decompose of the edited layout vs incremental redecompose from the
     whole-graph run's session, the incremental side once with the cache
     off and once on (as the server and perfbench run it).
     Deterministic settings, so each incremental coloring must be
     bit-identical to the cold one — any divergence is fatal. The rows
     share a circuit name; the incremental rows' "eco_reused" field keys
     them apart ("|eco"), and their cache flag from each other. *)
  Format.printf
    "@.=== ECO: cold vs incremental re-decomposition (1%% edit, Linear, \
     jobs=2) ===@.";
  let eco_params = shard_params in
  let session =
    D.snapshot ~params:eco_params ~min_s:80 D.Linear g_full layout r_full
  in
  let n_edits = Mpl_layout.Layout.feature_count layout / 100 in
  let edits = Mpl.Eco.generate ~seed:42 ~count:n_edits layout in
  (* Traced, so the line can split out the ECO-specific spans; only the
     dirty region is divided and solved, so the trace stays small. *)
  let incremental cache =
    let sink = Mpl_obs.Sink.create () in
    let res, wall =
      Mpl_util.Timer.time (fun () ->
          D.redecompose
            ~params:{ eco_params with D.cache; trace = Some sink }
            ~prev:session ~edits D.Linear)
    in
    match res with
    | Error msg ->
      Format.printf "!! redecompose (cache=%b) failed: %s@." cache msg;
      exit 1
    | Ok (edited, r, _next) ->
      (edited, r, wall, Mpl_obs.Export.phase_totals (Mpl_obs.Sink.events sink))
  in
  let edited, _, _, _ as off = incremental false in
  let on = incremental true in
  let g_cold, cold_build_s =
    Mpl_util.Timer.time (fun () -> Mpl.Decomp_graph.of_layout edited ~min_s:80)
  in
  let r_cold = D.assign ~params:eco_params D.Linear g_cold in
  let cold_wall = cold_build_s +. r_cold.D.elapsed_s in
  Format.printf "cold=%.3fs (build %.3fs + assign %.3fs)@." cold_wall
    cold_build_s r_cold.D.elapsed_s;
  let circuit = synth_name ^ "-eco" in
  rows := row_of_report ~circuit ~build_s:cold_build_s r_cold :: !rows;
  List.iter
    (fun (_, r_eco, eco_wall, totals) ->
      let cache = r_eco.D.params.D.cache in
      if r_eco.D.colors <> r_cold.D.colors then begin
        Format.printf
          "!! incremental (cache=%b) coloring diverged from the cold run \
           after %d edits on %s@."
          cache n_edits synth_name;
        exit 1
      end;
      let reused, dirty, dfeats =
        match r_eco.D.eco with
        | Some e ->
          (e.D.reused_components, e.D.dirty_components, e.D.dirty_features)
        | None -> (0, 0, 0)
      in
      let span name =
        Option.fold ~none:0. ~some:snd (List.assoc_opt name totals)
      in
      let speedup = if eco_wall > 0. then cold_wall /. eco_wall else 0. in
      Format.printf
        "incremental cache=%-3s %.3fs [dirty %.3fs] speedup=%.1fx reused=%d \
         dirty=%d dirty_features=%d@."
        (if cache then "on" else "off")
        eco_wall (span "eco.dirty") speedup reused dirty dfeats;
      if eco_wall > 0. && speedup < eco_speedup_floor then
        Format.printf
          "warning: incremental (cache=%b) speedup below the %.0fx floor@."
          cache eco_speedup_floor;
      rows := row_of_report ~circuit ~build_s:0. ~wall_s:eco_wall r_eco :: !rows)
    [ off; on ];
  Format.printf "incremental colorings identical to cold reference@.";
  (* Fault-injection overhead: the same run clean and with an armed
     solver fault. The injected run pays the fallback ladder for the
     struck piece; the delta bounds what arming the probe costs. *)
  Format.printf
    "@.=== Fault injection overhead (S38417, Linear, jobs=2) ===@.";
  let g_fault, fault_build_s =
    Mpl_util.Timer.time (fun () -> build_graph ~min_s:80 "S38417")
  in
  let fault_spec =
    { Mpl_engine.Fault.site = Mpl_engine.Fault.Solver_raise;
      seed = 0; shots = 1 }
  in
  let fault_pair = ref [] in
  List.iter
    (fun fault ->
      let params = { D.default_params with D.jobs = 2; cache = false; fault }
      in
      let r = D.assign ~params D.Linear g_fault in
      fault_pair := r :: !fault_pair;
      rows :=
        row_of_report ~circuit:"S38417" ~build_s:fault_build_s r :: !rows)
    [ None; Some fault_spec ];
  (match !fault_pair with
  | [ injected; clean ] ->
    Format.printf
      "clean=%.3fs injected=%.3fs delta=%+.1f%% (degraded pieces: %d -> \
       %d)@."
      clean.D.elapsed_s injected.D.elapsed_s
      (if clean.D.elapsed_s > 0. then
         100. *. (injected.D.elapsed_s -. clean.D.elapsed_s)
         /. clean.D.elapsed_s
       else 0.)
      clean.D.resilience.D.degraded injected.D.resilience.D.degraded
  | _ -> assert false);
  Format.printf
    "@.=== Parallel engine: speedup vs jobs, cache hit rates (largest 4 \
     circuits) ===@.";
  Format.printf "(host has %d core(s) available to domains)@."
    (Domain.recommended_domain_count ());
  List.iter
    (fun name ->
      let g, build_s =
        Mpl_util.Timer.time (fun () -> build_graph ~min_s:80 name)
      in
      let baseline = ref None in
      let reference_cost = ref None in
      let reference_pieces = ref None in
      List.iter
        (fun (jobs, cache) ->
          (* Sample the metrics registry once, on the first cached run:
             metrics collection never changes colorings or costs. *)
          let metrics = cache && !metrics_sample = None in
          let params = { D.default_params with D.jobs; cache; metrics } in
          let r = D.assign ~params algo g in
          (match r.D.metrics with
          | Some snap when !metrics_sample = None ->
            metrics_sample := Some snap
          | Some _ | None -> ());
          let cn = r.D.cost.C.conflicts and st = r.D.cost.C.stitches in
          (match !reference_cost with
          | None -> reference_cost := Some (cn, st)
          | Some (cn0, st0) ->
            if (cn0, st0) <> (cn, st) then
              Format.printf
                "!! cost mismatch on %s at jobs=%d cache=%b: (%d,%d) vs \
                 (%d,%d)@."
                name jobs cache cn st cn0 st0);
          if jobs = 1 && not cache then baseline := Some r.D.elapsed_s;
          (* "pieces" is the division's leaf-solve count on EVERY row:
             engine runs used to report routed components here instead
             (1911 vs 540 on S38417), making the column incomparable
             across settings. Division stats accumulate identically on
             both paths (cached components carry their original stats),
             so any mismatch is a real regression — fatal. *)
          let e = r.D.engine in
          let hits = e.Mpl_engine.Engine.hits + e.Mpl_engine.Engine.reused in
          let routed = e.Mpl_engine.Engine.pieces in
          let pieces = r.D.division.Mpl.Division.pieces in
          (match !reference_pieces with
          | None -> reference_pieces := Some pieces
          | Some p0 ->
            if p0 <> pieces then begin
              Format.printf
                "!! pieces mismatch on %s at jobs=%d cache=%b: %d vs %d@."
                name jobs cache pieces p0;
              exit 1
            end);
          let speedup =
            match !baseline with
            | Some t1 when r.D.elapsed_s > 0. -> t1 /. r.D.elapsed_s
            | _ -> 1.
          in
          Format.printf
            "%-8s %-13s jobs=%d cache=%-5b cn#=%-4d st#=%-4d wall=%.3fs \
             speedup=%.2fx%s@."
            name (D.algorithm_name algo) jobs cache cn st r.D.elapsed_s
            speedup
            (if cache then
               Printf.sprintf " cache=%d/%d (%.0f%%)" hits routed
                 (100. *. float_of_int hits
                 /. float_of_int (max 1 routed))
             else "");
          rows := row_of_report ~circuit:name ~build_s r :: !rows)
        settings)
    parallel_circuits;
  (* Single-job solver baselines on three small circuits: every solver
     family at k=4 plus a K=5/6 sweep. Cheap to run, and they give the
     compare gate a row per algorithm and mask count so a slowdown in
     one solver can't hide behind the Sdp_backtrack-only matrix above. *)
  Format.printf "@.=== Solver baselines: algorithm matrix and K sweep ===@.";
  let small_circuits = [ "C432"; "C880"; "S1488" ] in
  let sweep =
    [
      (4, 80, [ (D.Ilp, 10.); (D.Sdp_greedy, 0.); (D.Linear, 0.) ]);
      (5, 110, [ (D.Sdp_backtrack, 0.); (D.Linear, 0.) ]);
      (6, 135, [ (D.Sdp_backtrack, 0.); (D.Linear, 0.) ]);
    ]
  in
  List.iter
    (fun name ->
      List.iter
        (fun (k, min_s, algos) ->
          let g, build_s =
            Mpl_util.Timer.time (fun () -> build_graph ~min_s name)
          in
          List.iter
            (fun (algo, budget) ->
              let params =
                { D.default_params with D.k; solver_budget_s = budget }
              in
              let r = D.assign ~params algo g in
              Format.printf
                "%-8s %-13s k=%d cn#=%-4d st#=%-4d wall=%.3fs@." name
                (D.algorithm_name algo) k r.D.cost.C.conflicts
                r.D.cost.C.stitches r.D.elapsed_s;
              rows := row_of_report ~circuit:name ~build_s r :: !rows)
            algos)
        sweep)
    small_circuits;
  let kernels = kernel_rows () in
  print_kernel_rows kernels;
  write_results ?metrics:!metrics_sample ~kernels ~stamp:!run_stamp
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Regression gate (bench compare A.json B.json [--threshold PCT]):    *)
(* compare two results documents row by row and exit nonzero if the    *)
(* candidate B is slower than the baseline A past the threshold. Rows  *)
(* are keyed circuit|algorithm|jobs|cache|k (k defaults to 4 for       *)
(* schema <= 6 documents, which predate the per-row field); kernel     *)
(* rows are keyed kernel|variant|case. Tiny timings are noise, so a    *)
(* regression must also clear an absolute floor (0.01s seconds rows,   *)
(* 10000ns kernel rows). Missing counterparts are noted, not fatal,    *)
(* so the matrix can grow without breaking old baselines.              *)

module J = Mpl_obs.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let jnum name obj = Option.bind (J.member name obj) J.to_float

let jstr name obj =
  match J.member name obj with Some (J.Str s) -> Some s | _ -> None

let jbool name obj =
  match J.member name obj with Some (J.Bool b) -> Some b | _ -> None

let row_key r =
  let windows = Option.value ~default:1. (jnum "windows" r) in
  Printf.sprintf "%s|%s|jobs=%.0f|cache=%b|k=%.0f%s%s"
    (Option.value ~default:"?" (jstr "circuit" r))
    (Option.value ~default:"?" (jstr "algorithm" r))
    (Option.value ~default:1. (jnum "jobs" r))
    (Option.value ~default:false (jbool "cache" r))
    (Option.value ~default:4. (jnum "k" r))
    (if windows <> 1. then Printf.sprintf "|win=%.0f" windows else "")
    ((match jstr "inject" r with
     | Some spec -> "|inject=" ^ spec
     | None -> "")
    ^ match jnum "eco_reused" r with Some _ -> "|eco" | None -> "")

let kernel_key r =
  Printf.sprintf "%s|%s|%s"
    (Option.value ~default:"?" (jstr "kernel" r))
    (Option.value ~default:"?" (jstr "variant" r))
    (Option.value ~default:"?" (jstr "case" r))

let compare_results ~threshold ~mem_threshold a_path b_path =
  let load path =
    match J.parse (read_file path) with
    | Ok doc -> doc
    | Error e ->
      Printf.eprintf "error: %s: %s\n" path e;
      exit 2
    | exception Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  in
  let a = load a_path and b = load b_path in
  let rows name doc =
    match J.member name doc with Some (J.List l) -> l | _ -> []
  in
  let index keyf l =
    let tbl = Hashtbl.create 64 in
    List.iter (fun r -> Hashtbl.replace tbl (keyf r) r) l;
    tbl
  in
  let regressions = ref 0 and compared = ref 0 in
  let fresh = ref [] in
  let note_fresh key = fresh := key :: !fresh in
  Format.printf "bench compare: baseline %s vs candidate %s (threshold \
                 %.1f%%%s)@."
    a_path b_path threshold
    (match mem_threshold with
    | Some mt -> Printf.sprintf ", mem threshold %.1f%%" mt
    | None -> "");
  Format.printf "%-46s %-12s %12s %12s %9s@." "row" "metric" "baseline"
    "candidate" "delta";
  let check ?(threshold = threshold) ~unit ~floor key metric va vb =
    incr compared;
    let pct = if va > 0. then 100. *. (vb -. va) /. va else 0. in
    let bad = vb > va *. (1. +. (threshold /. 100.)) && vb -. va > floor in
    if bad then incr regressions;
    Format.printf "%-46s %-12s %12.4f %12.4f %+8.1f%% %s%s@." key metric va
      vb pct unit
      (if bad then "  REGRESSION" else "")
  in
  let a_rows = index row_key (rows "results" a) in
  List.iter
    (fun rb ->
      let key = row_key rb in
      match Hashtbl.find_opt a_rows key with
      | None -> note_fresh key
      | Some ra ->
        (match (jnum "wall_s" ra, jnum "wall_s" rb) with
        | Some va, Some vb -> check ~unit:"s" ~floor:0.01 key "wall_s" va vb
        | _ -> ());
        (let build r = Option.bind (J.member "phases" r) (jnum "build_s") in
         match (build ra, build rb) with
         | Some va, Some vb -> check ~unit:"s" ~floor:0.01 key "build_s" va vb
         | _ -> ());
        (* Memory is gated only on request (--mem-threshold): peak_mb
           is a process high-water mark, so only rows early in a run
           carry their own peak — the 16 MB absolute floor keeps
           allocator noise out either way. *)
        (match mem_threshold with
        | None -> ()
        | Some mt -> (
          match (jnum "peak_mb" ra, jnum "peak_mb" rb) with
          | Some va, Some vb ->
            check ~threshold:mt ~unit:"MB" ~floor:16. key "peak_mb" va vb
          | _ -> ())))
    (rows "results" b);
  let a_kernels = index kernel_key (rows "kernels" a) in
  List.iter
    (fun rb ->
      let key = kernel_key rb in
      match Hashtbl.find_opt a_kernels key with
      | None -> note_fresh key
      | Some ra -> (
        match (jnum "ns_per_run" ra, jnum "ns_per_run" rb) with
        | Some va, Some vb ->
          check ~unit:"ns" ~floor:10_000. key "ns_per_run" va vb
        | _ -> ()))
    (rows "kernels" b);
  (* Candidate-only rows are how the matrix grows: name each one so a
     typo'd key is visible, but never fail on them. *)
  List.iter (fun key -> Format.printf "new: %s@." key) (List.rev !fresh);
  if !fresh <> [] then
    Format.printf
      "note: %d candidate row(s) are new (no baseline counterpart; \
       informational)@."
      (List.length !fresh);
  if !regressions = 0 then begin
    Format.printf "OK: %d comparison(s), none past %.1f%% + floor@."
      !compared threshold;
    0
  end
  else begin
    Format.printf "FAIL: %d regression(s) out of %d comparison(s)@."
      !regressions !compared;
    1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table.                 *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  Format.printf "@.=== Bechamel micro-benchmarks ===@.";
  let g1 = build_graph ~min_s:80 "C880" in
  let g2 = build_graph ~min_s:110 "C6288" in
  let params5 = { D.default_params with D.k = 5 } in
  let tests =
    Test.make_grouped ~name:"mpld"
      [
        Test.make_grouped ~name:"table1"
          [
            Test.make ~name:"linear-C880"
              (Staged.stage (fun () -> ignore (D.assign D.Linear g1)));
            Test.make ~name:"sdp-backtrack-C880"
              (Staged.stage (fun () -> ignore (D.assign D.Sdp_backtrack g1)));
            Test.make ~name:"sdp-greedy-C880"
              (Staged.stage (fun () -> ignore (D.assign D.Sdp_greedy g1)));
            Test.make ~name:"exact-C880"
              (Staged.stage (fun () -> ignore (D.assign D.Exact g1)));
          ];
        Test.make_grouped ~name:"table2"
          [
            Test.make ~name:"linear-C6288-k5"
              (Staged.stage (fun () ->
                   ignore (D.assign ~params:params5 D.Linear g2)));
            Test.make ~name:"sdp-backtrack-C6288-k5"
              (Staged.stage (fun () ->
                   ignore (D.assign ~params:params5 D.Sdp_backtrack g2)));
          ];
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Format.printf "%-40s %12.0f ns/run@." name est
      | Some _ | None -> Format.printf "%-40s (no estimate)@." name)
    results

let () =
  (* Stamp the run up front, before any benchmark work: filenames must
     never depend on clock reads taken mid-run. --stamp overrides. *)
  (let tm = Unix.localtime (Unix.gettimeofday ()) in
   run_stamp :=
     Printf.sprintf "%04d%02d%02d-%02d%02d%02d" (tm.Unix.tm_year + 1900)
       (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
       tm.Unix.tm_sec);
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | "--budget" :: v :: rest ->
      ilp_budget := float_of_string v;
      parse rest
    | "--stamp" :: v :: rest ->
      run_stamp := v;
      parse rest
    | _ :: rest -> parse rest
    | [] -> ()
  in
  parse args;
  let has flag = List.mem flag args in
  (* compare is its own mode and runs nothing else: the two positional
     operands after "compare" are baseline and candidate documents. *)
  if has "compare" || has "--compare" then begin
    let rec after = function
      | ("compare" | "--compare") :: rest -> rest
      | _ :: rest -> after rest
      | [] -> []
    in
    let threshold = ref 10. in
    let mem_threshold = ref None in
    let files = ref [] in
    let rec go = function
      | "--threshold" :: v :: rest ->
        threshold := float_of_string v;
        go rest
      | "--mem-threshold" :: v :: rest ->
        mem_threshold := Some (float_of_string v);
        go rest
      | x :: rest ->
        if String.length x < 2 || String.sub x 0 2 <> "--" then
          files := x :: !files;
        go rest
      | [] -> ()
    in
    go (after args);
    match List.rev !files with
    | [ a; b ] ->
      exit
        (compare_results ~threshold:!threshold
           ~mem_threshold:!mem_threshold a b)
    | _ ->
      prerr_endline
        "usage: bench compare BASELINE.json CANDIDATE.json [--threshold \
         PCT] [--mem-threshold PCT]";
      exit 2
  end;
  (* --kernels is its own mode: print microbench rows, or with --check
     run the parity gate and exit nonzero on mismatch (tier1 smoke). *)
  if has "--kernels" || has "kernels" then begin
    if has "--check" then exit (if kernels_check () then 0 else 1)
    else begin
      print_kernel_rows (kernel_rows ());
      exit 0
    end
  end;
  let any =
    has "--table1" || has "--table2" || has "--figures" || has "--ablation"
    || has "--micro" || has "--beyond" || has "--extensions"
    || has "--parallel"
  in
  if (not any) || has "--table1" then table1 ();
  if (not any) || has "--table2" then table2 ();
  if (not any) || has "--figures" then figures ();
  if (not any) || has "--ablation" then ablation ();
  if (not any) || has "--beyond" then beyond ();
  if (not any) || has "--extensions" then extensions ();
  if (not any) || has "--parallel" then parallel ();
  if (not any) || has "--micro" then micro ()
