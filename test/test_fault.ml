(* Tests for fault-tolerant solving: the deterministic Fault injector,
   the per-piece fallback ladder and its provenance reporting, and the
   qcheck property that any single injected fault still yields a legal
   coloring — with pure perturbations (worker delay, cache corruption)
   additionally leaving the output bit-identical. *)

module F = Mpl_engine.Fault
module G = Mpl.Decomp_graph
module C = Mpl.Coloring
module D = Mpl.Decomposer
module Division = Mpl.Division
module Layout = Mpl_layout.Layout
module Benchgen = Mpl_layout.Benchgen
module Rect = Mpl_geometry.Rect
module Polygon = Mpl_geometry.Polygon

(* ------------------------------------------------------------------ *)
(* Fault spec parsing *)

let test_parse () =
  (match F.parse "solver_raise:seed=7" with
  | Ok { F.site = F.Solver_raise; seed = 7; shots = 1 } -> ()
  | Ok sp -> Alcotest.fail ("unexpected spec " ^ F.spec_to_string sp)
  | Error e -> Alcotest.fail e);
  (match F.parse "cache_corrupt" with
  | Ok { F.site = F.Cache_corrupt; seed = 0; shots = 1 } -> ()
  | _ -> Alcotest.fail "defaults wrong");
  (match F.parse "budget_trip:seed=3:shots=2" with
  | Ok sp ->
    Alcotest.(check string) "roundtrip" "budget_trip:seed=3:shots=2"
      (F.spec_to_string sp)
  | Error e -> Alcotest.fail e);
  (match F.parse "delay" with
  | Ok { F.site = F.Worker_delay; _ } -> ()
  | _ -> Alcotest.fail "alias not accepted");
  List.iter
    (fun bad ->
      match F.parse bad with
      | Ok _ -> Alcotest.fail (bad ^ ": expected parse error")
      | Error _ -> ())
    [ ""; "nope"; "solver_raise:seed=x"; "solver_raise:shots=0";
      "solver_raise:frobnicate=1" ]

let test_firing_window () =
  (* seed selects the 0-based occurrence; shots widens the window. *)
  let t = F.arm { F.site = F.Solver_raise; seed = 2; shots = 2 } in
  let fires = List.init 6 (fun _ -> F.fires t F.Solver_raise) in
  Alcotest.(check (list bool)) "occurrences 2 and 3 fire"
    [ false; false; true; true; false; false ]
    fires;
  Alcotest.(check int) "two shots fired" 2 (F.fire_count t);
  Alcotest.(check bool) "other sites never fire" false
    (F.fires t F.Budget_trip);
  Alcotest.(check bool) "none never fires" false
    (F.fires F.none F.Solver_raise)

(* ------------------------------------------------------------------ *)
(* Fallback ladder on a K5 clique (one leaf solve) *)

(* Five contacts pairwise closer than min_s = 80: a K5 conflict clique.
   Every vertex has conflict degree 4 = k, so the peel keeps all five,
   and the clique has no cut below k, so division hands the solver the
   whole clique as one piece. Its optimum at k = 4 is one conflict. *)
let clique_graph () =
  let contact x y =
    Polygon.of_rect (Rect.make ~x0:x ~y0:y ~x1:(x + 20) ~y1:(y + 20))
  in
  let layout =
    Layout.make Layout.default_tech
      [ contact 0 0; contact 45 0; contact 0 45; contact 45 45; contact 22 90 ]
  in
  G.of_layout layout ~min_s:80

let run_faulted ?(algo = D.Exact) ?site ?(fseed = 0) ?(shots = 1) g =
  let fault =
    Option.map (fun site -> { F.site; seed = fseed; shots }) site
  in
  let params = { D.default_params with D.solver_budget_s = 0.; fault } in
  D.assign ~params algo g

let check_legal g (r : D.report) =
  Alcotest.(check bool) "coloring complete" true (C.is_complete r.D.colors);
  Alcotest.(check bool) "colors in range" true (C.check_range ~k:4 r.D.colors);
  Alcotest.(check bool) "reported cost consistent" true
    (C.evaluate g r.D.colors = r.D.cost)

let check_ladder ~algo ~shots ~solved_by ~attempts () =
  let g = clique_graph () in
  let r = run_faulted ~algo ~site:F.Solver_raise ~shots g in
  check_legal g r;
  (* Every rung of the ladder finds K5's one-conflict optimum. *)
  Alcotest.(check int) "one conflict, the clique's optimum" 1
    r.D.cost.C.conflicts;
  Alcotest.(check int) "one piece" 1 r.D.division.Division.pieces;
  let res = r.D.resilience in
  Alcotest.(check bool) "fault fired" true res.D.fault_fired;
  Alcotest.(check int) "one degraded piece" 1 res.D.degraded;
  Alcotest.(check int) "one raising piece" 1 res.D.piece_failures;
  match res.D.failures with
  | [ pf ] ->
    Alcotest.(check string) "failed step" (D.algorithm_name algo)
      pf.D.failed_step;
    Alcotest.(check string) "solved by" solved_by pf.D.solved_by;
    Alcotest.(check int) "attempts" attempts pf.D.attempts
  | l -> Alcotest.fail (Printf.sprintf "%d failure records" (List.length l))

let test_ladder_exact () =
  (* Exact raises -> SDP+Backtrack and Linear both tried, both tie at
     one conflict, earliest rung wins. *)
  check_ladder ~algo:D.Exact ~shots:1 ~solved_by:"SDP+Backtrack" ~attempts:3 ()

let test_ladder_sdp () =
  check_ladder ~algo:D.Sdp_backtrack ~shots:1 ~solved_by:"Linear" ~attempts:2 ()

let test_ladder_linear () =
  (* Linear has no algorithmic rung below it: the terminal greedy
     coloring takes over. *)
  check_ladder ~algo:D.Linear ~shots:1 ~solved_by:"greedy" ~attempts:2 ()

let test_ladder_cascade () =
  (* shots=3 also poisons both fallback rungs: only greedy remains. *)
  check_ladder ~algo:D.Exact ~shots:3 ~solved_by:"greedy" ~attempts:4 ()

let test_budget_trip () =
  let g = clique_graph () in
  let r = run_faulted ~algo:D.Exact ~site:F.Budget_trip g in
  check_legal g r;
  Alcotest.(check bool) "run flagged timed out" true r.D.timed_out;
  let res = r.D.resilience in
  Alcotest.(check bool) "fault fired" true res.D.fault_fired;
  Alcotest.(check int) "one degraded piece" 1 res.D.degraded;
  Alcotest.(check int) "no raising piece" 0 res.D.piece_failures;
  match res.D.failures with
  | [ pf ] ->
    Alcotest.(check string) "error names the trip" "budget/node-cap trip"
      pf.D.error;
    (* The tripped solver's partial result ties the heuristics at one
       conflict and wins as the earliest candidate. *)
    Alcotest.(check string) "partial result kept" "Exact-BnB" pf.D.solved_by;
    Alcotest.(check int) "attempts" 3 pf.D.attempts
  | l -> Alcotest.fail (Printf.sprintf "%d failure records" (List.length l))

let test_no_fault_no_noise () =
  (* An armed-but-never-firing spec and an unarmed run agree exactly. *)
  let g = clique_graph () in
  let clean = run_faulted ~algo:D.Exact g in
  let inert = run_faulted ~algo:D.Exact ~site:F.Solver_raise ~fseed:7 g in
  (* Only one leaf solve: occurrence 7 never happens. *)
  Alcotest.(check bool) "armed fault did not fire" false
    inert.D.resilience.D.fault_fired;
  Alcotest.(check int) "nothing degraded" 0 inert.D.resilience.D.degraded;
  Alcotest.(check bool) "colorings identical" true
    (inert.D.colors = clean.D.colors);
  Alcotest.(check bool) "clean run reports no resilience noise" true
    (clean.D.resilience = D.no_resilience)

let test_fallback_cost_bound () =
  (* On a hard single-piece graph, a faulted exact solve may degrade but
     never below the Linear solver's quality: Linear is always among the
     ladder's candidates and the cheapest candidate wins. *)
  let spec =
    {
      (Benchgen.spec_of_circuit "C432") with
      Benchgen.rows = 0;
      cells_per_row = 0;
      native_five = 0;
      native_six = 0;
      hard_blocks = 1;
      stitch_gadgets = 0;
      penta_six = 0;
      name = "hard";
    }
  in
  let g = G.of_layout (Benchgen.generate spec) ~min_s:80 in
  let faulted = run_faulted ~algo:D.Exact ~site:F.Solver_raise g in
  let linear = run_faulted ~algo:D.Linear g in
  check_legal g faulted;
  Alcotest.(check int) "degraded" 1 faulted.D.resilience.D.degraded;
  Alcotest.(check bool)
    (Printf.sprintf "faulted cost %d within linear bound %d"
       faulted.D.cost.C.scaled linear.D.cost.C.scaled)
    true
    (faulted.D.cost.C.scaled <= linear.D.cost.C.scaled)

(* ------------------------------------------------------------------ *)
(* Property: any single injected fault still yields a legal coloring;
   pure perturbations leave the output bit-identical. *)

let spec_gen =
  QCheck.Gen.(
    int_range 1 2 >>= fun rows ->
    int_range 2 4 >>= fun cells ->
    int_range 0 2 >>= fun gadgets ->
    int_range 0 10_000 >|= fun seed ->
    {
      Mpl_layout.Benchgen.name = "fault-qcheck";
      seed;
      rows;
      cells_per_row = cells;
      density = 0.45;
      wire_fraction = 0.4;
      sparse_gap_prob = 0.8;
      native_five = 1;
      native_six = 0;
      hard_blocks = 0;
      stitch_gadgets = gadgets;
      penta_six = 0;
    })

let case_gen =
  QCheck.Gen.(
    spec_gen >>= fun spec ->
    oneofl [ F.Solver_raise; F.Worker_delay; F.Cache_corrupt; F.Budget_trip ]
    >>= fun site ->
    oneofl [ D.Linear; D.Sdp_backtrack; D.Exact ] >>= fun algo ->
    int_range 0 7 >>= fun fseed ->
    oneofl [ 1; 2 ] >>= fun jobs ->
    bool >|= fun cache -> (spec, site, algo, fseed, jobs, cache))

let case_print (spec, site, algo, fseed, jobs, cache) =
  Printf.sprintf "%s algo=%s seed=%d jobs=%d cache=%b layout_seed=%d rows=%d"
    (F.site_name site) (D.algorithm_name algo) fseed jobs cache
    spec.Mpl_layout.Benchgen.seed spec.Mpl_layout.Benchgen.rows

let prop_single_fault =
  QCheck.Test.make ~count:30
    ~name:"single fault: legal coloring, accurate degradation provenance"
    (QCheck.make ~print:case_print case_gen)
    (fun (spec, site, algo, fseed, jobs, cache) ->
      let layout = Mpl_layout.Benchgen.generate spec in
      let g = G.of_layout layout ~min_s:80 in
      let base =
        { D.default_params with D.jobs; cache; solver_budget_s = 0. }
      in
      let reference = D.assign ~params:base algo g in
      let params =
        { base with D.fault = Some { F.site; seed = fseed; shots = 1 } }
      in
      let r = D.assign ~params algo g in
      let res = r.D.resilience in
      C.is_complete r.D.colors
      && C.check_range ~k:4 r.D.colors
      && C.evaluate g r.D.colors = r.D.cost
      &&
      match site with
      | F.Worker_delay | F.Cache_corrupt ->
        (* Pure perturbations: recovery is a fresh solve or a schedule
           shift, never a degradation — output stays bit-identical. *)
        res.degraded = 0 && r.D.colors = reference.D.colors
      | F.Solver_raise | F.Budget_trip ->
        (* If the fault actually hit a solve, the report must say so. *)
        (not res.fault_fired) || res.degraded >= 1
      | F.Conn_drop | F.Write_stall | F.Torn_frame ->
        (* Network sites are probed only by the server's connection
           I/O; a pipeline run never reaches them. *)
        res.degraded = 0 && r.D.colors = reference.D.colors)

let suite =
  [
    Alcotest.test_case "fault spec parsing" `Quick test_parse;
    Alcotest.test_case "deterministic firing window" `Quick test_firing_window;
    Alcotest.test_case "ladder: exact -> sdp" `Quick test_ladder_exact;
    Alcotest.test_case "ladder: sdp -> linear" `Quick test_ladder_sdp;
    Alcotest.test_case "ladder: linear -> greedy" `Quick test_ladder_linear;
    Alcotest.test_case "ladder: cascade to greedy" `Quick test_ladder_cascade;
    Alcotest.test_case "budget trip degrades, keeps partial" `Quick
      test_budget_trip;
    Alcotest.test_case "armed but unfired is noise-free" `Quick
      test_no_fault_no_noise;
    Alcotest.test_case "degradation within linear bound" `Quick
      test_fallback_cost_bound;
    QCheck_alcotest.to_alcotest prop_single_fault;
  ]
