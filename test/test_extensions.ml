(* Tests for the extension modules: clique lower bounds and mask
   balancing. *)

module G = Mpl.Decomp_graph
module C = Mpl.Coloring

let clique n =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  G.of_edges ~n !edges

let dg_gen =
  QCheck.Gen.(
    int_range 2 9 >>= fun n ->
    int_range 10 70 >>= fun p ->
    int_range 0 10000 >|= fun seed ->
    let rng = Mpl_util.Rng.create seed in
    let ce = ref [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Mpl_util.Rng.int rng 100 < p then ce := (i, j) :: !ce
      done
    done;
    (n, !ce))

let dg_arb =
  QCheck.make
    ~print:(fun (n, ce) ->
      Printf.sprintf "n=%d ce=[%s]" n
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) ce)))
    dg_gen

(* ------------------------- lower bounds -------------------------- *)

let test_excess_pairs () =
  Alcotest.(check int) "K4/4" 0 (Mpl.Lower_bound.excess_pairs 4 4);
  Alcotest.(check int) "K5/4" 1 (Mpl.Lower_bound.excess_pairs 5 4);
  Alcotest.(check int) "K6/4" 2 (Mpl.Lower_bound.excess_pairs 6 4);
  Alcotest.(check int) "K8/4" 4 (Mpl.Lower_bound.excess_pairs 8 4);
  Alcotest.(check int) "K6/5" 1 (Mpl.Lower_bound.excess_pairs 6 5);
  Alcotest.(check int) "K6/3" 3 (Mpl.Lower_bound.excess_pairs 6 3)

let test_max_clique_known () =
  let g = Mpl_graph.Ugraph.of_edges 6
      [ (0, 1); (0, 2); (1, 2); (2, 3); (3, 4); (4, 5); (3, 5) ]
  in
  Alcotest.(check int) "triangle found" 3
    (Array.length (Mpl.Lower_bound.max_clique g))

let prop_max_clique_is_clique =
  QCheck.Test.make ~name:"max_clique returns a clique" ~count:200 dg_arb
    (fun (n, ce) ->
      let g = Mpl_graph.Ugraph.of_edges n ce in
      let c = Mpl.Lower_bound.max_clique g in
      Array.for_all
        (fun u ->
          Array.for_all (fun v -> u = v || Mpl_graph.Ugraph.mem_edge g u v) c)
        c)

let prop_lower_bound_sound =
  QCheck.Test.make ~name:"clique LB <= chromatic optimum" ~count:200 dg_arb
    (fun (n, ce) ->
      let g = G.of_edges ~n ce in
      let lb = Mpl.Lower_bound.conflict_lower_bound ~k:4 g in
      let opt =
        Mpl_graph.Oracle.chromatic_cost (Mpl_graph.Ugraph.of_edges n ce) ~k:4
      in
      lb <= opt)

let test_lower_bound_tight_on_cliques () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "tight on K%d" n)
        (Mpl.Lower_bound.excess_pairs n 4)
        (Mpl.Lower_bound.conflict_lower_bound ~k:4 (clique n)))
    [ 4; 5; 6; 7; 8 ]

(* --------------------------- balance ----------------------------- *)

let test_usage_and_imbalance () =
  Alcotest.(check (array int)) "usage" [| 2; 1; 0; 1 |]
    (Mpl.Balance.usage ~k:4 [| 0; 0; 1; 3 |]);
  Alcotest.(check (float 1e-9)) "balanced" 0.
    (Mpl.Balance.imbalance ~k:4 [| 0; 1; 2; 3 |]);
  Alcotest.(check (float 1e-9)) "empty" 0. (Mpl.Balance.imbalance ~k:4 [||])

let prop_rebalance_preserves_cost =
  QCheck.Test.make ~name:"rebalance never changes the cost" ~count:200
    (QCheck.pair dg_arb QCheck.small_int)
    (fun ((n, ce), seed) ->
      let g = G.of_edges ~n ce in
      let rng = Mpl_util.Rng.create seed in
      let colors = Array.init n (fun _ -> Mpl_util.Rng.int rng 4) in
      let balanced = Mpl.Balance.rebalance ~k:4 ~alpha:0.1 g colors in
      let before = C.evaluate g colors and after = C.evaluate g balanced in
      before.C.conflicts = after.C.conflicts
      && before.C.stitches = after.C.stitches)

let prop_rebalance_no_worse_imbalance =
  QCheck.Test.make ~name:"rebalance never worsens the imbalance" ~count:200
    (QCheck.pair dg_arb QCheck.small_int)
    (fun ((n, ce), seed) ->
      let g = G.of_edges ~n ce in
      let rng = Mpl_util.Rng.create seed in
      let colors = Array.init n (fun _ -> Mpl_util.Rng.int rng 4) in
      let balanced = Mpl.Balance.rebalance ~k:4 ~alpha:0.1 g colors in
      Mpl.Balance.imbalance ~k:4 balanced
      <= Mpl.Balance.imbalance ~k:4 colors +. 1e-9)

let test_rebalance_isolated_vertices () =
  (* n isolated vertices all on mask 0 spread to perfect balance. *)
  let g = G.of_edges ~n:8 [] in
  let balanced = Mpl.Balance.rebalance ~k:4 ~alpha:0.1 g (Array.make 8 0) in
  Alcotest.(check (float 1e-9)) "perfectly balanced" 0.
    (Mpl.Balance.imbalance ~k:4 balanced)

let prop_weighted_rebalance_preserves_cost =
  QCheck.Test.make ~name:"weighted rebalance never changes the cost"
    ~count:100
    (QCheck.pair dg_arb QCheck.small_int)
    (fun ((n, ce), seed) ->
      let g = G.of_edges ~n ce in
      let rng = Mpl_util.Rng.create seed in
      let colors = Array.init n (fun _ -> Mpl_util.Rng.int rng 4) in
      let weights = Array.init n (fun _ -> 1 + Mpl_util.Rng.int rng 100) in
      let balanced =
        Mpl.Balance.rebalance ~weights ~k:4 ~alpha:0.1 g colors
      in
      let before = C.evaluate g colors and after = C.evaluate g balanced in
      before.C.conflicts = after.C.conflicts
      && before.C.stitches = after.C.stitches)

let suite =
  [
    Alcotest.test_case "excess pairs" `Quick test_excess_pairs;
    Alcotest.test_case "max clique known" `Quick test_max_clique_known;
    QCheck_alcotest.to_alcotest prop_max_clique_is_clique;
    QCheck_alcotest.to_alcotest prop_lower_bound_sound;
    Alcotest.test_case "LB tight on cliques" `Quick
      test_lower_bound_tight_on_cliques;
    Alcotest.test_case "usage and imbalance" `Quick test_usage_and_imbalance;
    QCheck_alcotest.to_alcotest prop_rebalance_preserves_cost;
    QCheck_alcotest.to_alcotest prop_rebalance_no_worse_imbalance;
    Alcotest.test_case "rebalance isolated" `Quick
      test_rebalance_isolated_vertices;
    QCheck_alcotest.to_alcotest prop_weighted_rebalance_preserves_cost;
  ]
