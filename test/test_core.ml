(* Tests for the core decomposition library: graph model, cost model,
   every color-assignment algorithm (cross-checked against the
   brute-force chromatic oracle), and the division pipeline's
   optimality-preservation guarantees. *)

module G = Mpl.Decomp_graph
module C = Mpl.Coloring
module D = Mpl.Decomposer

let clique n =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  G.of_edges ~n !edges

(* Random decomposition graph: conflict edges with probability p plus a
   few stitch edges on otherwise-unrelated pairs. *)
let dg_gen =
  QCheck.Gen.(
    int_range 2 9 >>= fun n ->
    int_range 10 60 >>= fun p ->
    int_range 0 2 >>= fun stitches ->
    int_range 0 10000 >|= fun seed ->
    let rng = Mpl_util.Rng.create seed in
    let ce = ref [] and used = Hashtbl.create 16 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Mpl_util.Rng.int rng 100 < p then begin
          ce := (i, j) :: !ce;
          Hashtbl.replace used (i, j) ()
        end
      done
    done;
    let se = ref [] in
    let attempts = ref 0 in
    while List.length !se < stitches && !attempts < 50 do
      incr attempts;
      let i = Mpl_util.Rng.int rng n and j = Mpl_util.Rng.int rng n in
      let i, j = (min i j, max i j) in
      if i <> j && (not (Hashtbl.mem used (i, j))) then begin
        Hashtbl.replace used (i, j) ();
        se := (i, j) :: !se
      end
    done;
    (n, !ce, !se))

let dg_print (n, ce, se) =
  Printf.sprintf "n=%d ce=[%s] se=[%s]" n
    (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) ce))
    (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) se))

let dg_arb = QCheck.make ~print:dg_print dg_gen

let build (n, ce, se) = G.of_edges ~stitch_edges:se ~n ce

let test_of_edges_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Decomp_graph: self-loop")
    (fun () -> ignore (G.of_edges ~n:3 [ (1, 1) ]));
  Alcotest.check_raises "both conflict and stitch"
    (Invalid_argument "Decomp_graph: edge is both conflict and stitch")
    (fun () -> ignore (G.of_edges ~stitch_edges:[ (0, 1) ] ~n:2 [ (1, 0) ]));
  let g = G.of_edges ~n:3 [ (0, 1); (1, 0); (1, 2) ] in
  Alcotest.(check int) "duplicates collapsed" 2 (List.length (G.conflict_edges g))

let test_degrees_and_lookup () =
  let g = G.of_edges ~stitch_edges:[ (0, 2) ] ~n:3 [ (0, 1) ] in
  Alcotest.(check int) "conflict degree" 1 (G.conflict_degree g 0);
  Alcotest.(check int) "stitch degree" 1 (G.stitch_degree g 0);
  Alcotest.(check bool) "has_conflict" true (G.has_conflict g 1 0);
  Alcotest.(check bool) "no conflict" false (G.has_conflict g 0 2)

let test_subgraph () =
  let g = G.of_edges ~stitch_edges:[ (2, 3) ] ~n:4 [ (0, 1); (1, 2) ] in
  let sub, back = G.subgraph g [| 1; 2; 3 |] in
  Alcotest.(check int) "sub n" 3 sub.G.n;
  Alcotest.(check int) "sub conflicts" 1 (List.length (G.conflict_edges sub));
  Alcotest.(check int) "sub stitches" 1 (List.length (G.stitch_edges sub));
  Alcotest.(check (array int)) "back" [| 1; 2; 3 |] back

(* [subgraphs] against a naive, test-local restriction: a hash map
   from kept vertex to local index, each neighbor run filtered through
   it and sorted. Returns every field [subgraph] promises, so parity is
   checked field by field. *)
let subgraph_reference (g : G.t) vs =
  let m = Array.length vs in
  let pos = Hashtbl.create (max m 1) in
  Array.iteri (fun i v -> Hashtbl.replace pos v i) vs;
  let restrict (a : G.adj) =
    let runs =
      Array.map
        (fun v ->
          let out = ref [] in
          G.iter a v (fun w ->
              match Hashtbl.find_opt pos w with
              | Some j -> out := j :: !out
              | None -> ());
          List.sort compare !out)
        vs
    in
    let off = Array.make (m + 1) 0 in
    Array.iteri (fun i r -> off.(i + 1) <- off.(i) + List.length r) runs;
    (off, Array.of_list (List.concat (Array.to_list runs)))
  in
  ( m,
    restrict g.G.conflict,
    restrict g.G.stitch,
    restrict g.G.friendly,
    Array.map (fun v -> g.G.feature.(v)) vs,
    Array.map (fun v -> g.G.varea.(v)) vs,
    Array.copy vs )

let subgraph_fields ((sub : G.t), back) =
  let rel (a : G.adj) = (a.G.off, a.G.nbr) in
  ( sub.G.n,
    rel sub.G.conflict,
    rel sub.G.stitch,
    rel sub.G.friendly,
    sub.G.feature,
    sub.G.varea,
    back )

let shuffled rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Mpl_util.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Sparse random graphs (several components, cut vertices) with all
   three relations and non-identity feature ids. *)
let sparse_gen =
  QCheck.Gen.(
    int_range 1 30 >>= fun n ->
    int_range 0 100_000 >|= fun seed ->
    let rng = Mpl_util.Rng.create seed in
    let used = Hashtbl.create 16 in
    let pick k =
      let out = ref [] in
      for _ = 1 to k do
        let i = Mpl_util.Rng.int rng n and j = Mpl_util.Rng.int rng n in
        let key = (min i j, max i j) in
        if i <> j && not (Hashtbl.mem used key) then begin
          Hashtbl.replace used key ();
          out := key :: !out
        end
      done;
      !out
    in
    let ce = pick n in
    let se = pick (n / 4) in
    let fe = pick (n / 2) in
    (n, ce, se, fe, seed))

let sparse_arb =
  QCheck.make
    ~print:(fun (n, ce, se, fe, seed) ->
      Printf.sprintf "n=%d |ce|=%d |se|=%d |fe|=%d seed=%d" n
        (List.length ce) (List.length se) (List.length fe) seed)
    sparse_gen

let prop_subgraphs_match_reference =
  QCheck.Test.make ~name:"subgraphs = per-set reference restriction"
    ~count:300 sparse_arb (fun (n, ce, se, fe, seed) ->
      let rng = Mpl_util.Rng.create (seed + 1) in
      let feature = Array.init n (fun _ -> Mpl_util.Rng.int rng n) in
      let g = G.of_edges ~stitch_edges:se ~friendly_edges:fe ~feature ~n ce in
      let ug = G.union_graph g in
      let comps = Mpl_graph.Connectivity.components ug in
      let families =
        [
          comps;
          (* overlapping: blocks share articulation vertices *)
          Array.of_list (Mpl_graph.Biconnected.blocks ug);
          (* unsorted *)
          Array.map (shuffled rng) comps;
          Array.init 4 (fun _ ->
              shuffled rng
                (Array.of_list
                   (List.filter
                      (fun _ -> Mpl_util.Rng.bool rng)
                      (List.init n Fun.id))));
          (* empty sets, alone and between others *)
          [| [||] |];
          Array.concat [ [| [||] |]; comps; [| [||] |] ];
        ]
      in
      let expect vss = Array.map (subgraph_reference g) vss in
      let ex = G.extractor g in
      List.for_all
        (fun vss ->
          let want = expect vss in
          Array.map subgraph_fields (G.subgraphs g vss) = want
          (* a second call on the same graph sees a clean map *)
          && Array.map subgraph_fields (G.subgraphs g vss) = want
          && Array.map (fun vs -> subgraph_fields (ex vs)) vss = want
          && Array.map (fun vs -> subgraph_fields (G.subgraph g vs)) vss
             = want)
        families)

(* Layout-derived graphs carry real segment areas and split features:
   every component and block of a small synth extracts identically. *)
let test_subgraphs_layout_parity () =
  let layout =
    Mpl_layout.Benchgen.generate
      (Mpl_layout.Benchgen.synth ~seed:5 ~features:600 ())
  in
  let g = G.of_layout layout ~min_s:80 in
  let ug = G.union_graph g in
  List.iter
    (fun (name, vss) ->
      Alcotest.(check bool)
        name true
        (Array.map subgraph_fields (G.subgraphs g vss)
        = Array.map (subgraph_reference g) vss))
    [
      ("components", Mpl_graph.Connectivity.components ug);
      ("blocks", Array.of_list (Mpl_graph.Biconnected.blocks ug));
    ]

let test_subgraphs_duplicate () =
  let g = G.of_edges ~stitch_edges:[ (2, 3) ] ~n:4 [ (0, 1); (1, 2) ] in
  let dup = Invalid_argument "Decomp_graph.subgraphs: duplicate vertex" in
  Alcotest.check_raises "subgraphs" dup (fun () ->
      ignore (G.subgraphs g [| [| 0; 1 |]; [| 1; 2; 1 |] |]));
  Alcotest.check_raises "subgraph" dup (fun () ->
      ignore (G.subgraph g [| 3; 3 |]));
  (* Overlap across sets is fine, and a raise leaves the map clean. *)
  let ex = G.extractor g in
  Alcotest.check_raises "extractor" dup (fun () -> ignore (ex [| 2; 0; 2 |]));
  Alcotest.(check bool)
    "extractor after raise" true
    (subgraph_fields (ex [| 2; 1; 0 |])
    = subgraph_reference g [| 2; 1; 0 |])

(* Extracting every component of a graph must cost O(n + E) words, not
   O(n) per component: n/2 two-vertex components would allocate ~n²/2
   words under a per-set forward map. Words are counted exactly
   (minor + major - promoted, so a promoted block is not counted
   twice); the bound leaves headroom over the ~24 words per vertex the
   pieces themselves take. *)
let test_subgraphs_allocation_linear () =
  let n = 20_000 in
  let g = G.of_edges ~n (List.init (n / 2) (fun i -> (2 * i, (2 * i) + 1))) in
  let comps = Array.init (n / 2) (fun i -> [| 2 * i; (2 * i) + 1 |]) in
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  let pieces = G.subgraphs g comps in
  let w1 = words () in
  Alcotest.(check int) "pieces" (n / 2) (Array.length pieces);
  let used = w1 -. w0 in
  if used >= 64. *. float_of_int n then
    Alcotest.failf "extracting %d components allocated %.0f words (>= 64n)"
      (n / 2) used

let test_coloring_cost () =
  let g = G.of_edges ~stitch_edges:[ (2, 3) ] ~n:4 [ (0, 1); (1, 2) ] in
  let cost = C.evaluate g [| 0; 0; 1; 2 |] in
  Alcotest.(check int) "conflicts" 1 cost.C.conflicts;
  Alcotest.(check int) "stitches" 1 cost.C.stitches;
  Alcotest.(check int) "scaled" 1100 cost.C.scaled;
  (* Unassigned vertices count for nothing. *)
  let partial = C.evaluate g [| 0; 0; -1; 2 |] in
  Alcotest.(check int) "partial conflicts" 1 partial.C.conflicts;
  Alcotest.(check int) "partial stitches" 0 partial.C.stitches

let test_permutation_invariance () =
  let g = G.of_edges ~stitch_edges:[ (0, 3) ] ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let colors = [| 0; 1; 2; 0 |] in
  let sigma = [| 3; 0; 2; 1 |] in
  let c1 = C.evaluate g colors in
  let c2 = C.evaluate g (C.permute colors sigma) in
  Alcotest.(check int) "conflicts invariant" c1.C.conflicts c2.C.conflicts;
  Alcotest.(check int) "stitches invariant" c1.C.stitches c2.C.stitches

(* The CSR adjacency must agree, relation by relation, with a naive
   list-of-neighbors model built from the same (deduplicated) edge
   list: identical degrees, identical sorted neighbor runs, and the
   same answers under [has_conflict] and [subgraph]. *)
let prop_csr_matches_list_adjacency =
  QCheck.Test.make ~name:"CSR adjacency = naive list adjacency" ~count:300
    dg_arb
    (fun ((n, ce, se) as inst) ->
      let g = build inst in
      let naive edges =
        let adj = Array.make n [] in
        let seen = Hashtbl.create 16 in
        List.iter
          (fun (u, v) ->
            let key = (min u v, max u v) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              adj.(u) <- v :: adj.(u);
              adj.(v) <- u :: adj.(v)
            end)
          edges;
        Array.map (fun l -> List.sort_uniq compare l) adj
      in
      let run adj v =
        let out = ref [] in
        G.iter adj v (fun w -> out := w :: !out);
        List.rev !out
      in
      let matches (adj : G.adj) reference =
        List.for_all
          (fun v ->
            G.deg adj v = List.length reference.(v)
            && run adj v = reference.(v))
          (List.init n Fun.id)
      in
      let cref = naive ce and sref = naive se in
      matches g.G.conflict cref
      && matches g.G.stitch sref
      && List.for_all
           (fun u ->
             List.for_all
               (fun v -> G.has_conflict g u v = List.mem v cref.(u))
               (List.init n Fun.id))
           (List.init n Fun.id)
      &&
      (* Induced subgraph on the even vertices: CSR restriction must
         equal the naive adjacency of the filtered edge lists. *)
      let vs = Array.of_list (List.filter (fun v -> v mod 2 = 0) (List.init n Fun.id)) in
      let m = Array.length vs in
      if m = 0 then true
      else begin
        let fwd = Array.make n (-1) in
        Array.iteri (fun i v -> fwd.(v) <- i) vs;
        let restrict edges =
          List.filter_map
            (fun (u, v) ->
              if fwd.(u) >= 0 && fwd.(v) >= 0 then Some (fwd.(u), fwd.(v))
              else None)
            edges
        in
        let sub, back = G.subgraph g vs in
        let nsub edges =
          let a = Array.make m [] in
          List.iter
            (fun (u, v) ->
              a.(u) <- v :: a.(u);
              a.(v) <- u :: a.(v))
            edges;
          Array.map (fun l -> List.sort_uniq compare l) a
        in
        back = vs
        && (let cr = nsub (restrict (G.conflict_edges g)) in
            List.for_all
              (fun v -> run sub.G.conflict v = cr.(v))
              (List.init m Fun.id))
        && (let sr = nsub (restrict (G.stitch_edges g)) in
            List.for_all
              (fun v -> run sub.G.stitch v = sr.(v))
              (List.init m Fun.id))
      end)

(* Conflict-only optimality: every solver path must match the oracle. *)
let conflict_optimum (n, ce) =
  Mpl_graph.Oracle.chromatic_cost (Mpl_graph.Ugraph.of_edges n ce) ~k:4

let prop_exact_matches_oracle =
  QCheck.Test.make ~name:"Exact B&B conflicts = chromatic oracle" ~count:200
    dg_arb
    (fun ((n, ce, _) as inst) ->
      let g = build inst in
      let r = Mpl.Exact_color.solve ~k:4 ~alpha:0.1 g in
      let cost = C.evaluate g r.Mpl.Bnb.colors in
      (* With alpha << 1 the exact optimum always minimizes conflicts
         first when stitch edges are few. *)
      ignore n;
      cost.C.conflicts <= conflict_optimum (n, ce)
      && r.Mpl.Bnb.optimal)

let prop_ilp_matches_exact =
  QCheck.Test.make ~name:"ILP encoding optimum = exact B&B optimum" ~count:60
    dg_arb
    (fun ((_, _, _) as inst) ->
      let g = build inst in
      let exact = Mpl.Exact_color.solve ~k:4 ~alpha:0.1 g in
      let ilp = Mpl.Ilp_color.solve ~k:4 ~alpha:0.1 g in
      let ec = C.evaluate g exact.Mpl.Bnb.colors in
      let ic = C.evaluate g ilp.Mpl.Ilp_color.colors in
      ilp.Mpl.Ilp_color.optimal && ic.C.scaled = ec.C.scaled)

let prop_sdp_backtrack_near_optimal =
  QCheck.Test.make ~name:"SDP+Backtrack = exact optimum on small graphs"
    ~count:60 dg_arb
    (fun inst ->
      let g = build inst in
      let exact = Mpl.Exact_color.solve ~k:4 ~alpha:0.1 g in
      let sol = Mpl.Sdp_color.relax ~k:4 ~alpha:0.1 g in
      let colors = Mpl.Sdp_color.backtrack ~k:4 ~alpha:0.1 sol g in
      let bc = C.evaluate g colors in
      (* Backtrack explores the merged graph exhaustively at these sizes,
         so it must reach the exact optimum. *)
      bc.C.scaled <= exact.Mpl.Bnb.scaled_cost + 100)

let prop_linear_legal_and_bounded =
  QCheck.Test.make ~name:"Linear assignment complete, in-range, sane"
    ~count:300 dg_arb
    (fun inst ->
      let g = build inst in
      let colors = Mpl.Linear_color.solve ~k:4 ~alpha:0.1 g in
      C.is_complete colors && C.check_range ~k:4 colors)

let prop_linear_popped_conflict_free =
  (* Vertices with conflict degree < k and stitch degree < 2 are peeled;
     Algorithm 2 guarantees they never pay a conflict. Whole-graph low
     degree => zero conflicts. *)
  QCheck.Test.make ~name:"Linear: sparse graphs color conflict-free"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         int_range 2 12 >|= fun n ->
         (n, List.init (n - 1) (fun i -> (i, i + 1)))))
    (fun (n, path) ->
      let g = G.of_edges ~n path in
      let colors = Mpl.Linear_color.solve ~k:4 ~alpha:0.1 g in
      (C.evaluate g colors).C.conflicts = 0)

let prop_greedy_map_complete =
  QCheck.Test.make ~name:"SDP greedy mapping complete and in range"
    ~count:100 dg_arb
    (fun inst ->
      let g = build inst in
      if g.G.n = 0 then true
      else begin
        let sol = Mpl.Sdp_color.relax ~k:4 ~alpha:0.1 g in
        let colors = Mpl.Sdp_color.greedy_map ~k:4 sol g in
        C.is_complete colors && C.check_range ~k:4 colors
      end)

(* Division must preserve the conflict optimum when the per-piece solver
   is exact (peel removes only cost-free vertices, biconnected blocks are
   cost-additive, GH cuts always admit a conflict-free rotation). *)
let prop_division_preserves_conflict_optimum =
  QCheck.Test.make
    ~name:"division + exact solver preserves the conflict optimum"
    ~count:150 dg_arb
    (fun ((n, ce, _) as inst) ->
      let g = build inst in
      let solver piece =
        (Mpl.Exact_color.solve ~k:4 ~alpha:0.1 piece).Mpl.Bnb.colors
      in
      let colors = Mpl.Division.assign ~k:4 ~alpha:0.1 ~solver g in
      let cost = C.evaluate g colors in
      ignore n;
      C.is_complete colors && cost.C.conflicts = conflict_optimum (n, ce))

let prop_division_no_worse_for_heuristics =
  QCheck.Test.make
    ~name:"divided linear never beats the exact optimum (sanity)" ~count:150
    dg_arb
    (fun ((n, ce, _) as inst) ->
      let g = build inst in
      let solver piece = Mpl.Linear_color.solve ~k:4 ~alpha:0.1 piece in
      let colors = Mpl.Division.assign ~k:4 ~alpha:0.1 ~solver g in
      (C.evaluate g colors).C.conflicts >= conflict_optimum (n, ce))

let prop_division_stage_toggles =
  QCheck.Test.make ~name:"every stage subset yields a complete coloring"
    ~count:100 dg_arb
    (fun inst ->
      let g = build inst in
      List.for_all
        (fun stages ->
          let solver piece =
            (Mpl.Exact_color.solve ~k:4 ~alpha:0.1 piece).Mpl.Bnb.colors
          in
          let colors = Mpl.Division.assign ~stages ~k:4 ~alpha:0.1 ~solver g in
          C.is_complete colors)
        [
          Mpl.Division.all_stages;
          Mpl.Division.no_stages;
          { Mpl.Division.all_stages with Mpl.Division.use_ghtree = false };
          { Mpl.Division.all_stages with Mpl.Division.use_peel = false };
          {
            Mpl.Division.all_stages with
            Mpl.Division.use_biconnected = false;
          };
        ])

let prop_bounded_cuts_invariant =
  (* The K-bounded GH-tree stage is a pure optimization: the division
     must select identical cuts and hence reassemble the bit-identical
     coloring, end to end. *)
  QCheck.Test.make
    ~name:"bounded GH cuts leave division output bit-identical" ~count:200
    dg_arb
    (fun inst ->
      let g = build inst in
      let solve bounded_cuts =
        Mpl.Division.assign ~bounded_cuts ~k:4 ~alpha:0.1
          ~solver:(Mpl.Linear_color.solve ~k:4 ~alpha:0.1)
          g
      in
      solve true = solve false)

let prop_k_patterning_general =
  (* Section 5: the whole pipeline works for any K; K_n needs exactly
     C(n - k, 2)-free... just check cliques: cn(K_n, k) = sum of excess
     pairings, i.e. the oracle. *)
  QCheck.Test.make ~name:"general K-patterning matches oracle (k=3..6)"
    ~count:40
    (QCheck.make QCheck.Gen.(pair (int_range 2 8) (int_range 3 6)))
    (fun (n, k) ->
      let g = clique n in
      let params = { D.default_params with D.k } in
      let report = D.assign ~params D.Exact g in
      report.D.cost.C.conflicts
      = Mpl_graph.Oracle.chromatic_cost (G.conflict_graph g) ~k)

(* The reference oracle of the stream driver: the division recursion
   with an inline emitter ({!Mpl.Division.assign}), which no library
   path runs. Every jobs x cache setting of [Decomposer.assign] must
   reproduce its coloring, cost and piece count. *)
let test_assign_matches_division_oracle () =
  let p = D.default_params in
  let k = p.D.k and alpha = C.alpha in
  let solver = function
    | D.Sdp_backtrack ->
      fun (piece : G.t) ->
        if piece.G.n <= 1 then Array.make piece.G.n 0
        else
          Mpl.Sdp_color.backtrack ~k ~alpha
            (Mpl.Sdp_color.relax ~k ~alpha piece)
            piece
    | _ -> Mpl.Linear_color.solve ~k ~alpha
  in
  List.iter
    (fun (circuit, algo) ->
      let g = G.of_layout (Mpl_layout.Benchgen.circuit circuit) ~min_s:80 in
      let stats = Mpl.Division.fresh_stats () in
      let oracle =
        Mpl.Division.assign ~stats ~k ~alpha ~solver:(solver algo) g
      in
      List.iter
        (fun (jobs, cache) ->
          let r = D.assign ~params:{ p with D.jobs; cache } algo g in
          let what =
            Printf.sprintf "%s %s jobs=%d cache=%b: " circuit
              (D.algorithm_name algo) jobs cache
          in
          Alcotest.(check (array int)) (what ^ "colors") oracle r.D.colors;
          Alcotest.(check bool) (what ^ "cost") true
            (C.evaluate g oracle = r.D.cost);
          Alcotest.(check int) (what ^ "pieces") stats.Mpl.Division.pieces
            r.D.division.Mpl.Division.pieces)
        [ (1, false); (1, true); (2, false); (2, true) ])
    [ ("C432", D.Linear); ("S15850", D.Linear); ("C432", D.Sdp_backtrack) ]

let test_rotation_lemma () =
  (* Lemma 1: two K5s joined by a 3-cut. Every vertex has conflict degree
     >= 4, so peeling leaves the graph intact and the GH-tree stage must
     find the 3-cut; rotation then reconnects the two K5s without adding
     a conflict beyond their two native ones. *)
  let k5 base =
    let edges = ref [] in
    for i = 0 to 4 do
      for j = i + 1 to 4 do
        edges := (base + i, base + j) :: !edges
      done
    done;
    !edges
  in
  let edges = k5 0 @ k5 5 @ [ (0, 5); (1, 6); (2, 7) ] in
  let g = G.of_edges ~n:10 edges in
  let solver piece =
    (Mpl.Exact_color.solve ~k:4 ~alpha:0.1 piece).Mpl.Bnb.colors
  in
  let stats = Mpl.Division.fresh_stats () in
  let colors = Mpl.Division.assign ~stats ~k:4 ~alpha:0.1 ~solver g in
  Alcotest.(check int) "exactly the two native conflicts" 2
    (C.evaluate g colors).C.conflicts;
  Alcotest.(check bool) "a GH cut actually fired" true
    (stats.Mpl.Division.cuts >= 1)

let test_plan_drops_leaves () =
  (* The merge thunk must not keep leaf pieces alive: once [plan] has
     handed a leaf to [emit] and [emit] has returned a thunk that does
     not capture it, the piece is garbage even while the join is
     pending. Three components shed leaves through three stages: two
     K5s joined by a 2-cut (GH cut), a lone K5, and a K5 with a pendant
     vertex (peeled around a K5 core); a fourth, a path, peels away
     completely. *)
  let k5 base =
    List.concat_map
      (fun i -> List.init (4 - i) (fun d -> (base + i, base + i + d + 1)))
      [ 0; 1; 2; 3 ]
  in
  let edges =
    k5 0 @ k5 5 @ [ (0, 5); (1, 6) ] @ k5 10 @ k5 15 @ [ (15, 20) ]
    @ [ (21, 22); (22, 23) ]
  in
  let g = G.of_edges ~n:24 edges in
  let leaves = Weak.create 16 in
  let emitted = ref 0 in
  let emit piece =
    Weak.set leaves !emitted (Some piece);
    incr emitted;
    let colors = Mpl.Linear_color.solve ~k:4 ~alpha:0.1 piece in
    fun () -> colors
  in
  let join = Mpl.Division.plan ~k:4 ~alpha:0.1 ~emit g in
  Alcotest.(check int) "leaves emitted" 4 !emitted;
  Gc.full_major ();
  for i = 0 to !emitted - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "leaf %d unreachable before the join" i)
      false (Weak.check leaves i)
  done;
  let colors = join () in
  Alcotest.(check int) "one color per vertex" 24 (Array.length colors);
  Alcotest.(check bool) "complete" true (C.is_complete colors);
  Alcotest.(check bool) "in range" true (C.check_range ~k:4 colors)

(* Trivial pieces — a lone vertex, a stitch pair, a stitch bridge that
   the block split sheds off larger blocks — under full and partial
   stage sets. Each expectation is the general path's answer (colors
   and [Division.stats]), recorded before division resolved such pieces
   without running its stages; the resolution must reproduce it
   exactly, and a stage set that lacks a stage the resolution stands in
   for must still take the general path. *)
let k5_edges base =
  List.concat_map
    (fun i -> List.init (4 - i) (fun d -> (base + i, base + i + d + 1)))
    [ 0; 1; 2; 3 ]

let trivial_graphs =
  [
    ("lone vertex", G.of_edges ~n:1 []);
    ("stitch pair", G.of_edges ~stitch_edges:[ (0, 1) ] ~n:2 []);
    ( "stitch pair + friendly",
      G.of_edges ~stitch_edges:[ (0, 1) ] ~friendly_edges:[ (0, 1) ] ~n:2 []
    );
    ( "vertex beside a stitch pair",
      G.of_edges ~stitch_edges:[ (1, 2) ] ~n:3 [] );
    ( "K5 with a stitch bridge",
      G.of_edges ~stitch_edges:[ (2, 5) ] ~n:6 (k5_edges 0) );
    ( "two K5s joined by a stitch bridge",
      G.of_edges ~stitch_edges:[ (3, 6) ] ~n:10 (k5_edges 0 @ k5_edges 5) );
  ]

let stage_sets =
  let all = Mpl.Division.all_stages in
  [
    ("all", all);
    ("no gh", { all with Mpl.Division.use_ghtree = false });
    ("no peel", { all with Mpl.Division.use_peel = false });
    ("no components", { all with Mpl.Division.use_components = false });
    ("no biconnected", { all with Mpl.Division.use_biconnected = false });
    ("none", Mpl.Division.no_stages);
  ]

let trivial_outcome ~stages g =
  let stats = Mpl.Division.fresh_stats () in
  let colors =
    Mpl.Division.assign ~stats ~stages ~k:4 ~alpha:0.1
      ~solver:(Mpl.Linear_color.solve ~k:4 ~alpha:0.1)
      g
  in
  Printf.sprintf "colors=%s pieces=%d largest=%d peeled=%d cuts=%d"
    (String.concat "," (Array.to_list (Array.map string_of_int colors)))
    stats.Mpl.Division.pieces stats.Mpl.Division.largest_piece
    stats.Mpl.Division.peeled stats.Mpl.Division.cuts

let trivial_expected =
  [
    ("lone vertex, stages all",
     "colors=0 pieces=0 largest=0 peeled=1 cuts=0");
    ("lone vertex, stages no gh",
     "colors=0 pieces=0 largest=0 peeled=1 cuts=0");
    ("lone vertex, stages no peel",
     "colors=0 pieces=1 largest=1 peeled=0 cuts=0");
    ("lone vertex, stages no components",
     "colors=0 pieces=0 largest=0 peeled=1 cuts=0");
    ("lone vertex, stages no biconnected",
     "colors=0 pieces=0 largest=0 peeled=1 cuts=0");
    ("lone vertex, stages none",
     "colors=0 pieces=1 largest=1 peeled=0 cuts=0");
    ("stitch pair, stages all",
     "colors=0,0 pieces=0 largest=0 peeled=2 cuts=1");
    ("stitch pair, stages no gh",
     "colors=0,0 pieces=1 largest=2 peeled=0 cuts=0");
    ("stitch pair, stages no peel",
     "colors=0,0 pieces=2 largest=1 peeled=0 cuts=1");
    ("stitch pair, stages no components",
     "colors=0,0 pieces=0 largest=0 peeled=2 cuts=1");
    ("stitch pair, stages no biconnected",
     "colors=0,0 pieces=0 largest=0 peeled=2 cuts=1");
    ("stitch pair, stages none",
     "colors=0,0 pieces=1 largest=2 peeled=0 cuts=0");
    ("stitch pair + friendly, stages all",
     "colors=0,0 pieces=0 largest=0 peeled=2 cuts=1");
    ("stitch pair + friendly, stages no gh",
     "colors=0,0 pieces=1 largest=2 peeled=0 cuts=0");
    ("stitch pair + friendly, stages no peel",
     "colors=0,0 pieces=2 largest=1 peeled=0 cuts=1");
    ("stitch pair + friendly, stages no components",
     "colors=0,0 pieces=0 largest=0 peeled=2 cuts=1");
    ("stitch pair + friendly, stages no biconnected",
     "colors=0,0 pieces=0 largest=0 peeled=2 cuts=1");
    ("stitch pair + friendly, stages none",
     "colors=0,0 pieces=1 largest=2 peeled=0 cuts=0");
    ("vertex beside a stitch pair, stages all",
     "colors=0,0,0 pieces=0 largest=0 peeled=3 cuts=1");
    ("vertex beside a stitch pair, stages no gh",
     "colors=0,0,0 pieces=1 largest=2 peeled=1 cuts=0");
    ("vertex beside a stitch pair, stages no peel",
     "colors=0,0,0 pieces=3 largest=1 peeled=0 cuts=1");
    ("vertex beside a stitch pair, stages no components",
     "colors=0,0,0 pieces=0 largest=0 peeled=3 cuts=1");
    ("vertex beside a stitch pair, stages no biconnected",
     "colors=0,0,0 pieces=0 largest=0 peeled=3 cuts=1");
    ("vertex beside a stitch pair, stages none",
     "colors=0,0,0 pieces=1 largest=3 peeled=0 cuts=0");
    ("K5 with a stitch bridge, stages all",
     "colors=2,3,0,1,2,0 pieces=1 largest=5 peeled=2 cuts=1");
    ("K5 with a stitch bridge, stages no gh",
     "colors=2,3,0,1,2,0 pieces=2 largest=5 peeled=0 cuts=0");
    ("K5 with a stitch bridge, stages no peel",
     "colors=2,3,0,1,2,0 pieces=3 largest=5 peeled=0 cuts=1");
    ("K5 with a stitch bridge, stages no components",
     "colors=2,3,0,1,2,0 pieces=1 largest=5 peeled=2 cuts=1");
    ("K5 with a stitch bridge, stages no biconnected",
     "colors=2,3,0,1,2,0 pieces=1 largest=5 peeled=1 cuts=1");
    ("K5 with a stitch bridge, stages none",
     "colors=0,1,2,3,0,2 pieces=1 largest=6 peeled=0 cuts=0");
    ("two K5s joined by a stitch bridge, stages all",
     "colors=2,3,0,1,2,0,1,2,3,0 pieces=2 largest=5 peeled=2 cuts=1");
    ("two K5s joined by a stitch bridge, stages no gh",
     "colors=2,3,0,1,2,0,1,2,3,0 pieces=3 largest=5 peeled=0 cuts=0");
    ("two K5s joined by a stitch bridge, stages no peel",
     "colors=2,3,0,1,2,0,1,2,3,0 pieces=4 largest=5 peeled=0 cuts=1");
    ("two K5s joined by a stitch bridge, stages no components",
     "colors=2,3,0,1,2,0,1,2,3,0 pieces=2 largest=5 peeled=2 cuts=1");
    ("two K5s joined by a stitch bridge, stages no biconnected",
     "colors=2,3,0,1,2,0,1,2,3,0 pieces=2 largest=5 peeled=0 cuts=1");
    ("two K5s joined by a stitch bridge, stages none",
     "colors=0,1,2,3,0,0,3,1,2,0 pieces=1 largest=10 peeled=0 cuts=0");
  ]

let test_trivial_pieces () =
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun (sname, stages) ->
          let what = gname ^ ", stages " ^ sname in
          let want = List.assoc what trivial_expected in
          Alcotest.(check string) what want (trivial_outcome ~stages g))
        stage_sets)
    trivial_graphs

(* The division counters say what ran: a resolved stitch pair books its
   cut and its two pops, counts as trivial and runs no max-flow; with
   the peel off it takes the GH stage, whose tree and cut recovery run
   one max-flow each. *)
let test_trivial_counters () =
  let counters stages =
    let m = Mpl_obs.Metrics.create () in
    let obs = Mpl_obs.Obs.make ~metrics:m () in
    ignore
      (Mpl.Division.assign ~obs ~stages ~k:4 ~alpha:0.1
         ~solver:(Mpl.Linear_color.solve ~k:4 ~alpha:0.1)
         (G.of_edges ~stitch_edges:[ (0, 1) ] ~n:2 []));
    let snap = Mpl_obs.Metrics.snapshot m in
    List.map
      (fun name ->
        Option.value ~default:0
          (Mpl_obs.Metrics.find_counter snap ("division." ^ name)))
      [ "trivial"; "maxflow_calls"; "gh_cuts"; "peeled"; "pieces" ]
  in
  let all = Mpl.Division.all_stages in
  Alcotest.(check (list int)) "all stages" [ 1; 0; 1; 2; 0 ] (counters all);
  Alcotest.(check (list int)) "peel off"
    [ 0; 2; 1; 0; 2 ]
    (counters { all with Mpl.Division.use_peel = false })

let test_report_consistency () =
  let g = clique 6 in
  List.iter
    (fun algo ->
      let r = D.assign algo g in
      let re = C.evaluate g r.D.colors in
      Alcotest.(check int)
        (D.algorithm_name algo ^ " cost matches colors")
        r.D.cost.C.scaled re.C.scaled)
    [ D.Ilp; D.Exact; D.Sdp_backtrack; D.Sdp_greedy; D.Linear ]

let test_k6_needs_two () =
  let g = clique 6 in
  List.iter
    (fun algo ->
      let r = D.assign algo g in
      Alcotest.(check int) (D.algorithm_name algo ^ " K6 cost") 2
        r.D.cost.C.conflicts)
    [ D.Ilp; D.Exact; D.Sdp_backtrack; D.Sdp_greedy; D.Linear ]

let test_decomposer_deterministic () =
  let layout = Mpl_layout.Benchgen.circuit "C499" in
  let g = G.of_edges ~n:0 [] in
  ignore g;
  let graph = G.of_layout layout ~min_s:80 in
  List.iter
    (fun algo ->
      let a = D.assign algo graph and b = D.assign algo graph in
      Alcotest.(check (array int))
        (D.algorithm_name algo ^ " deterministic")
        a.D.colors b.D.colors)
    [ D.Exact; D.Sdp_backtrack; D.Sdp_greedy; D.Linear ]

let suite =
  [
    Alcotest.test_case "decomposer deterministic" `Quick
      test_decomposer_deterministic;
    Alcotest.test_case "of_edges validation" `Quick test_of_edges_validation;
    Alcotest.test_case "degrees and lookup" `Quick test_degrees_and_lookup;
    Alcotest.test_case "subgraph" `Quick test_subgraph;
    QCheck_alcotest.to_alcotest prop_subgraphs_match_reference;
    Alcotest.test_case "subgraphs layout parity" `Quick
      test_subgraphs_layout_parity;
    Alcotest.test_case "subgraphs duplicate vertex" `Quick
      test_subgraphs_duplicate;
    Alcotest.test_case "subgraphs allocation linear" `Quick
      test_subgraphs_allocation_linear;
    Alcotest.test_case "coloring cost" `Quick test_coloring_cost;
    Alcotest.test_case "permutation invariance" `Quick
      test_permutation_invariance;
    QCheck_alcotest.to_alcotest prop_csr_matches_list_adjacency;
    QCheck_alcotest.to_alcotest prop_exact_matches_oracle;
    QCheck_alcotest.to_alcotest prop_ilp_matches_exact;
    QCheck_alcotest.to_alcotest prop_sdp_backtrack_near_optimal;
    QCheck_alcotest.to_alcotest prop_linear_legal_and_bounded;
    QCheck_alcotest.to_alcotest prop_linear_popped_conflict_free;
    QCheck_alcotest.to_alcotest prop_greedy_map_complete;
    QCheck_alcotest.to_alcotest prop_division_preserves_conflict_optimum;
    QCheck_alcotest.to_alcotest prop_division_no_worse_for_heuristics;
    QCheck_alcotest.to_alcotest prop_division_stage_toggles;
    QCheck_alcotest.to_alcotest prop_bounded_cuts_invariant;
    QCheck_alcotest.to_alcotest prop_k_patterning_general;
    Alcotest.test_case "rotation lemma (3-cut)" `Quick test_rotation_lemma;
    Alcotest.test_case "assign = Division.assign oracle" `Quick
      test_assign_matches_division_oracle;
    Alcotest.test_case "plan drops leaves before the join" `Quick
      test_plan_drops_leaves;
    Alcotest.test_case "trivial pieces = general path" `Quick
      test_trivial_pieces;
    Alcotest.test_case "trivial pieces: counters" `Quick test_trivial_counters;
    Alcotest.test_case "report consistency" `Quick test_report_consistency;
    Alcotest.test_case "K6 costs two conflicts" `Quick test_k6_needs_two;
  ]
