(* Unit and property tests for Mpl_geometry. *)

module Rect = Mpl_geometry.Rect
module Polygon = Mpl_geometry.Polygon
module Grid_index = Mpl_geometry.Grid_index

let rect_gen =
  QCheck.Gen.(
    map
      (fun (x0, y0, w, h) ->
        Rect.make ~x0 ~y0 ~x1:(x0 + 1 + w) ~y1:(y0 + 1 + h))
      (quad (int_range (-500) 500) (int_range (-500) 500) (int_range 0 200)
         (int_range 0 200)))

let rect_arb = QCheck.make ~print:(Format.asprintf "%a" Rect.pp) rect_gen

let test_make_rejects_degenerate () =
  Alcotest.check_raises "zero width"
    (Invalid_argument "Rect.make: degenerate rectangle (0,0)-(0,5)")
    (fun () -> ignore (Rect.make ~x0:0 ~y0:0 ~x1:0 ~y1:5))

let test_basic_ops () =
  let r = Rect.make ~x0:0 ~y0:0 ~x1:10 ~y1:20 in
  Alcotest.(check int) "width" 10 (Rect.width r);
  Alcotest.(check int) "height" 20 (Rect.height r);
  Alcotest.(check int) "area" 200 (Rect.area r);
  let t = Rect.translate r ~dx:5 ~dy:(-3) in
  Alcotest.(check bool) "translate" true
    (Rect.equal t (Rect.make ~x0:5 ~y0:(-3) ~x1:15 ~y1:17))

let test_distance_cases () =
  let a = Rect.make ~x0:0 ~y0:0 ~x1:10 ~y1:10 in
  let b = Rect.make ~x0:20 ~y0:0 ~x1:30 ~y1:10 in
  Alcotest.(check int) "horizontal gap" 100 (Rect.distance2 a b);
  let c = Rect.make ~x0:20 ~y0:20 ~x1:30 ~y1:30 in
  Alcotest.(check int) "diagonal gap" 200 (Rect.distance2 a c);
  let d = Rect.make ~x0:5 ~y0:5 ~x1:15 ~y1:15 in
  Alcotest.(check int) "overlap" 0 (Rect.distance2 a d)

let prop_distance_symmetric =
  QCheck.Test.make ~name:"distance2 symmetric" ~count:500
    (QCheck.pair rect_arb rect_arb)
    (fun (a, b) -> Rect.distance2 a b = Rect.distance2 b a)

let prop_distance_zero_iff_touches =
  QCheck.Test.make ~name:"distance2 = 0 iff touching" ~count:500
    (QCheck.pair rect_arb rect_arb)
    (fun (a, b) -> Rect.distance2 a b = 0 = Rect.touches a b)

let prop_inflate_monotone =
  QCheck.Test.make ~name:"inflating shrinks distance" ~count:500
    (QCheck.pair rect_arb rect_arb)
    (fun (a, b) -> Rect.distance2 (Rect.inflate a 5) b <= Rect.distance2 a b)

let prop_intersection_inside =
  QCheck.Test.make ~name:"intersection inside both" ~count:500
    (QCheck.pair rect_arb rect_arb)
    (fun (a, b) ->
      match Rect.intersection a b with
      | None -> not (Rect.overlaps a b)
      | Some i ->
        Rect.overlaps a b
        && Rect.area i <= min (Rect.area a) (Rect.area b)
        && Rect.touches i a && Rect.touches i b)

let prop_union_bbox_contains =
  QCheck.Test.make ~name:"union bbox contains both" ~count:500
    (QCheck.pair rect_arb rect_arb)
    (fun (a, b) ->
      let u = Rect.union_bbox a b in
      Rect.distance2 u a = 0 && Rect.distance2 u b = 0
      && Rect.area u >= max (Rect.area a) (Rect.area b))

let test_polygon_connectivity () =
  let a = Rect.make ~x0:0 ~y0:0 ~x1:10 ~y1:10 in
  let b = Rect.make ~x0:10 ~y0:0 ~x1:20 ~y1:10 in
  let far = Rect.make ~x0:100 ~y0:100 ~x1:110 ~y1:110 in
  ignore (Polygon.of_rects [ a; b ]);
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Polygon.of_rects: disconnected rectangle union")
    (fun () -> ignore (Polygon.of_rects [ a; far ]));
  Alcotest.check_raises "empty" (Invalid_argument "Polygon.of_rects: empty")
    (fun () -> ignore (Polygon.of_rects []))

let test_polygon_distance () =
  let l =
    Polygon.of_rects
      [ Rect.make ~x0:0 ~y0:0 ~x1:10 ~y1:40; Rect.make ~x0:10 ~y0:0 ~x1:40 ~y1:10 ]
  in
  let dot = Polygon.of_rect (Rect.make ~x0:20 ~y0:20 ~x1:30 ~y1:30) in
  (* Nearest sub-rectangle is the horizontal leg at distance 10 in y. *)
  Alcotest.(check int) "L-shape distance" 100 (Polygon.distance2 l dot)

(* Grid-index layouts: one compact cluster (negative coordinates
   included), or two clusters pushed far apart so the cell bounding box
   is mostly empty and the index must fall back to its sparse table.
   Boxes narrower than a cell are common, so an entry that sits in the
   bounding box's last row or column alone is too. *)
let layout_gen =
  QCheck.Gen.(
    let box =
      map2
        (fun (x0, y0) (w, h) ->
          Rect.make ~x0 ~y0 ~x1:(x0 + 1 + w) ~y1:(y0 + 1 + h))
        (pair (int_range (-500) 500) (int_range (-500) 500))
        (oneof
           [
             pair (int_range 0 20) (int_range 0 20);
             pair (int_range 0 200) (int_range 0 200);
           ])
    in
    let cluster = list_size (int_range 1 20) box in
    let far_offset =
      map2
        (fun sign d -> sign * d)
        (oneofl [ -1; 1 ])
        (int_range 100_000 10_000_000)
    in
    oneof
      [
        map (fun rs -> (false, rs)) (list_size (int_range 2 60) box);
        map
          (fun (a, b, dx, dy) ->
            (true, a @ List.map (fun r -> Rect.translate r ~dx ~dy) b))
          (quad cluster cluster far_offset far_offset);
      ])

let layout_arb =
  QCheck.make
    ~print:(fun (far, rs) ->
      Printf.sprintf "far=%b [%s]" far
        (String.concat "; " (List.map (Format.asprintf "%a" Rect.pp) rs)))
    layout_gen

(* The grid index must report exactly the pairs whose radius-grown boxes
   touch — each once, lower id first — on either table; a far layout
   must be served by the sparse one. *)
let prop_grid_index_complete =
  QCheck.Test.make ~name:"grid index finds all close pairs" ~count:200
    layout_arb
    (fun (far, rects) ->
      let radius = 50 in
      let index = Grid_index.create ~cell:radius in
      List.iteri (fun i r -> Grid_index.add index i r) rects;
      let found = ref [] in
      Grid_index.iter_pairs index ~radius (fun i j ->
          found := (i, j) :: !found);
      let arr = Array.of_list rects in
      let expected = ref [] in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              if i < j && Rect.touches (Rect.inflate a radius) b then
                expected := (i, j) :: !expected)
            arr)
        arr;
      List.sort compare !found = List.sort compare !expected
      && ((not far) || not (Grid_index.stats index).Grid_index.dense))

let prop_grid_index_query =
  QCheck.Test.make ~name:"query superset of in-radius items" ~count:200
    (QCheck.pair rect_arb layout_arb)
    (fun (probe, (far, rects)) ->
      let radius = 60 in
      let index = Grid_index.create ~cell:radius in
      List.iteri (fun i r -> Grid_index.add index i r) rects;
      let hits = Grid_index.query index probe ~radius in
      let grown = Rect.inflate probe radius in
      let expected =
        List.filteri (fun _ r -> Rect.touches grown r) rects |> List.length
      in
      List.length hits = expected
      && List.length (List.sort_uniq compare hits) = expected
      && List.for_all
           (fun (i, r) ->
             Rect.distance2 probe r > radius * radius || List.mem i hits)
           (List.mapi (fun i r -> (i, r)) rects)
      && ((not far) || not (Grid_index.stats index).Grid_index.dense))

(* A compact layout is served by the dense table: 250 x 250 boxes, each
   covering 4 x 4 cells, tile a 1000 x 1000-cell grid. *)
let test_grid_index_dense () =
  let cell = 10 in
  let index = Grid_index.create ~cell in
  for i = 0 to 249 do
    for j = 0 to 249 do
      let x0 = 4 * cell * i and y0 = 4 * cell * j in
      Grid_index.add index ((250 * i) + j)
        (Rect.make ~x0 ~y0 ~x1:(x0 + (4 * cell) - 1) ~y1:(y0 + (4 * cell) - 1))
    done
  done;
  let s = Grid_index.stats index in
  Alcotest.(check bool) "dense table" true s.Grid_index.dense;
  Alcotest.(check int) "one bucket per grid cell" 1_000_000 s.Grid_index.cells;
  Alcotest.(check int) "incidences" 1_000_000 s.Grid_index.incidences;
  Alcotest.(check int) "no hash chains" 0 s.Grid_index.max_chain;
  (* An interior box touches itself and its 8 neighbors. *)
  Alcotest.(check int) "interior query" 9
    (List.length
       (Grid_index.query index
          (Rect.make ~x0:400 ~y0:400 ~x1:439 ~y1:439)
          ~radius:1))

(* Two 100 x 100-cell clusters a million cells apart leave the cell
   bounding box almost empty, so the index goes sparse. The stdlib int
   hash folds a packed cell's high half onto its low half and chains
   these 20,000 cells up to 50 deep; the mixed hash keeps chains short. *)
let test_grid_index_sparse_chains () =
  let cell = 2 in
  let index = Grid_index.create ~cell in
  let cluster base =
    for cx = base to base + 99 do
      for cy = base to base + 99 do
        let x0 = cell * cx and y0 = cell * cy in
        Grid_index.add index ((cx * 1000) + cy)
          (Rect.make ~x0 ~y0 ~x1:(x0 + cell - 1) ~y1:(y0 + cell - 1))
      done
    done
  in
  cluster 0;
  cluster 1_000_000;
  let s = Grid_index.stats index in
  Alcotest.(check bool) "sparse table" false s.Grid_index.dense;
  Alcotest.(check int) "occupied cells" 20_000 s.Grid_index.cells;
  Alcotest.(check bool)
    (Printf.sprintf "max chain %d <= 8" s.Grid_index.max_chain)
    true
    (s.Grid_index.max_chain <= 8)

module Interval = Mpl_geometry.Interval

let test_interval_merge () =
  Alcotest.(check (list (pair int int))) "merge overlapping"
    [ (0, 5); (7, 10) ]
    (Interval.merge [ (3, 5); (0, 2); (1, 4); (7, 9); (8, 10) ]);
  Alcotest.(check (list (pair int int))) "touching coalesce" [ (0, 4) ]
    (Interval.merge [ (0, 2); (2, 4) ]);
  Alcotest.(check (list (pair int int))) "drops empties" [ (1, 2) ]
    (Interval.merge [ (5, 3); (1, 2) ])

let test_interval_complement () =
  Alcotest.(check (list (pair int int))) "two gaps"
    [ (2, 3); (5, 8) ]
    (Interval.complement (0, 8) [ (0, 2); (3, 5) ]);
  Alcotest.(check (list (pair int int))) "fully covered" []
    (Interval.complement (0, 8) [ (-1, 9) ]);
  Alcotest.(check (list (pair int int))) "uncovered" [ (0, 8) ]
    (Interval.complement (0, 8) [])

let interval_gen =
  QCheck.Gen.(
    list_size (int_range 0 8)
      (map
         (fun (a, b) -> (min a b, max a b))
         (pair (int_range (-50) 50) (int_range (-50) 50))))

let prop_interval_merge_complement =
  QCheck.Test.make ~name:"merge/complement partition the span" ~count:300
    (QCheck.make interval_gen)
    (fun ivs ->
      let span = (-60, 60) in
      let covered = Interval.merge ivs in
      let free = Interval.complement span covered in
      (* Every integer point of the span is in exactly one side. *)
      let in_any list x = List.exists (fun (lo, hi) -> lo <= x && x <= hi) list in
      let ok = ref true in
      for x = -59 to 59 do
        (* Interior points: boundaries may belong to both sides. *)
        let covered_here = in_any covered x in
        let free_here =
          List.exists (fun (lo, hi) -> lo < x && x < hi) free
        in
        if covered_here && free_here then ok := false;
        if (not covered_here) && not (in_any free x) then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "interval merge" `Quick test_interval_merge;
    Alcotest.test_case "interval complement" `Quick test_interval_complement;
    QCheck_alcotest.to_alcotest prop_interval_merge_complement;
    Alcotest.test_case "rect rejects degenerate" `Quick
      test_make_rejects_degenerate;
    Alcotest.test_case "rect basic ops" `Quick test_basic_ops;
    Alcotest.test_case "rect distance cases" `Quick test_distance_cases;
    QCheck_alcotest.to_alcotest prop_distance_symmetric;
    QCheck_alcotest.to_alcotest prop_distance_zero_iff_touches;
    QCheck_alcotest.to_alcotest prop_inflate_monotone;
    QCheck_alcotest.to_alcotest prop_intersection_inside;
    QCheck_alcotest.to_alcotest prop_union_bbox_contains;
    Alcotest.test_case "polygon connectivity" `Quick test_polygon_connectivity;
    Alcotest.test_case "polygon distance" `Quick test_polygon_distance;
    QCheck_alcotest.to_alcotest prop_grid_index_complete;
    QCheck_alcotest.to_alcotest prop_grid_index_query;
    Alcotest.test_case "grid index dense table" `Quick test_grid_index_dense;
    Alcotest.test_case "grid index sparse chains" `Quick
      test_grid_index_sparse_chains;
  ]
