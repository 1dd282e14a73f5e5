(* Tests for the geometric window sharding front-end: plan geometry,
   border-component reconciliation (Lemma 1 rotation at the former
   window border), and the headline contract — sharded output
   bit-identical to the unsharded run at every windows/jobs/cache
   setting. *)

module Rect = Mpl_geometry.Rect
module Polygon = Mpl_geometry.Polygon
module Layout = Mpl_layout.Layout
module G = Mpl.Decomp_graph
module S = Mpl.Shard
module D = Mpl.Decomposer
module Div = Mpl.Division
module Sink = Mpl_obs.Sink

let contact x y =
  Polygon.of_rect (Rect.make ~x0:x ~y0:y ~x1:(x + 20) ~y1:(y + 20))

(* Random mixed contact/wire layouts: positions on a 3000x1000 nm
   extent, dense enough that components regularly straddle window
   borders, with wires long enough to stitch-split. *)
let random_layout seed ncontacts nwires =
  let rng = Mpl_util.Rng.create seed in
  let feats = ref [] in
  for _ = 1 to ncontacts do
    let x = Mpl_util.Rng.int rng 3000 and y = Mpl_util.Rng.int rng 1000 in
    feats := contact x y :: !feats
  done;
  for _ = 1 to nwires do
    let x = Mpl_util.Rng.int rng 2600 and y = Mpl_util.Rng.int rng 1000 in
    let w = 200 + Mpl_util.Rng.int rng 400 in
    feats :=
      Polygon.of_rect (Rect.make ~x0:x ~y0:y ~x1:(x + w) ~y1:(y + 20))
      :: !feats
  done;
  Layout.make ~name:"rand" Layout.default_tech (List.rev !feats)

let layout_gen =
  QCheck.Gen.(
    int_range 0 100_000 >>= fun seed ->
    int_range 5 90 >>= fun nc ->
    int_range 0 8 >|= fun nw -> (seed, nc, nw))

let layout_arb =
  QCheck.make
    ~print:(fun (s, nc, nw) -> Printf.sprintf "seed=%d nc=%d nw=%d" s nc nw)
    layout_gen

(* Plan geometry invariants: members ascending, every feature core in
   exactly one window, and the halo contract — every feature within the
   halo radius of a window's core extent is a member of that window. *)
let prop_plan_geometry =
  QCheck.Test.make ~name:"shard plan: cover, unique ownership, halo" ~count:80
    layout_arb (fun (seed, nc, nw) ->
      let layout = random_layout seed nc nw in
      let nf = Array.length layout.Layout.features in
      let halo = 100 in
      List.for_all
        (fun windows ->
          let sh = S.plan ~windows ~halo layout in
          let owned = Array.make nf 0 in
          Array.iter
            (fun (w : S.window) ->
              let sorted = ref true in
              Array.iteri
                (fun j m ->
                  if j > 0 && m <= w.S.members.(j - 1) then sorted := false)
                w.S.members;
              if not !sorted then QCheck.Test.fail_report "members not ascending";
              Array.iteri
                (fun j m -> if w.S.core.(j) then owned.(m) <- owned.(m) + 1)
                w.S.members)
            sh.S.windows;
          Array.iter
            (fun c ->
              if c <> 1 then QCheck.Test.fail_report "feature not owned once")
            owned;
          let boxes = Array.map Polygon.bbox layout.Layout.features in
          Array.iter
            (fun (w : S.window) ->
              let ext = ref None in
              Array.iteri
                (fun j m ->
                  if w.S.core.(j) then
                    ext :=
                      Some
                        (match !ext with
                        | None -> boxes.(m)
                        | Some e -> Rect.union_bbox e boxes.(m)))
                w.S.members;
              let e = Option.get !ext in
              let mem = Hashtbl.create 16 in
              Array.iter (fun m -> Hashtbl.replace mem m ()) w.S.members;
              Array.iteri
                (fun i b ->
                  if Rect.distance2 b e <= halo * halo then
                    if not (Hashtbl.mem mem i) then
                      QCheck.Test.fail_report "halo feature missing")
                boxes)
            sh.S.windows;
          true)
        [ 2; 3; 5 ])

let sharded_params ~jobs ~cache = { D.default_params with jobs; cache }

(* The headline contract: for the self-contained algorithms the sharded
   decomposition is bit-identical to the unsharded one at every
   windows x jobs x cache setting. *)
let prop_sharded_equals_unsharded =
  QCheck.Test.make ~name:"sharded = unsharded (windows x jobs x cache)"
    ~count:40 layout_arb (fun (seed, nc, nw) ->
      let layout = random_layout seed nc nw in
      let _, base = D.decompose ~min_s:80 D.Linear layout in
      List.for_all
        (fun windows ->
          List.for_all
            (fun jobs ->
              List.for_all
                (fun cache ->
                  let r =
                    D.decompose_sharded
                      ~params:(sharded_params ~jobs ~cache)
                      ~windows ~min_s:80 D.Linear layout
                  in
                  r.D.colors = base.D.colors
                  && r.D.cost.Mpl.Coloring.scaled
                     = base.D.cost.Mpl.Coloring.scaled)
                [ false; true ])
            [ 1; 2 ])
        [ 2; 3; 5 ])

(* Same contract for the SDP pipeline (fewer cases: it is slower). *)
let prop_sharded_equals_unsharded_sdp =
  QCheck.Test.make ~name:"sharded = unsharded (SDP+Backtrack)" ~count:10
    layout_arb (fun (seed, nc, nw) ->
      let layout = random_layout seed nc nw in
      let _, base = D.decompose ~min_s:80 D.Sdp_backtrack layout in
      List.for_all
        (fun windows ->
          let r =
            D.decompose_sharded
              ~params:(sharded_params ~jobs:2 ~cache:true)
              ~windows ~min_s:80 D.Sdp_backtrack layout
          in
          r.D.colors = base.D.colors)
        [ 2; 4 ])

(* Lemma 1 rotation (Division.best_rotation) on a hand-built
   border-straddling pair: a crossing conflict forces the rotation that
   separates the endpoint colors; a crossing stitch picks the rotation
   that aligns them. *)
let test_best_rotation () =
  let r = Div.best_rotation ~k:4 ~alpha:0.1 [| 0 |] [| 0 |] [ (0, 0) ] [] in
  Alcotest.(check bool)
    "conflict endpoints separated" true
    ((0 + r) mod 4 <> 0);
  let r = Div.best_rotation ~k:4 ~alpha:0.1 [| 2 |] [| 0 |] [] [ (0, 0) ] in
  Alcotest.(check int) "stitch endpoints aligned" 2 r;
  (* Conflict beats stitch at the default weights: rotating to satisfy
     the conflict is worth breaking the stitch. *)
  let r =
    Div.best_rotation ~k:4 ~alpha:0.1 [| 0; 1 |] [| 0; 1 |]
      [ (0, 0) ]
      [ (1, 1) ]
  in
  Alcotest.(check bool) "conflict wins" true ((0 + r) mod 4 <> 0)

(* A conflict chain across the whole extent: under any 2-window cut it
   is one border-straddling component. The rebuilt border piece must be
   bit-identical to the unsharded graph (which is that single
   component), and the end-to-end sharded coloring identical too. *)
let test_border_component () =
  let feats = List.init 20 (fun i -> contact (i * 60) 0) in
  let layout = Layout.make ~name:"chain" Layout.default_tech feats in
  let sh = S.plan ~windows:2 ~halo:100 layout in
  Alcotest.(check int) "two windows" 2 (Array.length sh.S.windows);
  let acc = S.fresh_acc sh in
  let interiors =
    List.concat_map
      (S.scan_window ~acc ~min_s:80 ~hp:20 layout)
      (Array.to_list sh.S.windows)
  in
  Alcotest.(check int) "no interior pieces" 0 (List.length interiors);
  let border = S.border_pieces acc ~min_s:80 ~hp:20 in
  Alcotest.(check int) "one border class" 1 (List.length border);
  let p = List.hd border in
  let g = G.of_layout layout ~min_s:80 in
  Alcotest.(check int) "all vertices" g.G.n p.S.graph.G.n;
  Alcotest.(check (list (pair int int)))
    "conflict edges bit-identical" (G.conflict_edges g)
    (G.conflict_edges p.S.graph);
  Array.iteri
    (fun v f -> Alcotest.(check int) "canonical back map" v f)
    p.S.back_feature;
  let _, base = D.decompose ~min_s:80 D.Linear layout in
  let r =
    D.decompose_sharded ~windows:2 ~min_s:80 D.Linear layout
  in
  Alcotest.(check (array int)) "colors identical" base.D.colors r.D.colors

(* Window-count extremes collapse gracefully: 1 window (and more
   windows than features) still reproduce the unsharded output. *)
let test_window_extremes () =
  let layout = random_layout 7 40 3 in
  let _, base = D.decompose ~min_s:80 D.Linear layout in
  List.iter
    (fun windows ->
      let r =
        D.decompose_sharded ~windows ~min_s:80 D.Linear layout
      in
      Alcotest.(check (array int))
        (Printf.sprintf "windows=%d" windows)
        base.D.colors r.D.colors)
    [ 1; 5; 1000 ]

(* The synthetic generator is deterministic and lands near its feature
   target; a sharded run over it matches unsharded. *)
let test_synth_generator () =
  let spec = Mpl_layout.Benchgen.synth ~seed:11 ~features:2000 () in
  let l1 = Mpl_layout.Benchgen.generate spec in
  let l2 = Mpl_layout.Benchgen.generate spec in
  let n = Array.length l1.Layout.features in
  Alcotest.(check int)
    "deterministic" n
    (Array.length l2.Layout.features);
  Alcotest.(check bool)
    (Printf.sprintf "near target (got %d)" n)
    true
    (n > 1600 && n < 2400);
  let _, base = D.decompose ~min_s:80 D.Linear l1 in
  let r =
    D.decompose_sharded
      ~params:{ D.default_params with jobs = 2; cache = true }
      ~windows:6 ~min_s:80 D.Linear l1
  in
  Alcotest.(check (array int)) "sharded = unsharded" base.D.colors r.D.colors

(* A traced sharded run attributes each window's stitch split: one
   [graph.stitch_split] span inside every [shard.window], as an
   unsharded build records one under [graph.build]. *)
let test_sharded_stitch_split_span () =
  let layout =
    Mpl_layout.Benchgen.generate
      (Mpl_layout.Benchgen.synth ~seed:11 ~features:2000 ())
  in
  let sink = Sink.create () in
  ignore
    (D.decompose_sharded
       ~params:{ D.default_params with trace = Some sink }
       ~windows:4 ~min_s:80 D.Linear layout);
  let events = Sink.events sink in
  let named name =
    List.filter (fun (e : Sink.event) -> e.Sink.name = name) events
  in
  let windows = named "shard.window" and splits = named "graph.stitch_split" in
  Alcotest.(check bool) "windows traced" true (windows <> []);
  Alcotest.(check int) "one stitch split per window" (List.length windows)
    (List.length splits);
  let inside (e : Sink.event) (w : Sink.event) =
    e.Sink.tid = w.Sink.tid
    && e.Sink.ts_ns >= w.Sink.ts_ns
    && Int64.add e.Sink.ts_ns e.Sink.dur_ns
       <= Int64.add w.Sink.ts_ns w.Sink.dur_ns
  in
  Alcotest.(check bool) "each split inside a window" true
    (List.for_all (fun s -> List.exists (inside s) windows) splits);
  Alcotest.(check bool) "well nested" true (Test_obs.well_nested events)

(* A window count below 1 plans one window. *)
let test_sharded_guards () =
  let layout = random_layout 3 10 0 in
  let _, base = D.decompose ~min_s:80 D.Linear layout in
  List.iter
    (fun windows ->
      let r =
        D.decompose_sharded ~windows ~min_s:80 D.Linear layout
      in
      Alcotest.(check (array int))
        (Printf.sprintf "windows=%d" windows)
        base.D.colors r.D.colors)
    [ 0; -3 ];
  Alcotest.(check int) "one window" 1
    (Array.length
       (Mpl.Shard.plan ~windows:0 ~halo:80 layout).Mpl.Shard.windows)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_plan_geometry;
    QCheck_alcotest.to_alcotest prop_sharded_equals_unsharded;
    QCheck_alcotest.to_alcotest prop_sharded_equals_unsharded_sdp;
    Alcotest.test_case "Lemma 1 rotation at a window border" `Quick
      test_best_rotation;
    Alcotest.test_case "border-straddling component rebuilt bit-identical"
      `Quick test_border_component;
    Alcotest.test_case "window-count extremes" `Quick test_window_extremes;
    Alcotest.test_case "synthetic generator" `Quick test_synth_generator;
    Alcotest.test_case "sharded guards" `Quick test_sharded_guards;
    Alcotest.test_case "sharded run traces each window's stitch split"
      `Quick test_sharded_stitch_split_span;
  ]
