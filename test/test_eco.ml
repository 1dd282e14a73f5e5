(* Incremental (ECO) re-decomposition: edit scripts, session
   persistence, and the bit-identity contract of
   [Decomposer.redecompose] against a cold run on the edited layout. *)

module D = Mpl.Decomposer
module E = Mpl.Eco
module Rect = Mpl_geometry.Rect
module Polygon = Mpl_geometry.Polygon
module Layout = Mpl_layout.Layout
module Layout_io = Mpl_layout.Layout_io
module Benchgen = Mpl_layout.Benchgen

let min_s = 80 (* quadruple patterning radius for the default tech *)

let params ?(jobs = 1) ?(cache = false) () =
  {
    D.default_params with
    D.jobs;
    cache;
    solver_budget_s = 0. (* unlimited: keep exact runs deterministic *);
  }

let algo = D.Exact

let decompose_with p layout = D.decompose ~params:p ~min_s algo layout

let session_of p layout =
  let g, rep = decompose_with p layout in
  (D.snapshot ~params:p ~min_s algo g layout rep, rep)

let redecompose_exn p prev edits =
  match D.redecompose ~params:p ~prev ~edits algo with
  | Ok r -> r
  | Error m -> Alcotest.failf "redecompose failed: %s" m

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let with_temp f =
  let path = Filename.temp_file "mpld-eco" ".session" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* [Eco.save] then [Eco.load]: the session a file-backed chain resumes
   from. *)
let through_file s =
  with_temp (fun path ->
      E.save s path;
      E.load path)

let saved_bytes s =
  with_temp (fun path ->
      E.save s path;
      read_file path)

(* ------------------------------------------------------------------ *)
(* Edit scripts *)

let test_edit_roundtrip () =
  let edits =
    [
      E.Move { index = 3; dx = -40; dy = 20 };
      E.Remove 7;
      E.Add
        (Polygon.of_rects
           [
             Rect.make ~x0:0 ~y0:0 ~x1:20 ~y1:60;
             Rect.make ~x0:20 ~y0:40 ~x1:80 ~y1:60;
           ]);
    ]
  in
  match E.parse_edits (E.edits_to_string edits) with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok back ->
    Alcotest.(check string)
      "edit scripts round-trip" (E.edits_to_string edits)
      (E.edits_to_string back)

let test_edit_errors () =
  let bad s =
    match E.parse_edits s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" s
  in
  bad "MOVE 1 2";
  bad "REMOVE x";
  bad "ADD 1 0 0 10";
  bad "ADD 1 10 10 0 0";
  bad "FROB 1";
  (* apply-time validation *)
  let layout =
    Layout.make Layout.default_tech
      [ Polygon.of_rect (Rect.make ~x0:0 ~y0:0 ~x1:20 ~y1:20) ]
  in
  let bad_apply edits =
    match E.apply layout edits with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "expected apply error"
  in
  bad_apply [ E.Remove 1 ];
  bad_apply [ E.Remove (-1) ];
  bad_apply [ E.Remove 0; E.Move { index = 0; dx = 5; dy = 0 } ]

let test_apply_mapping () =
  let feat x = Polygon.of_rect (Rect.make ~x0:x ~y0:0 ~x1:(x + 20) ~y1:20) in
  let layout = Layout.make Layout.default_tech [ feat 0; feat 500; feat 1000 ] in
  match
    E.apply layout
      [ E.Remove 1; E.Add (feat 2000); E.Move { index = 2; dx = 0; dy = 40 } ]
  with
  | Error m -> Alcotest.fail m
  | Ok (edited, new_of_old) ->
    Alcotest.(check int) "feature count" 3 (Array.length edited.Layout.features);
    Alcotest.(check (array (option int)))
      "survivors keep order, adds append"
      [| Some 0; None; Some 1 |] new_of_old;
    let bb = Polygon.bbox edited.Layout.features.(1) in
    Alcotest.(check int) "move translated geometry" 40 bb.Rect.y0

(* ------------------------------------------------------------------ *)
(* Session persistence *)

let test_session_roundtrip () =
  let layout = Benchgen.circuit "C432" in
  let s, _rep = session_of (params ()) layout in
  with_temp (fun path ->
      E.save s path;
      let s' = E.load path in
      Alcotest.(check bool) "layout" true (s.E.layout = s'.E.layout);
      Alcotest.(check string) "hash" (E.hash_layout s.E.layout)
        (E.hash_layout s'.E.layout);
      Alcotest.(check int) "min_s" s.E.min_s s'.E.min_s;
      Alcotest.(check string) "salt" s.E.salt s'.E.salt;
      Alcotest.(check (array int)) "seg counts" s.E.seg_counts s'.E.seg_counts;
      Alcotest.(check int) "comps" (Array.length s.E.comps)
        (Array.length s'.E.comps);
      Array.iteri
        (fun i (c : E.comp) ->
          let c' = s'.E.comps.(i) in
          Alcotest.(check (array int)) "features" c.E.features c'.E.features;
          Alcotest.(check (array int)) "colors" c.E.colors c'.E.colors;
          Alcotest.(check int) "scaled" c.E.scaled c'.E.scaled)
        s.E.comps;
      (* flipping one byte anywhere must be detected *)
      let flip = Bytes.of_string (read_file path) in
      let mid = Bytes.length flip / 2 in
      Bytes.set flip mid
        (if Bytes.get flip mid = 'x' then 'y' else 'x');
      write_file path (Bytes.to_string flip);
      match E.load path with
      | _ -> Alcotest.fail "expected Bad_file on tampered session"
      | exception E.Bad_file _ -> ())

(* A layout block that passes both digests but does not parse is
   rejected at load, naming the line within the block. *)
let test_session_layout_parse_error () =
  let layout = Benchgen.circuit "C432" in
  let s, _rep = session_of (params ()) layout in
  with_temp (fun path ->
      E.save s path;
      let raw = read_file path in
      let lines = Array.of_list (String.split_on_char '\n' raw) in
      let find p =
        let rec go i = if p lines.(i) then i else go (i + 1) in
        go 0
      in
      let layout_at = find (fun l -> String.starts_with ~prefix:"layout " l) in
      let r_at = find (fun l -> String.starts_with ~prefix:"R " l) in
      lines.(r_at) <- "R 1 1 1 1" (* degenerate: Rect.make rejects it *);
      let hash_at = find (fun l -> String.starts_with ~prefix:"hash " l) in
      let comps_at = find (fun l -> String.starts_with ~prefix:"comps " l) in
      (* the block ends with "END\n", then save's extra newline *)
      let block =
        String.concat "\n"
          (Array.to_list
             (Array.sub lines (layout_at + 1) (comps_at - layout_at - 2)))
        ^ "\n"
      in
      lines.(hash_at) <- "hash " ^ Digest.to_hex (Digest.string block);
      lines.(layout_at) <- Printf.sprintf "layout %d" (String.length block);
      let sum_at = find (fun l -> String.starts_with ~prefix:"sum " l) in
      let body =
        String.concat "\n" (Array.to_list (Array.sub lines 0 sum_at)) ^ "\n"
      in
      write_file path
        (body ^ Printf.sprintf "sum %s\n" (Digest.to_hex (Digest.string body)));
      let want = Printf.sprintf "session layout line %d: " (r_at - layout_at) in
      match E.load path with
      | _ -> Alcotest.fail "expected Bad_file on an unparseable layout block"
      | exception E.Bad_file msg ->
        if not (String.starts_with ~prefix:want msg) then
          Alcotest.failf "Bad_file %S does not name %S" msg want)

(* ------------------------------------------------------------------ *)
(* Pinned unit: an edit inside one component leaves every other
   component's bytes verbatim *)

let two_cluster_layout () =
  (* Cluster A around x=0, cluster B around x=5000 — far beyond the
     min_s + hp = 100 nm interaction radius, so two components. *)
  let r x y = Polygon.of_rect (Rect.make ~x0:x ~y0:y ~x1:(x + 20) ~y1:(y + 20)) in
  Layout.make Layout.default_tech
    [
      r 0 0; r 60 0; r 120 0; r 60 60;
      r 5000 0; r 5060 0; r 5120 0; r 5060 60;
    ]

let comp_for (s : E.session) f =
  match
    Array.find_opt (fun (c : E.comp) -> Array.exists (( = ) f) c.E.features)
      s.E.comps
  with
  | Some c -> c
  | None -> Alcotest.failf "no component contains feature %d" f

let test_pinned_untouched_verbatim () =
  let layout = two_cluster_layout () in
  let p = params () in
  let s0, _ = session_of p layout in
  (* nudge one cluster-A feature; cluster B must be untouched *)
  let edits = [ E.Move { index = 1; dx = 0; dy = 20 } ] in
  let _edited, rep, s1 = redecompose_exn p s0 edits in
  (match rep.D.eco with
  | None -> Alcotest.fail "eco stats missing"
  | Some e ->
    Alcotest.(check bool) "reused something" true (e.D.reused_components > 0);
    Alcotest.(check bool) "re-solved something" true (e.D.dirty_components > 0));
  let b0 = comp_for s0 4 and b1 = comp_for s1 4 in
  Alcotest.(check (array int)) "B features verbatim" b0.E.features b1.E.features;
  Alcotest.(check (array int)) "B colors verbatim" b0.E.colors b1.E.colors;
  Alcotest.(check int) "B cost verbatim" b0.E.scaled b1.E.scaled

(* ------------------------------------------------------------------ *)
(* Full bit-identity vs. a cold run, across jobs x cache *)

let check_matches_cold p prev edits =
  let edited, rep, next = redecompose_exn p prev edits in
  let g_cold, cold = decompose_with p edited in
  if rep.D.colors <> cold.D.colors then
    Alcotest.failf "coloring differs from cold run (%d vs %d vertices)"
      (Array.length rep.D.colors)
      (Array.length cold.D.colors);
  Alcotest.(check int) "scaled cost matches cold run" cold.D.cost.Mpl.Coloring.scaled
    rep.D.cost.Mpl.Coloring.scaled;
  (* the chained session must be exactly what snapshot-of-cold captures *)
  let cold_snap = D.snapshot ~params:p ~min_s algo g_cold edited cold in
  Alcotest.(check (array int)) "seg counts chain" cold_snap.E.seg_counts
    next.E.seg_counts;
  Alcotest.(check bool) "next session holds the edited layout" true
    (next.E.layout == edited);
  (rep, next)

(* A report's division stats: pieces, largest piece, peeled, cuts. *)
let division_of (r : D.report) =
  let d = r.D.division in
  Mpl.Division.[ d.pieces; d.largest_piece; d.peeled; d.cuts ]

let test_matrix_bit_identity () =
  let layout = Benchgen.circuit "C499" in
  (* every cell must report the division stats of the first cell: the
     cache serves colorings, never made-up stats *)
  let first = ref None in
  List.iter
    (fun (jobs, cache) ->
      let cell = Printf.sprintf "jobs=%d cache=%b" jobs cache in
      let p = params ~jobs ~cache () in
      let s0, _ = session_of p layout in
      let edits = E.generate ~seed:5 ~count:4 layout in
      let rep1, s1 = check_matches_cold p s0 edits in
      (* chain a second edit on the updated session, once from the
         in-memory session and once from its saved file: both must
         reach the same colors, cost and next session *)
      let edits2 = E.generate ~seed:6 ~count:3 s1.E.layout in
      let rep_mem, mem = check_matches_cold p s1 edits2 in
      let s1_file = through_file s1 in
      Alcotest.(check bool) "file-backed layout" true
        (s1_file.E.layout = s1.E.layout);
      Alcotest.(check string) "file-backed layout hash"
        (E.hash_layout s1.E.layout) (E.hash_layout s1_file.E.layout);
      let _, rep_file, file = redecompose_exn p s1_file edits2 in
      if rep_mem.D.colors <> rep_file.D.colors then
        Alcotest.fail "file-backed chain colors differ from in-memory chain";
      Alcotest.(check int) "file-backed chain cost"
        rep_mem.D.cost.Mpl.Coloring.scaled rep_file.D.cost.Mpl.Coloring.scaled;
      Alcotest.(check string) "file-backed chain session bytes"
        (saved_bytes mem) (saved_bytes file);
      let divisions = List.map division_of [ rep1; rep_mem; rep_file ] in
      match !first with
      | None -> first := Some divisions
      | Some d0 ->
        Alcotest.(check (list (list int)))
          (cell ^ ": division stats") d0 divisions)
    [ (1, false); (1, true); (2, false); (2, true) ]

let test_salt_mismatch () =
  let layout = two_cluster_layout () in
  let s0, _ = session_of (params ()) layout in
  let p5 = { (params ()) with D.k = 5 } in
  match D.redecompose ~params:p5 ~prev:s0 ~edits:[] algo with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected salt mismatch error"

(* The salt is written into session files and keys every persisted
   cache entry, so its bytes are a file format: pinned literally. *)
let test_salt_pinned () =
  let layout = two_cluster_layout () in
  List.iter
    (fun (k, algo, expected) ->
      let p = { (params ()) with D.k } in
      let min_s = Layout.min_s_for ~k layout.Layout.tech in
      let g, rep = D.decompose ~params:p ~min_s algo layout in
      Alcotest.(check string)
        (D.algorithm_name algo) expected
        (D.snapshot ~params:p ~min_s algo g layout rep).E.salt)
    [
      ( 4,
        D.Linear,
        "Linear;k=4;a=0x1.999999999999ap-4;t=0x1.ccccccccccccdp-1;nc=2000000" );
      ( 5,
        D.Sdp_backtrack,
        "SDP+Backtrack;k=5;a=0x1.999999999999ap-4;t=0x1.ccccccccccccdp-1;\
         nc=2000000" );
    ]

(* ------------------------------------------------------------------ *)
(* qcheck: random layouts x random edit scripts x jobs x cache *)

let eco_gen =
  QCheck.Gen.(
    int_range 1 2 >>= fun rows ->
    int_range 2 5 >>= fun cells ->
    int_range 0 2 >>= fun gadgets ->
    int_range 0 10_000 >>= fun seed ->
    int_range 1 5 >>= fun edit_count ->
    int_range 0 1_000 >>= fun edit_seed ->
    int_range 1 2 >>= fun jobs ->
    bool >|= fun cache ->
    ( {
        Benchgen.name = "eco-qcheck";
        seed;
        rows;
        cells_per_row = cells;
        density = 0.45;
        wire_fraction = 0.4;
        sparse_gap_prob = 0.8;
        native_five = 0;
        native_six = 0;
        hard_blocks = 0;
        stitch_gadgets = gadgets;
        penta_six = 0;
      },
      edit_count,
      edit_seed,
      jobs,
      cache ))

let eco_print (spec, edit_count, edit_seed, jobs, cache) =
  Printf.sprintf "rows=%d cells=%d gadgets=%d seed=%d edits=%d eseed=%d jobs=%d cache=%b"
    spec.Benchgen.rows spec.Benchgen.cells_per_row spec.Benchgen.stitch_gadgets
    spec.Benchgen.seed edit_count edit_seed jobs cache

let prop_redecompose_matches_cold =
  QCheck.Test.make ~count:15
    ~name:"redecompose = cold decompose of edited layout"
    (QCheck.make ~print:eco_print eco_gen)
    (fun (spec, edit_count, edit_seed, jobs, cache) ->
      let layout = Benchgen.generate spec in
      let p = params ~jobs ~cache () in
      let s0, _ = session_of p layout in
      let edits = E.generate ~seed:edit_seed ~count:edit_count layout in
      let edited, rep, _next = redecompose_exn p s0 edits in
      let _g, cold = decompose_with p edited in
      Mpl.Coloring.is_complete rep.D.colors
      && Mpl.Coloring.check_range ~k:4 rep.D.colors
      && rep.D.colors = cold.D.colors)

(* ------------------------------------------------------------------ *)
(* Satellite: Benchgen.synth round-trips through Layout_io *)

let test_synth_layout_io_roundtrip () =
  let layout = Benchgen.generate (Benchgen.synth ~seed:3 ~features:2_000 ()) in
  let text = Layout_io.to_string layout in
  match Layout_io.of_string text with
  | exception Layout_io.Parse_error { line; msg } ->
    Alcotest.failf "parse error at line %d: %s" line msg
  | back ->
    Alcotest.(check string) "name" layout.Layout.name back.Layout.name;
    Alcotest.(check int) "feature count"
      (Array.length layout.Layout.features)
      (Array.length back.Layout.features);
    Alcotest.(check bool) "tech" true (layout.Layout.tech = back.Layout.tech);
    Array.iteri
      (fun i p ->
        let q = back.Layout.features.(i) in
        if Polygon.rects p <> Polygon.rects q then
          Alcotest.failf "feature %d rects differ" i)
      layout.Layout.features;
    Alcotest.(check string) "re-serialization identical" text
      (Layout_io.to_string back)

(* The fact that makes a file-backed ECO chain agree with an in-memory
   one: a [gen synth] layout and every [Eco.apply] result of it survive
   a Layout_io round trip structurally, polygon bounding boxes included. *)
let prop_layout_io_roundtrip =
  QCheck.Test.make ~count:12 ~name:"Layout_io round trip = identity on synth + apply"
    QCheck.(
      make
        ~print:(fun (seed, features, edits) ->
          Printf.sprintf "seed=%d features=%d edits=%d" seed features edits)
        Gen.(triple (int_range 0 10_000) (int_range 200 3_000) (int_range 0 40)))
    (fun (seed, features, count) ->
      let layout = Benchgen.generate (Benchgen.synth ~seed ~features ()) in
      let round l = Layout_io.of_string (Layout_io.to_string l) = l in
      let edits = E.generate ~seed ~count layout in
      match E.apply layout edits with
      | Error m -> QCheck.Test.fail_reportf "apply: %s" m
      | Ok (edited, _) -> round layout && round edited)

let suite =
  [
    Alcotest.test_case "edit script round-trip" `Quick test_edit_roundtrip;
    Alcotest.test_case "edit script errors" `Quick test_edit_errors;
    Alcotest.test_case "apply mapping" `Quick test_apply_mapping;
    Alcotest.test_case "session save/load + tamper" `Quick
      test_session_roundtrip;
    Alcotest.test_case "session layout parse error" `Quick
      test_session_layout_parse_error;
    Alcotest.test_case "untouched component verbatim (pinned)" `Quick
      test_pinned_untouched_verbatim;
    Alcotest.test_case "bit-identity across jobs x cache" `Slow
      test_matrix_bit_identity;
    Alcotest.test_case "salt mismatch rejected" `Quick test_salt_mismatch;
    Alcotest.test_case "salt bytes pinned" `Quick test_salt_pinned;
    QCheck_alcotest.to_alcotest prop_redecompose_matches_cold;
    Alcotest.test_case "synth round-trips through Layout_io" `Quick
      test_synth_layout_io_roundtrip;
    QCheck_alcotest.to_alcotest prop_layout_io_roundtrip;
  ]
