(* Golden pins: the exact answers of a fixed set of decompositions — an
   MD5 of the coloring, the conflict and stitch counts, the scaled cost
   and the division stats. The other bit-identity gates compare
   configurations of one build with each other; these compare a build
   with the answers recorded before it, so a change that shifts every
   configuration alike (a different tie-break, a reordered stage) still
   fails here. A pin changes only with a change that means to change
   the answers, and says so. *)

module D = Mpl.Decomposer
module C = Mpl.Coloring
module Layout = Mpl_layout.Layout
module Benchgen = Mpl_layout.Benchgen

(* The bytes [mpld decompose --colors] writes, hashed. *)
let colors_md5 colors =
  let b = Buffer.create (2 * Array.length colors) in
  Array.iter (fun c -> Buffer.add_string b (Printf.sprintf "%d\n" c)) colors;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pin ?(jobs = 1) ?(cache = false) ~k algo layout =
  let params =
    { D.default_params with D.k; jobs; cache; solver_budget_s = 0. }
  in
  let min_s = Layout.min_s_for ~k layout.Layout.tech in
  let _, r = D.decompose ~params ~min_s algo layout in
  let d = r.D.division in
  Printf.sprintf "%s cn=%d st=%d cost=%d pieces=%d largest=%d peeled=%d cuts=%d"
    (colors_md5 r.D.colors) r.D.cost.C.conflicts r.D.cost.C.stitches
    r.D.cost.C.scaled d.Mpl.Division.pieces d.Mpl.Division.largest_piece
    d.Mpl.Division.peeled d.Mpl.Division.cuts

let synth18k () =
  Benchgen.generate
    (Benchgen.synth ~stitch_gadgets:100 ~seed:1 ~features:18_000 ())

let cases =
  [
    ( "C432 Linear k=4",
      (fun () -> pin ~k:4 D.Linear (Benchgen.circuit "C432")),
      "c892027867682d3de92278a172ebb99c cn=2 st=0 cost=2000 "
      ^ "pieces=2 largest=5 peeled=701 cuts=106" );
    ( "S38417 Linear k=4",
      (fun () -> pin ~k:4 D.Linear (Benchgen.circuit "S38417")),
      "a03deb6ab999e152b349c813cd1e72f4 cn=21 st=530 cost=74000 "
      ^ "pieces=540 largest=48 peeled=17630 cuts=4189" );
    ( "S15850 Linear k=4",
      (fun () -> pin ~k:4 D.Linear (Benchgen.circuit "S15850")),
      "3e41239ae38f18ffdda9dd884d4ef303 cn=44 st=1430 cost=187000 "
      ^ "pieces=1461 largest=49 peeled=20756 cuts=6224" );
    ( "S38417 SDP+Backtrack k=4",
      (fun () -> pin ~k:4 D.Sdp_backtrack (Benchgen.circuit "S38417")),
      "81f262f9d8268030b6d7842e1d2b710d cn=20 st=530 cost=73000 "
      ^ "pieces=540 largest=48 peeled=17630 cuts=4189" );
    ( "S15850 SDP+Backtrack k=5",
      (fun () -> pin ~k:5 D.Sdp_backtrack (Benchgen.circuit "S15850")),
      "a832a38f6cba282cc49ad702e196afa3 cn=6 st=21 cost=8100 "
      ^ "pieces=1429 largest=23 peeled=20751 cuts=6281" );
    ( "synth 18k Linear k=4, jobs=1, cache off",
      (fun () -> pin ~k:4 D.Linear (synth18k ())),
      "2c9c81f65c044deeb7094f66f3e6264f cn=0 st=103 cost=10300 "
      ^ "pieces=100 largest=6 peeled=26809 cuts=5100" );
    ( "synth 18k Linear k=4, jobs=2, cache on",
      (fun () -> pin ~jobs:2 ~cache:true ~k:4 D.Linear (synth18k ())),
      "2c9c81f65c044deeb7094f66f3e6264f cn=0 st=103 cost=10300 "
      ^ "pieces=100 largest=6 peeled=26809 cuts=5100" );
  ]

let suite =
  List.map
    (fun (name, run, want) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) name want (run ())))
    cases
