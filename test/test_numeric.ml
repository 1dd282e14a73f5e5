(* Tests for the numeric substrate: symmetric eigendecomposition and
   PSD projection (checked against the Jacobi oracle in [Jacobi]), and
   the coloring SDP solver. *)

module Sym = Mpl_numeric.Symmetric
module Sdp = Mpl_numeric.Sdp
module Vec = Mpl_numeric.Vec

let sym_gen n =
  QCheck.Gen.(
    list_repeat (n * n) (float_range (-3.) 3.) >|= fun l ->
    let a = Array.of_list l in
    Array.init n (fun i ->
        Array.init n (fun j ->
            (a.((i * n) + j) +. a.((j * n) + i)) /. 2.)))

let test_vec_ops () =
  let v = Vec.of_array [| 3.; 4. |] in
  Alcotest.(check (float 1e-9)) "norm" 5. (Vec.norm v);
  let u = Vec.copy v in
  Vec.normalize u;
  Alcotest.(check (float 1e-9)) "unit" 1. (Vec.norm u);
  let w = Vec.zero 2 in
  Vec.axpy ~alpha:2. v w;
  Alcotest.(check (float 1e-9)) "axpy" 6. (Vec.get w 0);
  Alcotest.(check (float 1e-9)) "roundtrip" 4. (Vec.to_array v).(1);
  let z = Vec.of_array [| 0.; 0. |] in
  Vec.normalize z;
  Alcotest.(check (float 1e-9)) "degenerate normalize" 1. (Vec.norm z)

(* Frobenius norm of the residual of [a = v' diag(w) v], eigenvectors
   as the rows of [v]. *)
let reconstruction_error a (w, v) =
  let n = Array.length a in
  let recon = Array.make_matrix n n 0. in
  for e = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        recon.(i).(j) <- recon.(i).(j) +. (w.(e) *. v.(e).(i) *. v.(e).(j))
      done
    done
  done;
  Jacobi.frobenius_distance a recon

let orthonormal v =
  let n = Array.length v in
  let ok = ref true in
  for e = 0 to n - 1 do
    for f = 0 to n - 1 do
      let dot = ref 0. in
      for i = 0 to n - 1 do
        dot := !dot +. (v.(e).(i) *. v.(f).(i))
      done;
      let expect = if e = f then 1. else 0. in
      if abs_float (!dot -. expect) > 1e-6 then ok := false
    done
  done;
  !ok

(* Oracle tolerance: 1e-10 relative to the matrix's Frobenius norm
   (absolute below norm 1). *)
let oracle_tol a =
  let zero = Array.map (Array.map (fun _ -> 0.)) a in
  1e-10 *. Float.max 1. (Jacobi.frobenius_distance a zero)

(* Sorted eigenvalues agree with the Jacobi oracle's. *)
let spectrum_matches_oracle a =
  let sorted w =
    let w = Array.copy w in
    Array.sort compare w;
    w
  in
  let got = sorted (fst (Sym.eigh a)) and want = sorted (fst (Jacobi.eigh a)) in
  let tol = oracle_tol a in
  Array.for_all2 (fun x y -> abs_float (x -. y) <= tol) got want

(* [project_psd_flat] agrees cellwise with the Jacobi projection. *)
let projection_matches_oracle a =
  let n = Array.length a in
  let fa = Float.Array.init (n * n) (fun c -> a.(c / n).(c mod n)) in
  let nn () = Float.Array.make (n * n) 0. in
  let dst = nn () in
  Sym.project_psd_flat ~n ~src:fa ~work:(nn ()) ~v:(nn ())
    ~w:(Float.Array.make n 0.) ~dst;
  let want = Jacobi.project_psd a and tol = oracle_tol a in
  let ok = ref true in
  for c = 0 to (n * n) - 1 do
    if abs_float (Float.Array.get dst c -. want.(c / n).(c mod n)) > tol then
      ok := false
  done;
  !ok

let sym_arb = QCheck.make QCheck.Gen.(int_range 1 60 >>= sym_gen)

let prop_eigh_reconstructs =
  QCheck.Test.make ~name:"eigh reconstructs the matrix" ~count:60 sym_arb
    (fun a ->
      let n = Array.length a in
      reconstruction_error a (Sym.eigh a) < 1e-6 *. float_of_int (n * n))

let prop_eigh_orthonormal =
  QCheck.Test.make ~name:"eigh eigenvectors orthonormal" ~count:60 sym_arb
    (fun a -> orthonormal (snd (Sym.eigh a)))

let prop_project_psd =
  QCheck.Test.make ~name:"PSD projection is PSD and idempotent-ish" ~count:60
    sym_arb
    (fun a ->
      let p = Sym.project_psd a in
      let w, _ = Sym.eigh p in
      Array.for_all (fun x -> x > -1e-7) w
      && Jacobi.frobenius_distance p (Sym.project_psd p) < 1e-6)

let prop_spectrum_oracle =
  QCheck.Test.make ~name:"eigenvalues match the Jacobi oracle" ~count:60
    sym_arb spectrum_matches_oracle

let prop_projection_oracle =
  QCheck.Test.make ~name:"PSD projection matches the Jacobi oracle" ~count:60
    sym_arb projection_matches_oracle

(* The K-ideal Gram: vertex i takes color i mod k, same-color pairs
   have inner product 1 and others -1/(k-1). Rank k-1, so eigenvalue 0
   has multiplicity n-k+1 — the shape the SDP iterates converge to. A
   symmetric [noise] perturbation splits the zero cluster. *)
let ideal_gram ~n ~k ~noise =
  let rng = Mpl_util.Rng.create (n + k) in
  let a = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let x = if i mod k = j mod k then 1. else Sdp.ideal_offdiag k in
      let x = x +. (noise *. (Mpl_util.Rng.float rng 2. -. 1.)) in
      a.(i).(j) <- x;
      a.(j).(i) <- x
    done
  done;
  a

let test_structured_spectra () =
  let check name a =
    let n = Array.length a in
    let ((w, v) as wv) = Sym.eigh a in
    Alcotest.(check int) (name ^ ": n eigenvalues") n (Array.length w);
    Alcotest.(check bool) (name ^ ": reconstructs") true
      (reconstruction_error a wv <= oracle_tol a);
    Alcotest.(check bool) (name ^ ": orthonormal") true (orthonormal v);
    Alcotest.(check bool) (name ^ ": spectrum = oracle") true
      (spectrum_matches_oracle a);
    Alcotest.(check bool) (name ^ ": projection = oracle") true
      (projection_matches_oracle a)
  in
  check "n=1" [| [| -2.5 |] |];
  check "zero" (Array.make_matrix 7 7 0.);
  check "repeated diagonal"
    (Array.init 9 (fun i ->
         Array.init 9 (fun j -> if i = j then float_of_int (i mod 3) else 0.)));
  check "2x2 equal diagonal" [| [| 1.; 0.5 |]; [| 0.5; 1. |] |];
  List.iter
    (fun (n, k) ->
      let a = ideal_gram ~n ~k ~noise:1e-9 in
      check (Printf.sprintf "ideal Gram n=%d k=%d" n k) a;
      let w, _ = Sym.eigh (ideal_gram ~n ~k ~noise:0.) in
      let zeros =
        Array.fold_left (fun c x -> if abs_float x < 1e-9 then c + 1 else c) 0 w
      in
      Alcotest.(check int)
        (Printf.sprintf "ideal Gram n=%d k=%d: zero multiplicity" n k)
        (n - k + 1) zeros)
    [ (6, 4); (6, 5); (16, 4); (48, 4); (48, 5) ]

(* A non-finite input must terminate: the small-off-diagonal search is
   clamped to the last index and the QL steps are capped. *)
let test_nan_terminates () =
  let n = 6 in
  let src = Float.Array.make (n * n) 0.5 in
  Float.Array.set src 7 Float.nan;
  let nn () = Float.Array.make (n * n) 0. in
  let dst = nn () in
  Sym.project_psd_flat ~n ~src ~work:(nn ()) ~v:(nn ())
    ~w:(Float.Array.make n 0.) ~dst;
  Alcotest.(check int) "returned" (n * n) (Float.Array.length dst)

(* The projection is the solver's inner loop: it must not allocate. *)
let test_projection_allocates_nothing () =
  let n = 48 in
  let a = ideal_gram ~n ~k:4 ~noise:1e-3 in
  let src = Float.Array.init (n * n) (fun c -> a.(c / n).(c mod n)) in
  let nn () = Float.Array.make (n * n) 0. in
  let work = nn () and v = nn () and dst = nn () in
  let w = Float.Array.make n 0. in
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    Sym.project_psd_flat ~n ~src ~work ~v ~w ~dst
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words" 0. (after -. before)

let clique_problem n k =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  {
    Sdp.n;
    conflict_edges = Array.of_list !edges;
    stitch_edges = [||];
    k;
    alpha = 0.1;
  }

(* The SDP optimum of K_n with bound -1/(k-1):
   - if n <= k, all pairs sit at the bound: C(n,2) * (-1/(k-1));
   - if n > k, the barycentric spread gives -n/2 (sum of all pairs of n
     unit vectors summing to zero). *)
let test_clique_optima () =
  let check n k expected =
    let sol = Sdp.solve (clique_problem n k) in
    Alcotest.(check (float 0.05))
      (Printf.sprintf "K%d with k=%d" n k)
      expected sol.Sdp.objective
  in
  check 4 4 (-2.0);
  check 5 4 (-2.5);
  check 6 4 (-3.0);
  check 3 4 (-1.0);
  check 5 5 (-2.5);
  check 6 5 (-3.0)

let test_gram_properties () =
  let sol = Sdp.solve (clique_problem 5 4) in
  for i = 0 to 4 do
    Alcotest.(check (float 0.02)) "unit diagonal" 1. (Sdp.gram sol i i);
    for j = 0 to 4 do
      Alcotest.(check (float 1e-9))
        "symmetric" (Sdp.gram sol i j) (Sdp.gram sol j i);
      Alcotest.(check bool) "clamped" true
        (Sdp.gram sol i j >= -1. && Sdp.gram sol i j <= 1.)
    done
  done

let test_constraint_near_feasible () =
  (* K4, k=4: every conflict Gram entry should be near the -1/3 bound. *)
  let sol = Sdp.solve (clique_problem 4 4) in
  for i = 0 to 3 do
    for j = i + 1 to 3 do
      Alcotest.(check bool) "above bound" true
        (Sdp.gram sol i j >= Sdp.ideal_offdiag 4 -. 0.05)
    done
  done

let test_stitch_attraction () =
  (* Two vertices joined only by a stitch edge end up parallel. *)
  let p =
    {
      Sdp.n = 2;
      conflict_edges = [||];
      stitch_edges = [| (0, 1) |];
      k = 4;
      alpha = 0.1;
    }
  in
  let sol = Sdp.solve p in
  (* The stitch pull is weak (alpha = 0.1), so the projected-gradient
     iterate lands clearly positive but short of 1. *)
  Alcotest.(check bool) "parallel" true (Sdp.gram sol 0 1 > 0.5)

let test_modes_agree_on_k4 () =
  List.iter
    (fun mode ->
      let sol = Sdp.solve ~mode (clique_problem 4 4) in
      Alcotest.(check bool)
        "objective within 20% of -2" true
        (sol.Sdp.objective < -1.6))
    [ Sdp.Projected; Sdp.Lagrangian ]

(* A random SDP instance on [n] vertices mixing conflict edges (each
   pair with probability [p]%) and stitch edges (the next 15%). *)
let random_problem ~n ~p ~seed =
  let rng = Mpl_util.Rng.create seed in
  let ce = ref [] and se = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let r = Mpl_util.Rng.int rng 100 in
      if r < p then ce := (i, j) :: !ce
      else if r < p + 15 then se := (i, j) :: !se
    done
  done;
  {
    Sdp.n;
    conflict_edges = Array.of_list !ce;
    stitch_edges = Array.of_list !se;
    k = 4;
    alpha = 0.1;
  }

let sdp_problem_gen =
  QCheck.Gen.(
    triple (int_range 2 12) (int_range 10 70) (int_range 0 9999)
    >|= fun (n, p, seed) -> random_problem ~n ~p ~seed)

let sdp_problem_arb =
  QCheck.make
    ~print:(fun p ->
      Printf.sprintf "n=%d ce=%d se=%d" p.Sdp.n
        (Array.length p.Sdp.conflict_edges)
        (Array.length p.Sdp.stitch_edges))
    sdp_problem_gen

(* Two solutions agree bit for bit: objective, work and every Gram
   cell. *)
let bit_identical (a : Sdp.solution) (b : Sdp.solution) =
  let bits = Int64.bits_of_float in
  bits a.Sdp.objective = bits b.Sdp.objective
  && a.Sdp.iterations = b.Sdp.iterations
  && a.Sdp.gn = b.Sdp.gn
  &&
  let ok = ref true in
  for c = 0 to Float.Array.length a.Sdp.gram - 1 do
    let cell s = bits (Float.Array.get s.Sdp.gram c) in
    if cell a <> cell b then ok := false
  done;
  !ok

(* The flat edge-sparse kernel must replicate the dense reference's
   float-operation sequence exactly: not "close", bit-identical. *)
let prop_flat_matches_dense =
  QCheck.Test.make ~name:"flat SDP kernel bit-identical to dense reference"
    ~count:40 sdp_problem_arb
    (fun p ->
      bit_identical
        (Sdp.solve ~mode:Sdp.Projected p)
        (Sdp.solve_dense ~mode:Sdp.Projected p))

(* [Auto] is [Projected] up to [projected_max] vertices and
   [Lagrangian] above it. *)
let test_auto_switch () =
  let small = random_problem ~n:12 ~p:40 ~seed:3 in
  Alcotest.(check bool) "small piece below the switch" true
    (small.Sdp.n <= Sdp.projected_max);
  let auto = Sdp.solve small in
  Alcotest.(check bool) "Auto = Projected on a small piece" true
    (bit_identical auto (Sdp.solve ~mode:Sdp.Projected small));
  Alcotest.(check bool) "the modes differ on it" false
    (bit_identical auto (Sdp.solve ~mode:Sdp.Lagrangian small));
  let large = random_problem ~n:160 ~p:3 ~seed:5 in
  Alcotest.(check bool) "large piece above the switch" true
    (large.Sdp.n > Sdp.projected_max);
  Alcotest.(check bool) "Auto = Lagrangian on a large piece" true
    (bit_identical (Sdp.solve large) (Sdp.solve ~mode:Sdp.Lagrangian large));
  Alcotest.(check bool) "dense Auto = Lagrangian on a large piece" true
    (bit_identical (Sdp.solve_dense large)
       (Sdp.solve ~mode:Sdp.Lagrangian large))

let test_ideal_offdiag () =
  Alcotest.(check (float 1e-9)) "k=4" (-1. /. 3.) (Sdp.ideal_offdiag 4);
  Alcotest.(check (float 1e-9)) "k=5" (-0.25) (Sdp.ideal_offdiag 5);
  Alcotest.check_raises "k=1" (Invalid_argument "Sdp.ideal_offdiag: k < 2")
    (fun () -> ignore (Sdp.ideal_offdiag 1))

let test_empty_problem () =
  let sol =
    Sdp.solve
      { Sdp.n = 0; conflict_edges = [||]; stitch_edges = [||]; k = 4; alpha = 0.1 }
  in
  Alcotest.(check (float 1e-9)) "empty objective" 0. sol.Sdp.objective

let suite =
  [
    Alcotest.test_case "vec ops" `Quick test_vec_ops;
    QCheck_alcotest.to_alcotest prop_eigh_reconstructs;
    QCheck_alcotest.to_alcotest prop_eigh_orthonormal;
    QCheck_alcotest.to_alcotest prop_project_psd;
    QCheck_alcotest.to_alcotest prop_spectrum_oracle;
    QCheck_alcotest.to_alcotest prop_projection_oracle;
    Alcotest.test_case "structured spectra" `Quick test_structured_spectra;
    Alcotest.test_case "NaN input terminates" `Quick test_nan_terminates;
    Alcotest.test_case "projection allocates nothing" `Quick
      test_projection_allocates_nothing;
    Alcotest.test_case "clique SDP optima" `Quick test_clique_optima;
    Alcotest.test_case "gram properties" `Quick test_gram_properties;
    Alcotest.test_case "near-feasible constraints" `Quick
      test_constraint_near_feasible;
    Alcotest.test_case "stitch attraction" `Quick test_stitch_attraction;
    Alcotest.test_case "all modes reasonable on K4" `Quick
      test_modes_agree_on_k4;
    QCheck_alcotest.to_alcotest prop_flat_matches_dense;
    Alcotest.test_case "Auto switches to Lagrangian above projected_max"
      `Quick test_auto_switch;
    Alcotest.test_case "ideal offdiag" `Quick test_ideal_offdiag;
    Alcotest.test_case "empty problem" `Quick test_empty_problem;
  ]
