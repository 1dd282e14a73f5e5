module FA = Float.Array

let fget = FA.unsafe_get
let fset = FA.unsafe_set

type problem = {
  n : int;
  conflict_edges : (int * int) array;
  stitch_edges : (int * int) array;
  k : int;
  alpha : float;
}

type mode = Auto | Projected | Lagrangian

(* Fixed solver settings: [Auto]'s switch, the projected method's, then
   Burer-Monteiro's. *)
let projected_max = 150
let pg_iters = 60
let pg_step = 0.6
let dykstra_rounds = 3
let bm_rank k = max (k - 1) 8
let bm_sweeps = 60
let bm_tol = 1e-4
let bm_outer_rounds = 12
let bm_dual_step = 1.0
let bm_seed = 2014

type solution = {
  gram : floatarray;
  gn : int;
  objective : float;
  iterations : int;
}

let ideal_offdiag k =
  if k < 2 then invalid_arg "Sdp.ideal_offdiag: k < 2";
  -1. /. float_of_int (k - 1)

let objective_of_flat p x =
  let n = p.n in
  let s = ref 0. in
  Array.iter (fun (i, j) -> s := !s +. fget x ((i * n) + j)) p.conflict_edges;
  Array.iter
    (fun (i, j) -> s := !s -. (p.alpha *. fget x ((i * n) + j)))
    p.stitch_edges;
  !s

(* ------------------------------------------------------------------ *)
(* Projected subgradient on the Gram matrix (convex, exact), on a flat
   row-major floatarray with preallocated scratch: the iteration loop
   performs no allocation, and every float operation happens in the same
   order as the dense reference kernel below, so results are
   bit-identical. *)

(* Componentwise projection onto diag = 1, X_ij >= b on CE, and
   -1 <= X_ij <= 1. *)
let project_box_flat p ~bound x =
  let n = p.n in
  for c = 0 to (n * n) - 1 do
    let v = fget x c in
    if v > 1. then fset x c 1. else if v < -1. then fset x c (-1.)
  done;
  for i = 0 to n - 1 do
    fset x ((i * n) + i) 1.
  done;
  for e = 0 to Array.length p.conflict_edges - 1 do
    let i, j = Array.unsafe_get p.conflict_edges e in
    if fget x ((i * n) + j) < bound then begin
      fset x ((i * n) + j) bound;
      fset x ((j * n) + i) bound
    end
  done

(* The objective is linear, so its gradient is a constant supported on
   the edge cells only. Merge per-cell contributions once (conflict +1,
   stitch -alpha, in the same accumulation order the dense kernel uses
   to fill its n x n gradient), keeping O(E) cells instead of n^2. *)
let sparse_gradient p =
  let tbl = Hashtbl.create (Array.length p.conflict_edges * 2) in
  let order = ref [] in
  let bump i j dv =
    let key = if i <= j then (i, j) else (j, i) in
    match Hashtbl.find_opt tbl key with
    | Some v -> Hashtbl.replace tbl key (v +. dv)
    | None ->
      Hashtbl.add tbl key dv;
      order := key :: !order
  in
  Array.iter (fun (i, j) -> bump i j 1.) p.conflict_edges;
  Array.iter (fun (i, j) -> bump i j (-.p.alpha)) p.stitch_edges;
  let cells = Array.of_list (List.rev !order) in
  Array.map (fun ((i, j) as key) -> (i, j, Hashtbl.find tbl key)) cells

type scratch = {
  cur : floatarray;
  pc : floatarray;
  qc : floatarray;
  tm : floatarray;
  am : floatarray;
  work : floatarray;
  ev : floatarray;
  ew : floatarray;
}

let make_scratch n =
  let m () = FA.make (n * n) 0. in
  {
    cur = m ();
    pc = m ();
    qc = m ();
    tm = m ();
    am = m ();
    work = m ();
    ev = m ();
    ew = FA.make n 0.;
  }

(* Dykstra's alternating projection onto PSD /\ box: unlike plain
   alternation, the correction terms make it converge to the exact
   projection onto the intersection. Runs on [s.cur] in place. *)
let dykstra_flat p ~bound ~rounds s =
  let n = p.n in
  let nn = n * n in
  for c = 0 to nn - 1 do
    fset s.pc c 0.;
    fset s.qc c 0.
  done;
  for _ = 1 to rounds do
    for c = 0 to nn - 1 do
      fset s.tm c (fget s.cur c +. fget s.pc c)
    done;
    Symmetric.project_psd_flat ~n ~src:s.tm ~work:s.work ~v:s.ev ~w:s.ew
      ~dst:s.am;
    for c = 0 to nn - 1 do
      let tm = fget s.tm c and am = fget s.am c in
      fset s.pc c (tm -. am);
      let t = am +. fget s.qc c in
      fset s.tm c t;
      fset s.cur c t
    done;
    project_box_flat p ~bound s.cur;
    for c = 0 to nn - 1 do
      fset s.qc c (fget s.tm c -. fget s.cur c)
    done
  done

let solve_projected p =
  let n = p.n in
  let bound = ideal_offdiag p.k in
  let s = make_scratch n in
  (* Identity start: PSD, unit diagonal, all constraints slack. *)
  for i = 0 to n - 1 do
    fset s.cur ((i * n) + i) 1.
  done;
  let grad = sparse_gradient p in
  for t = 0 to pg_iters - 1 do
    let eta = pg_step /. sqrt (float_of_int (t + 1)) in
    Array.iter
      (fun (i, j, g) ->
        let cij = (i * n) + j and cji = (j * n) + i in
        fset s.cur cij (fget s.cur cij -. (eta *. g));
        if cij <> cji then fset s.cur cji (fget s.cur cji -. (eta *. g)))
      grad;
    dykstra_flat p ~bound ~rounds:dykstra_rounds s
  done;
  (* Final cleanup projection so reported Gram entries are near-feasible. *)
  dykstra_flat p ~bound ~rounds:(2 * dykstra_rounds) s;
  {
    gram = FA.copy s.cur;
    gn = n;
    objective = objective_of_flat p s.cur;
    iterations = pg_iters;
  }

(* ------------------------------------------------------------------ *)
(* Burer-Monteiro fallback for oversized pieces.                       *)

type adj = { conflict : (int * int) list array; stitch : int list array }

let build_adj p =
  let conflict = Array.make p.n [] in
  let stitch = Array.make p.n [] in
  Array.iteri
    (fun e (i, j) ->
      conflict.(i) <- (j, e) :: conflict.(i);
      conflict.(j) <- (i, e) :: conflict.(j))
    p.conflict_edges;
  Array.iter
    (fun (i, j) ->
      stitch.(i) <- j :: stitch.(i);
      stitch.(j) <- i :: stitch.(j))
    p.stitch_edges;
  { conflict; stitch }

(* One Gauss-Seidel sweep of the linear (Mixing-method) subproblem: with
   all other vectors fixed the objective is linear in v_i, so
   v_i <- -normalize(weighted neighbor sum) is its exact spherical
   minimizer. *)
let sweep p adj vectors coeff g =
  let r = FA.length g in
  let moved = ref 0. in
  for i = 0 to p.n - 1 do
    FA.fill g 0 r 0.;
    let vi = vectors.(i) in
    List.iter
      (fun (j, e) -> Vec.axpy ~alpha:(Array.unsafe_get coeff e) vectors.(j) g)
      adj.conflict.(i);
    List.iter (fun j -> Vec.axpy ~alpha:(-.p.alpha) vectors.(j) g) adj.stitch.(i);
    let gnorm = Vec.norm g in
    if gnorm > 1e-12 then
      for d = 0 to r - 1 do
        let nv = -.fget g d /. gnorm in
        let delta = abs_float (nv -. fget vi d) in
        if delta > !moved then moved := delta;
        fset vi d nv
      done
  done;
  !moved

let run_inner ~sweeps p adj vectors coeff g =
  let rec go s =
    if s < bm_sweeps then begin
      let moved = sweep p adj vectors coeff g in
      incr sweeps;
      if moved > bm_tol then go (s + 1)
    end
  in
  go 0

let flat_gram_of_vectors n vectors =
  let x = FA.make (n * n) 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      fset x ((i * n) + j) (Vec.dot vectors.(i) vectors.(j))
    done
  done;
  x

let solve_factorized p =
  let r = bm_rank p.k in
  let rng = Mpl_util.Rng.create bm_seed in
  let vectors = Array.init p.n (fun _ -> Vec.random_unit rng r) in
  let adj = build_adj p in
  let bound = ideal_offdiag p.k in
  let g = Vec.zero r in
  let ne = Array.length p.conflict_edges in
  let coeff = Array.make ne 1.0 in
  let sweeps = ref 0 in
  let lambda = Array.make ne 0.0 in
  for _ = 1 to bm_outer_rounds do
    run_inner ~sweeps p adj vectors coeff g;
    Array.iteri
      (fun e (i, j) ->
        let x = Vec.dot vectors.(i) vectors.(j) in
        lambda.(e) <-
          max 0. (lambda.(e) +. (bm_dual_step *. (bound -. x)));
        coeff.(e) <- 1. -. lambda.(e))
      p.conflict_edges
  done;
  run_inner ~sweeps p adj vectors coeff g;
  let gram = flat_gram_of_vectors p.n vectors in
  {
    gram;
    gn = p.n;
    objective = objective_of_flat p gram;
    iterations = !sweeps;
  }

let projected ~mode p =
  mode = Projected || (mode = Auto && p.n <= projected_max)

let empty = { gram = FA.create 0; gn = 0; objective = 0.; iterations = 0 }

let solve ?(mode = Auto) p =
  if p.n = 0 then empty
  else if projected ~mode p then solve_projected p
  else solve_factorized p

let gram s i j =
  let x = FA.get s.gram ((i * s.gn) + j) in
  if x > 1. then 1. else if x < -1. then -1. else x

(* ------------------------------------------------------------------ *)
(* Dense reference kernel: the original boxed [float array array]
   projected solver, kept verbatim for parity tests and the
   [bench kernels] dense-vs-flat comparison. The factorized
   ([Lagrangian]) mode never had a dense variant (it was always
   edge-sparse), so it is shared with [solve]. *)

let objective_of_gram p x =
  let s = ref 0. in
  Array.iter (fun (i, j) -> s := !s +. x.(i).(j)) p.conflict_edges;
  Array.iter (fun (i, j) -> s := !s -. (p.alpha *. x.(i).(j))) p.stitch_edges;
  !s

let project_box_dense p ~bound x =
  let n = Array.length x in
  for i = 0 to n - 1 do
    x.(i).(i) <- 1.;
    for j = 0 to n - 1 do
      if i <> j then begin
        if x.(i).(j) > 1. then x.(i).(j) <- 1.;
        if x.(i).(j) < -1. then x.(i).(j) <- -1.
      end
    done
  done;
  Array.iter
    (fun (i, j) ->
      if x.(i).(j) < bound then begin
        x.(i).(j) <- bound;
        x.(j).(i) <- bound
      end)
    p.conflict_edges

let matrix_sub a b =
  Array.mapi (fun i row -> Array.mapi (fun j v -> v -. b.(i).(j)) row) a

let matrix_add a b =
  Array.mapi (fun i row -> Array.mapi (fun j v -> v +. b.(i).(j)) row) a

let dykstra_dense p ~bound ~rounds y =
  let n = Array.length y in
  let zero () = Array.make_matrix n n 0. in
  let pc = ref (zero ()) and qc = ref (zero ()) in
  let cur = ref y in
  for _ = 1 to rounds do
    let t = matrix_add !cur !pc in
    let a = Symmetric.project_psd t in
    pc := matrix_sub t a;
    let t2 = matrix_add a !qc in
    let b = Array.map Array.copy t2 in
    project_box_dense p ~bound b;
    qc := matrix_sub t2 b;
    cur := b
  done;
  !cur

let solve_projected_dense p =
  let n = p.n in
  let bound = ideal_offdiag p.k in
  let x =
    ref (Array.init n (fun i -> Array.init n (fun j -> if i = j then 1. else 0.)))
  in
  let grad = Array.make_matrix n n 0. in
  Array.iter
    (fun (i, j) ->
      grad.(i).(j) <- grad.(i).(j) +. 1.;
      grad.(j).(i) <- grad.(j).(i) +. 1.)
    p.conflict_edges;
  Array.iter
    (fun (i, j) ->
      grad.(i).(j) <- grad.(i).(j) -. p.alpha;
      grad.(j).(i) <- grad.(j).(i) -. p.alpha)
    p.stitch_edges;
  for t = 0 to pg_iters - 1 do
    let eta = pg_step /. sqrt (float_of_int (t + 1)) in
    let y =
      Array.mapi
        (fun i row -> Array.mapi (fun j v -> v -. (eta *. grad.(i).(j))) row)
        !x
    in
    x := dykstra_dense p ~bound ~rounds:dykstra_rounds y
  done;
  x := dykstra_dense p ~bound ~rounds:(2 * dykstra_rounds) !x;
  let flat = FA.init (n * n) (fun c -> !x.(c / n).(c mod n)) in
  {
    gram = flat;
    gn = n;
    objective = objective_of_gram p !x;
    iterations = pg_iters;
  }

let solve_dense ?(mode = Auto) p =
  if p.n = 0 then empty
  else if projected ~mode p then solve_projected_dense p
  else solve_factorized p
