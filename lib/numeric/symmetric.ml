(* Householder tridiagonalization and implicit-shift QL: EISPACK's
   tred2/tql2 as ported in JAMA, on row-major [floatarray]s transposed
   relative to JAMA's so every inner loop walks a contiguous row. Unlike
   tred2, the reduction does not form its orthogonal factor (4n^3/3
   flops): QL rotates the identity, and only the eigenvectors a caller
   uses are mapped back through the reflections (2n^2 flops each). *)

module FA = Float.Array

let fget = FA.unsafe_get
let fset = FA.unsafe_set

(* QL steps per eigenvalue before giving up, as in EISPACK's tql2: a
   finite input needs a few, the cap stops a NaN input. *)
let max_ql_steps = 30

(* Reduce [t] (upper triangle read) to tridiagonal form: diagonal in
   [d], subdiagonal in [e.(1..n-1)]. Row i >= 1 of [t] keeps the
   Householder vector u_i of step i in its first i cells and the
   reflection's h_i = |u_i|^2 / 2 on its diagonal (0: no reflection),
   so that A = Q T Q' with Q = H_(n-1) ... H_1, H_i = I - u_i u_i' / h_i. *)
let tred2 ~n ~t ~d ~e =
  for j = 0 to n - 1 do
    fset d j (fget t ((j * n) + (n - 1)))
  done;
  for i = n - 1 downto 1 do
    let scale = ref 0. in
    for k = 0 to i - 1 do
      scale := !scale +. abs_float (fget d k)
    done;
    let h = ref 0. in
    (* A one-cell column (i = 1) is already tridiagonal: the reflection
       would only flip its sign. *)
    if i = 1 || !scale = 0. then begin
      fset e i (fget d (i - 1));
      for j = 0 to i - 1 do
        fset d j (fget t ((j * n) + (i - 1)))
      done
    end
    else begin
      (* Householder vector of the scaled column. *)
      let inv = 1. /. !scale in
      for k = 0 to i - 1 do
        let dk = fget d k *. inv in
        fset d k dk;
        h := !h +. (dk *. dk)
      done;
      let f = fget d (i - 1) in
      let g = if f > 0. then -.sqrt !h else sqrt !h in
      fset e i (!scale *. g);
      h := !h -. (f *. g);
      fset d (i - 1) (f -. g);
      FA.fill e 0 i 0.;
      (* e <- A u, reading the upper triangle of the active block row
         by row. *)
      for j = 0 to i - 1 do
        let f = fget d j in
        let rj = j * n in
        fset t ((i * n) + j) f;
        let g = ref (fget e j +. (fget t (rj + j) *. f)) in
        for k = j + 1 to i - 1 do
          let tjk = fget t (rj + k) in
          g := !g +. (tjk *. fget d k);
          fset e k (fget e k +. (tjk *. f))
        done;
        fset e j !g
      done;
      let f = ref 0. and inv = 1. /. !h in
      for j = 0 to i - 1 do
        let ej = fget e j *. inv in
        fset e j ej;
        f := !f +. (ej *. fget d j)
      done;
      let hh = !f /. (!h +. !h) in
      for j = 0 to i - 1 do
        fset e j (fget e j -. (hh *. fget d j))
      done;
      (* Rank-two update of the active block: A <- A - u e' - e u'. *)
      for j = 0 to i - 1 do
        let f = fget d j and g = fget e j in
        let rj = j * n in
        for k = j to i - 1 do
          fset t (rj + k)
            (fget t (rj + k) -. ((f *. fget e k) +. (g *. fget d k)))
        done;
        fset d j (fget t (rj + i - 1))
      done
    end;
    (* d.(i) already holds the diagonal entry, so h_i takes its cell. *)
    fset t ((i * n) + i) !h
  done

(* Row r of [z] <- Q row r: apply H_1, then H_2, ..., H_(n-1). *)
let back_transform ~n ~t ~z r =
  let rr = r * n in
  for i = 1 to n - 1 do
    let ri = i * n in
    let h = fget t (ri + i) in
    if h <> 0. then begin
      let g = ref 0. in
      for k = 0 to i - 1 do
        g := !g +. (fget t (ri + k) *. fget z (rr + k))
      done;
      let g = !g /. h in
      for k = 0 to i - 1 do
        fset z (rr + k) (fget z (rr + k) -. (g *. fget t (ri + k)))
      done
    end
  done

(* Diagonalize the tridiagonal ([d], [e] from [tred2]) by implicit-
   shift QL, rotating [z] from the identity: row r of [z] ends as the
   tridiagonal's eigenvector for [d.(r)]. Eigenvalues land in [d]
   (unsorted); [e] is destroyed. *)
let tql2 ~n ~z ~d ~e =
  FA.fill z 0 (n * n) 0.;
  for i = 0 to n - 1 do
    fset z ((i * n) + i) 1.
  done;
  FA.blit e 1 e 0 (n - 1);
  fset e (n - 1) 0.;
  (* An off-diagonal is negligible below eps times the tridiagonal's
     norm. EISPACK grows this norm with l, which on a rank-deficient
     input leaves a leading block near 1e-170 to iterate on. *)
  let norm = ref 0. in
  for l = 0 to n - 1 do
    let mag = abs_float (fget d l) +. abs_float (fget e l) in
    if mag > !norm then norm := mag
  done;
  let small = epsilon_float *. !norm in
  let shift = ref 0. in
  for l = 0 to n - 1 do
    (* Each step splits off the unreduced block [l..m] afresh, so every
       rotated off-diagonal exceeds [small] and, for entries of moderate
       size, no square under a [sqrt] underflows (no [hypot] needed).
       The search stops at n-1 even on a NaN, so m stays in bounds. *)
    let m = ref (l + 1) in
    let steps = ref 0 in
    while !m > l && !steps < max_ql_steps do
      m := l;
      while !m < n - 1 && abs_float (fget e !m) > small do
        incr m
      done;
      let m = !m in
      if m > l then begin
        incr steps;
        (* Implicit shift from the leading 2 x 2 block. *)
        let g = fget d l in
        let el = fget e l in
        let p = (fget d (l + 1) -. g) /. (2. *. el) in
        let r = Float.copy_sign (sqrt ((p *. p) +. 1.)) p in
        fset d l (el /. (p +. r));
        fset d (l + 1) (el *. (p +. r));
        let dl1 = fget d (l + 1) in
        let h = g -. fget d l in
        for i = l + 2 to n - 1 do
          fset d i (fget d i -. h)
        done;
        shift := !shift +. h;
        (* One QL sweep from m-1 down to l. *)
        let p = ref (fget d m) in
        let c = ref 1. and c2 = ref 1. and c3 = ref 1. in
        let s = ref 0. and s2 = ref 0. in
        let el1 = fget e (l + 1) in
        for i = m - 1 downto l do
          c3 := !c2;
          c2 := !c;
          s2 := !s;
          let ei = fget e i and di = fget d i in
          let g = !c *. ei and h = !c *. !p in
          let r = sqrt ((!p *. !p) +. (ei *. ei)) in
          fset e (i + 1) (!s *. r);
          let inv = 1. /. r in
          let si = ei *. inv and ci = !p *. inv in
          s := si;
          c := ci;
          p := (ci *. di) -. (si *. g);
          fset d (i + 1) (h +. (si *. ((ci *. g) +. (si *. di))));
          let ri = i * n and ri1 = (i + 1) * n in
          for k = 0 to n - 1 do
            let a = fget z (ri + k) and b = fget z (ri1 + k) in
            fset z (ri1 + k) ((si *. a) +. (ci *. b));
            fset z (ri + k) ((ci *. a) -. (si *. b))
          done
        done;
        let p = -. !s *. !s2 *. !c3 *. el1 *. el /. dl1 in
        fset e l (!s *. p);
        fset d l (!c *. p)
      end
    done;
    fset d l (fget d l +. !shift);
    fset e l 0.
  done

(* Eigenpairs of [a] (clobbered): [w], and rows of [v] to back-transform. *)
let eigen ~n ~a ~v ~w ~e =
  if n > 0 then begin
    tred2 ~n ~t:a ~d:w ~e;
    tql2 ~n ~z:v ~d:w ~e
  end

(* [dst] <- nearest-PSD projection of [src], rebuilt from whichever side
   of the spectrum has fewer eigenpairs: A+ = sum of w v v' over w > 0,
   or equally A + sum of |w| v v' over w < 0. Only that side's
   eigenvectors are back-transformed. The first n cells of [dst] hold
   the off-diagonal until [dst] is rebuilt. *)
let project_psd_flat ~n ~src ~work ~v ~w ~dst =
  FA.blit src 0 work 0 (n * n);
  eigen ~n ~a:work ~v ~w ~e:dst;
  let positive = ref 0 in
  for e = 0 to n - 1 do
    if fget w e > 0. then incr positive
  done;
  let from_negative = 2 * !positive > n in
  if from_negative then FA.blit src 0 dst 0 (n * n)
  else FA.fill dst 0 (n * n) 0.;
  (* Rank-one updates, upper triangle only; with eigenvectors stored as
     rows the inner loop streams row e of [v] and row i of [dst], both
     contiguous. The mirror pass makes [dst] exactly symmetric
     bit-for-bit — fl((a*w)*b) and fl((b*w)*a) can disagree in the last
     ulp. *)
  for e = 0 to n - 1 do
    let we = fget w e in
    if (if from_negative then we < 0. else we > 0.) then begin
      back_transform ~n ~t:work ~z:v e;
      let we = abs_float we and re = e * n in
      for i = 0 to n - 1 do
        let vie = fget v (re + i) *. we in
        if vie <> 0. then begin
          let ri = i * n in
          for j = i to n - 1 do
            fset dst (ri + j) (fget dst (ri + j) +. (vie *. fget v (re + j)))
          done
        end
      done
    end
  done;
  for i = 0 to n - 1 do
    let ri = i * n in
    for j = i + 1 to n - 1 do
      fset dst ((j * n) + i) (fget dst (ri + j))
    done
  done

(* ------------------------------------------------------------------ *)
(* Dense [float array array] wrappers over the flat kernel. *)

let flatten m =
  let n = Array.length m in
  FA.init (n * n) (fun c -> m.(c / n).(c mod n))

let unflatten n x =
  Array.init n (fun i -> Array.init n (fun j -> FA.get x ((i * n) + j)))

let eigh a =
  let n = Array.length a in
  let t = flatten a and v = FA.make (n * n) 0. and w = FA.make n 0. in
  eigen ~n ~a:t ~v ~w ~e:(FA.make n 0.);
  for r = 0 to n - 1 do
    back_transform ~n ~t ~z:v r
  done;
  (Array.init n (FA.get w), unflatten n v)

let project_psd m =
  let n = Array.length m in
  let nn () = FA.make (n * n) 0. in
  let dst = nn () in
  project_psd_flat ~n ~src:(flatten m) ~work:(nn ()) ~v:(nn ())
    ~w:(FA.make n 0.) ~dst;
  unflatten n dst
