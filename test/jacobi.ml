(* Test-only oracle: the cyclic Jacobi eigensolver the projected SDP
   solver once ran on, kept as an independent reference for the
   Householder + QL kernel in [Mpl_numeric.Symmetric]. Each rotation
   zeroes one off-diagonal pair; sweeps repeat until the off-diagonal
   mass is below (1e-14 |A|_F)^2. That is tighter than the solver's old
   stopping rule (mass below 1e-18 n^2, pairs below 1e-13 skipped),
   which left reconstruction residuals near 1e-8 at n = 60: too loose
   for a reference checked to 1e-10 |A|_F. *)

let frobenius_distance a b =
  let n = Array.length a in
  let s = ref 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let d = a.(i).(j) -. b.(i).(j) in
      s := !s +. (d *. d)
    done
  done;
  sqrt !s

let eigh a0 =
  let n = Array.length a0 in
  let a = Array.map Array.copy a0 in
  let v = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1. else 0.)) in
  let off () =
    let s = ref 0. in
    for p = 0 to n - 1 do
      for q = p + 1 to n - 1 do
        s := !s +. (a.(p).(q) *. a.(p).(q))
      done
    done;
    !s
  in
  let rotate p q =
    let apq = a.(p).(q) in
    if apq <> 0. then begin
      let tau = (a.(q).(q) -. a.(p).(p)) /. (2. *. apq) in
      let t =
        let s = if tau >= 0. then 1. else -1. in
        s /. (abs_float tau +. sqrt (1. +. (tau *. tau)))
      in
      let c = 1. /. sqrt (1. +. (t *. t)) in
      let s = t *. c in
      (* Update rows/columns p and q of A. *)
      for i = 0 to n - 1 do
        if i <> p && i <> q then begin
          let aip = a.(i).(p) and aiq = a.(i).(q) in
          a.(i).(p) <- (c *. aip) -. (s *. aiq);
          a.(p).(i) <- a.(i).(p);
          a.(i).(q) <- (s *. aip) +. (c *. aiq);
          a.(q).(i) <- a.(i).(q)
        end
      done;
      let app = a.(p).(p) and aqq = a.(q).(q) in
      a.(p).(p) <- app -. (t *. apq);
      a.(q).(q) <- aqq +. (t *. apq);
      a.(p).(q) <- 0.;
      a.(q).(p) <- 0.;
      for i = 0 to n - 1 do
        let vip = v.(i).(p) and viq = v.(i).(q) in
        v.(i).(p) <- (c *. vip) -. (s *. viq);
        v.(i).(q) <- (s *. vip) +. (c *. viq)
      done
    end
  in
  let tol =
    let f = frobenius_distance a0 (Array.map (Array.map (fun _ -> 0.)) a0) in
    (1e-14 *. f) *. (1e-14 *. f)
  in
  let max_sweeps = 50 in
  let rec sweeps k =
    if k < max_sweeps && off () > tol then begin
      for p = 0 to n - 1 do
        for q = p + 1 to n - 1 do
          rotate p q
        done
      done;
      sweeps (k + 1)
    end
  in
  if n > 0 then sweeps 0;
  let w = Array.init n (fun i -> a.(i).(i)) in
  (w, v)

let project_psd m =
  let n = Array.length m in
  let w, v = eigh m in
  let out = Array.make_matrix n n 0. in
  for e = 0 to n - 1 do
    if w.(e) > 0. then begin
      let we = w.(e) in
      for i = 0 to n - 1 do
        let vie = v.(i).(e) *. we in
        if vie <> 0. then
          for j = i to n - 1 do
            out.(i).(j) <- out.(i).(j) +. (vie *. v.(j).(e))
          done
      done
    end
  done;
  (* Mirror the upper triangle so the projection is exactly symmetric
     bit-for-bit: fl((a*w)*b) and fl((b*w)*a) can disagree in the last
     ulp, and downstream kernels rely on exact symmetry. *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      out.(j).(i) <- out.(i).(j)
    done
  done;
  out
