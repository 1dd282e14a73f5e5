(* Compact CSR adjacency. Edges arrive through [add_edge] into a flat
   endpoint buffer; the first read freezes the buffer into offset /
   neighbor arrays with sorted, deduplicated runs. A later [add_edge]
   just reopens the buffer — the next freeze rebuilds from the frozen
   arrays plus the new endpoints, so construction and traversal can
   interleave (at rebuild cost) while the common build-then-traverse
   pattern pays exactly two passes and no per-edge boxing. *)

type t = {
  n : int;
  eu : Mpl_util.Intbuf.t; (* pending edge endpoints, paired slots *)
  ev : Mpl_util.Intbuf.t;
  mutable off : int array; (* vertex -> first slot in [nbr]; length n+1 *)
  mutable nbr : int array; (* sorted, deduplicated neighbor runs *)
}

let create n =
  if n < 0 then invalid_arg "Ugraph.create: negative size";
  {
    n;
    eu = Mpl_util.Intbuf.create ();
    ev = Mpl_util.Intbuf.create ();
    off = Array.make (n + 1) 0;
    nbr = [||];
  }

let n t = t.n

let check t v =
  if v < 0 || v >= t.n then invalid_arg "Ugraph: vertex out of range"

let sort_range = Mpl_util.Intsort.sort_range

let freeze t =
  let pending = Mpl_util.Intbuf.length t.eu in
  if pending > 0 then begin
    let n = t.n in
    let old_off = t.off and old_nbr = t.nbr in
    let eu = Mpl_util.Intbuf.data t.eu and ev = Mpl_util.Intbuf.data t.ev in
    (* Pass 1: directed endpoint counts (duplicates included). *)
    let cnt = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      cnt.(v) <- old_off.(v + 1) - old_off.(v)
    done;
    for e = 0 to pending - 1 do
      let u = Array.unsafe_get eu e and v = Array.unsafe_get ev e in
      cnt.(u) <- cnt.(u) + 1;
      cnt.(v) <- cnt.(v) + 1
    done;
    let off = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      off.(v + 1) <- off.(v) + cnt.(v)
    done;
    (* Pass 2: scatter, reusing [cnt] as per-vertex fill cursors. *)
    let nbr = Array.make off.(n) 0 in
    Array.blit off 0 cnt 0 (n + 1);
    for v = 0 to n - 1 do
      for s = old_off.(v) to old_off.(v + 1) - 1 do
        nbr.(cnt.(v)) <- old_nbr.(s);
        cnt.(v) <- cnt.(v) + 1
      done
    done;
    for e = 0 to pending - 1 do
      let u = Array.unsafe_get eu e and v = Array.unsafe_get ev e in
      nbr.(cnt.(u)) <- v;
      cnt.(u) <- cnt.(u) + 1;
      nbr.(cnt.(v)) <- u;
      cnt.(v) <- cnt.(v) + 1
    done;
    for v = 0 to n - 1 do
      sort_range nbr off.(v) off.(v + 1)
    done;
    (* Compact duplicate endpoints in place; rebuild offsets. *)
    let w = ref 0 in
    let run_start = ref 0 in
    for v = 0 to n - 1 do
      let lo = !run_start in
      run_start := off.(v + 1);
      let new_lo = !w in
      for s = lo to off.(v + 1) - 1 do
        if s = lo || nbr.(s) <> nbr.(s - 1) then begin
          nbr.(!w) <- nbr.(s);
          incr w
        end
      done;
      off.(v) <- new_lo
    done;
    off.(n) <- !w;
    t.off <- off;
    t.nbr <- if !w = Array.length nbr then nbr else Array.sub nbr 0 !w;
    Mpl_util.Intbuf.clear t.eu;
    Mpl_util.Intbuf.clear t.ev
  end

let add_edge t u v =
  check t u;
  check t v;
  if u = v then invalid_arg "Ugraph.add_edge: self-loop";
  Mpl_util.Intbuf.push t.eu u;
  Mpl_util.Intbuf.push t.ev v

(* Binary search in the sorted neighbor run of [u]. *)
let mem_edge t u v =
  check t u;
  check t v;
  freeze t;
  let lo = ref t.off.(u) and hi = ref t.off.(u + 1) in
  let found = ref false in
  while !hi > !lo do
    let mid = !lo + ((!hi - !lo) / 2) in
    let x = t.nbr.(mid) in
    if x = v then begin
      found := true;
      lo := !hi
    end
    else if x < v then lo := mid + 1
    else hi := mid
  done;
  !found

let degree t v =
  check t v;
  freeze t;
  t.off.(v + 1) - t.off.(v)

let neighbors t v =
  check t v;
  freeze t;
  let acc = ref [] in
  for s = t.off.(v + 1) - 1 downto t.off.(v) do
    acc := t.nbr.(s) :: !acc
  done;
  !acc

let iter_neighbors t v f =
  check t v;
  freeze t;
  for s = t.off.(v) to t.off.(v + 1) - 1 do
    f (Array.unsafe_get t.nbr s)
  done

let csr t =
  freeze t;
  (t.off, t.nbr)

let of_csr ~n ~off ~nbr =
  if n < 0 then invalid_arg "Ugraph.of_csr: negative size";
  if Array.length off <> n + 1 || off.(0) <> 0 || off.(n) <> Array.length nbr
  then invalid_arg "Ugraph.of_csr: malformed offsets";
  {
    n;
    eu = Mpl_util.Intbuf.create ();
    ev = Mpl_util.Intbuf.create ();
    off;
    nbr;
  }

let edges t =
  freeze t;
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    for s = t.off.(u + 1) - 1 downto t.off.(u) do
      let v = t.nbr.(s) in
      if u < v then acc := (u, v) :: !acc
    done
  done;
  !acc

let edge_count t =
  freeze t;
  t.off.(t.n) / 2

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) es;
  g

let induced t vs =
  freeze t;
  let m = Array.length vs in
  let back = Array.copy vs in
  let fwd = Array.make t.n (-1) in
  Array.iteri
    (fun i v ->
      check t v;
      fwd.(v) <- i)
    vs;
  let g = create m in
  Array.iteri
    (fun i v ->
      for s = t.off.(v) to t.off.(v + 1) - 1 do
        let j = fwd.(t.nbr.(s)) in
        if j > i then add_edge g i j
      done)
    vs;
  (g, back)
