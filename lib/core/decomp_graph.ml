module Ugraph = Mpl_graph.Ugraph
module Polygon = Mpl_geometry.Polygon
module Grid_index = Mpl_geometry.Grid_index
module Intbuf = Mpl_util.Intbuf
module Intsort = Mpl_util.Intsort

(* Each relation is stored in CSR form: [nbr.(off.(v)) .. off.(v+1)-1]
   is the sorted neighbor run of [v]. Construction is two flat passes
   over an endpoint stream — no intermediate list adjacency and no
   per-edge tuples on the hot [of_layout] / [subgraph] paths. *)

type adj = { off : int array; nbr : int array }

type t = {
  n : int;
  conflict : adj;
  stitch : adj;
  friendly : adj;
  feature : int array;
  varea : int array;
  mutable union_memo : Mpl_graph.Ugraph.t option;
}

let deg a v = a.off.(v + 1) - a.off.(v)

let iter a v f =
  for s = a.off.(v) to a.off.(v + 1) - 1 do
    f (Array.unsafe_get a.nbr s)
  done

(* CSR from [len] undirected edge pairs held in two flat endpoint
   arrays. Pairs must be in range, self-loop free, and deduplicated
   (checked by the callers that take user input). *)
let csr_of_pairs ~n eu ev len =
  let cnt = Array.make (n + 1) 0 in
  for e = 0 to len - 1 do
    let u = Array.unsafe_get eu e and v = Array.unsafe_get ev e in
    cnt.(u) <- cnt.(u) + 1;
    cnt.(v) <- cnt.(v) + 1
  done;
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + cnt.(v)
  done;
  let nbr = Array.make off.(n) 0 in
  Array.blit off 0 cnt 0 (n + 1);
  for e = 0 to len - 1 do
    let u = Array.unsafe_get eu e and v = Array.unsafe_get ev e in
    nbr.(cnt.(u)) <- v;
    cnt.(u) <- cnt.(u) + 1;
    nbr.(cnt.(v)) <- u;
    cnt.(v) <- cnt.(v) + 1
  done;
  for v = 0 to n - 1 do
    if not (Intsort.is_sorted_range nbr off.(v) off.(v + 1)) then
      Intsort.sort_range nbr off.(v) off.(v + 1)
  done;
  { off; nbr }

let csr_of_bufs ~n eu ev =
  csr_of_pairs ~n (Intbuf.data eu) (Intbuf.data ev) (Intbuf.length eu)

let normalize_edges n edges =
  let seen = Hashtbl.create (List.length edges) in
  List.filter
    (fun (u, v) ->
      if u = v then invalid_arg "Decomp_graph: self-loop";
      if u < 0 || v < 0 || u >= n || v >= n then
        invalid_arg "Decomp_graph: vertex out of range";
      let key = (min u v, max u v) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    edges
  |> List.map (fun (u, v) -> (min u v, max u v))

let csr_of_list ~n edges =
  let len = List.length edges in
  let eu = Array.make (max len 1) 0 and ev = Array.make (max len 1) 0 in
  List.iteri
    (fun i (u, v) ->
      eu.(i) <- u;
      ev.(i) <- v)
    edges;
  csr_of_pairs ~n eu ev len

let of_edges ?(stitch_edges = []) ?(friendly_edges = []) ?feature ~n
    conflict_edges =
  let ce = normalize_edges n conflict_edges in
  let se = normalize_edges n stitch_edges in
  let fe = normalize_edges n friendly_edges in
  let ce_set = Hashtbl.create (List.length ce) in
  List.iter (fun e -> Hashtbl.add ce_set e ()) ce;
  List.iter
    (fun e ->
      if Hashtbl.mem ce_set e then
        invalid_arg "Decomp_graph: edge is both conflict and stitch")
    se;
  let feature =
    match feature with Some f -> f | None -> Array.init n (fun i -> i)
  in
  if Array.length feature <> n then
    invalid_arg "Decomp_graph: feature array length mismatch";
  {
    n;
    conflict = csr_of_list ~n ce;
    stitch = csr_of_list ~n se;
    friendly = csr_of_list ~n fe;
    feature;
    varea = Array.make n 1;
    union_memo = None;
  }

(* Neighbor search + CSR assembly over an already split node set. This
   is the single construction path for every layout-derived graph: the
   whole-layout build and the sharded per-window / border-component
   rebuilds all classify edges with the same distance predicates and
   sort the same CSR runs, which is what makes a reassembled border
   component bit-identical to the matching [subgraph] of an unsharded
   build. *)
let of_nodes ?(obs = Mpl_obs.Obs.null) (split : Mpl_layout.Stitch.t) ~hp
    ~min_s =
  let nodes = split.Mpl_layout.Stitch.nodes in
  let n = Array.length nodes in
  let cu = Intbuf.create () and cv = Intbuf.create () in
  let fu = Intbuf.create () and fv = Intbuf.create () in
  let friendly_radius = min_s + hp in
  let index = Grid_index.create ~cell:(max friendly_radius 16) in
  Mpl_obs.Obs.span obs "graph.neighbor_search"
    ~args:[ ("nodes", Mpl_obs.Sink.Int n) ]
    ~late_args:(fun () -> Grid_index.span_args index)
    (fun () ->
      Array.iteri
        (fun i node ->
          Grid_index.add index i (Polygon.bbox node.Mpl_layout.Stitch.shape))
        nodes;
      let min_s2 = min_s * min_s in
      let friendly2 = friendly_radius * friendly_radius in
      Grid_index.iter_pairs index ~radius:friendly_radius (fun i j ->
          let ni = nodes.(i) and nj = nodes.(j) in
          if ni.Mpl_layout.Stitch.feature <> nj.Mpl_layout.Stitch.feature
          then begin
            let d2 =
              Polygon.distance2 ni.Mpl_layout.Stitch.shape
                nj.Mpl_layout.Stitch.shape
            in
            if d2 <= min_s2 then begin
              Intbuf.push cu i;
              Intbuf.push cv j
            end
            else if d2 <= friendly2 then begin
              Intbuf.push fu i;
              Intbuf.push fv j
            end
          end));
  let feature =
    Array.map (fun node -> node.Mpl_layout.Stitch.feature) nodes
  in
  (* The sweep reports each unordered pair once and never a self-loop,
     and stitch edges join distinct segments of one feature while
     conflicts join distinct features — so the CSR can be built directly
     with no normalization pass. *)
  let su = Intbuf.create () and sv = Intbuf.create () in
  List.iter
    (fun (a, b) ->
      Intbuf.push su a;
      Intbuf.push sv b)
    split.Mpl_layout.Stitch.stitch_edges;
  let m = obs.Mpl_obs.Obs.metrics in
  Mpl_obs.Metrics.add (Mpl_obs.Metrics.counter m "graph.nodes") n;
  Mpl_obs.Metrics.add
    (Mpl_obs.Metrics.counter m "graph.conflict_edges")
    (Intbuf.length cu);
  Mpl_obs.Metrics.add
    (Mpl_obs.Metrics.counter m "graph.stitch_edges")
    (Intbuf.length su);
  Mpl_obs.Metrics.add
    (Mpl_obs.Metrics.counter m "graph.friendly_edges")
    (Intbuf.length fu);
  {
    n;
    conflict = csr_of_bufs ~n cu cv;
    stitch = csr_of_bufs ~n su sv;
    friendly = csr_of_bufs ~n fu fv;
    feature;
    varea = Array.map (fun node -> Polygon.area node.Mpl_layout.Stitch.shape) nodes;
    union_memo = None;
  }

let of_layout ?(obs = Mpl_obs.Obs.null) ?max_stitches_per_feature
    (layout : Mpl_layout.Layout.t) ~min_s =
  Mpl_obs.Obs.span obs "graph.build" @@ fun () ->
  let split =
    Mpl_layout.Stitch.split ~obs ?max_stitches_per_feature layout ~min_s
  in
  let hp = layout.Mpl_layout.Layout.tech.Mpl_layout.Layout.half_pitch in
  of_nodes ~obs split ~hp ~min_s

let edges_of (a : adj) =
  let n = Array.length a.off - 1 in
  let out = ref [] in
  for u = n - 1 downto 0 do
    for s = a.off.(u + 1) - 1 downto a.off.(u) do
      let v = a.nbr.(s) in
      if u < v then out := (u, v) :: !out
    done
  done;
  !out

let conflict_edges t = edges_of t.conflict
let stitch_edges t = edges_of t.stitch
let friendly_edges t = edges_of t.friendly

let conflict_degree t v = deg t.conflict v
let stitch_degree t v = deg t.stitch v

let has_conflict t u v =
  (* Adjacency is sorted: binary search. *)
  let a = t.conflict in
  let rec bin lo hi =
    if lo >= hi then false
    else begin
      let mid = (lo + hi) / 2 in
      if a.nbr.(mid) = v then true
      else if a.nbr.(mid) < v then bin (mid + 1) hi
      else bin lo mid
    end
  in
  bin a.off.(u) a.off.(u + 1)

(* Conflict and stitch runs are disjoint and each sorted, so the union
   adjacency is a linear merge per vertex — handed to Ugraph as
   ready-made CSR, skipping its edge buffer entirely. Memoized: the
   division pipeline asks for the union of the same subgraph at up to
   three stages (components, biconnected, GH tree). The value is
   immutable, so a racing duplicate build is merely wasted work. *)
let build_union t =
  let c = t.conflict and s = t.stitch in
  let n = t.n in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + deg c v + deg s v
  done;
  let nbr = Array.make off.(n) 0 in
  for v = 0 to n - 1 do
    let i = ref c.off.(v)
    and j = ref s.off.(v)
    and w = ref off.(v) in
    let ci = c.off.(v + 1) and sj = s.off.(v + 1) in
    while !i < ci || !j < sj do
      let from_c =
        !j >= sj || (!i < ci && c.nbr.(!i) < s.nbr.(!j))
      in
      if from_c then begin
        nbr.(!w) <- c.nbr.(!i);
        incr i
      end
      else begin
        nbr.(!w) <- s.nbr.(!j);
        incr j
      end;
      incr w
    done
  done;
  Ugraph.of_csr ~n ~off ~nbr

let union_graph t =
  match t.union_memo with
  | Some ug -> ug
  | None ->
    let ug = build_union t in
    t.union_memo <- Some ug;
    ug

let conflict_graph t =
  Ugraph.of_csr ~n:t.n ~off:t.conflict.off ~nbr:t.conflict.nbr

(* Extraction through a forward map [fwd] (length [t.n]) that is all -1
   between calls: write [vs]'s local indices, restrict the three
   relations, then reset only [vs]'s entries. Each call costs
   O(|vs| + E(vs)), so a family of sets pays for the O(n) map once. *)
let extract_with t fwd vs =
  let m = Array.length vs in
  for i = 0 to m - 1 do
    let v = vs.(i) in
    if fwd.(v) <> -1 then begin
      for j = 0 to i - 1 do
        fwd.(vs.(j)) <- -1
      done;
      invalid_arg "Decomp_graph.subgraphs: duplicate vertex"
    end;
    fwd.(v) <- i
  done;
  let restrict (a : adj) =
    let off = Array.make (m + 1) 0 in
    for i = 0 to m - 1 do
      let v = vs.(i) in
      let c = ref 0 in
      for s = a.off.(v) to a.off.(v + 1) - 1 do
        if fwd.(a.nbr.(s)) >= 0 then incr c
      done;
      off.(i + 1) <- off.(i) + !c
    done;
    let nbr = Array.make off.(m) 0 in
    let w = ref 0 in
    for i = 0 to m - 1 do
      let v = vs.(i) in
      for s = a.off.(v) to a.off.(v + 1) - 1 do
        let j = fwd.(a.nbr.(s)) in
        if j >= 0 then begin
          nbr.(!w) <- j;
          incr w
        end
      done;
      (* [fwd] is monotone when [vs] is ascending (the common case);
         otherwise restore the sorted-run invariant. *)
      if not (Intsort.is_sorted_range nbr off.(i) off.(i + 1)) then
        Intsort.sort_range nbr off.(i) off.(i + 1)
    done;
    { off; nbr }
  in
  let sub =
    {
      n = m;
      conflict = restrict t.conflict;
      stitch = restrict t.stitch;
      friendly = restrict t.friendly;
      feature = Array.map (fun v -> t.feature.(v)) vs;
      varea = Array.map (fun v -> t.varea.(v)) vs;
      union_memo = None;
    }
  in
  Array.iter (fun v -> fwd.(v) <- -1) vs;
  (sub, Array.copy vs)

let extractor t =
  let fwd = Array.make t.n (-1) in
  extract_with t fwd

let subgraphs t vss = Array.map (extractor t) vss
let subgraph t vs = extractor t vs

let pp ppf t =
  let ce = List.length (conflict_edges t) in
  let se = List.length (stitch_edges t) in
  Format.fprintf ppf "decomp_graph(n=%d, ce=%d, se=%d)" t.n ce se
