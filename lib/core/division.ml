module Connectivity = Mpl_graph.Connectivity
module Biconnected = Mpl_graph.Biconnected
module Gomory_hu = Mpl_graph.Gomory_hu
module Maxflow = Mpl_graph.Maxflow

type stages = {
  use_components : bool;
  use_peel : bool;
  use_biconnected : bool;
  use_ghtree : bool;
}

let all_stages =
  { use_components = true; use_peel = true; use_biconnected = true; use_ghtree = true }

let no_stages =
  {
    use_components = false;
    use_peel = false;
    use_biconnected = false;
    use_ghtree = false;
  }

type stats = {
  mutable pieces : int;
  mutable largest_piece : int;
  mutable peeled : int;
  mutable cuts : int;
}

let fresh_stats () = { pieces = 0; largest_piece = 0; peeled = 0; cuts = 0 }

(* Division-level peel: only vertices with NO stitch edges qualify (the
   reduced problem then has exactly the same optimum), unlike Algorithm
   2's internal d_stit < 2 rule which is heuristic. *)
let peel ~k (g : Decomp_graph.t) =
  let n = g.Decomp_graph.n in
  let alive = Array.make n true in
  let dconf = Array.init n (Decomp_graph.deg g.Decomp_graph.conflict) in
  let stack = ref [] in
  let queue = Queue.create () in
  let queued = Array.make n false in
  let removable v =
    alive.(v) && dconf.(v) < k && Decomp_graph.deg g.Decomp_graph.stitch v = 0
  in
  for v = 0 to n - 1 do
    if removable v then begin
      Queue.add v queue;
      queued.(v) <- true
    end
  done;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    queued.(v) <- false;
    if removable v then begin
      alive.(v) <- false;
      stack := v :: !stack;
      Decomp_graph.iter g.Decomp_graph.conflict v (fun u ->
          if alive.(u) then begin
            dconf.(u) <- dconf.(u) - 1;
            if removable u && not queued.(u) then begin
              Queue.add u queue;
              queued.(u) <- true
            end
          end)
    end
  done;
  (alive, !stack)

(* Conflict-free color for a popped vertex, friendly-tie-broken. *)
let pop_color ~k (g : Decomp_graph.t) colors v =
  let wc = Coloring.weight_conflict in
  let best = ref 0 and best_pen = ref max_int in
  for c = 0 to k - 1 do
    let pen = ref 0 in
    Decomp_graph.iter g.Decomp_graph.conflict v (fun u ->
        if colors.(u) = c then pen := !pen + wc);
    Decomp_graph.iter g.Decomp_graph.friendly v (fun u ->
        if colors.(u) = c then pen := !pen - 1);
    if !pen < !best_pen then begin
      best_pen := !pen;
      best := c
    end
  done;
  !best

(* Rotation of side-B colors minimizing the crossing cost; crossing
   conflict edges each forbid exactly one rotation, so with fewer than k
   of them a conflict-free rotation exists (paper Lemma 1). *)
let best_rotation ~k ~alpha colors_a colors_b crossing_conflict crossing_stitch =
  let wc = Coloring.weight_conflict in
  let ws = Coloring.stitch_weight ~alpha in
  let best_r = ref 0 and best_cost = ref max_int in
  for r = 0 to k - 1 do
    let cost = ref 0 in
    List.iter
      (fun (a, b) ->
        if colors_a.(a) = (colors_b.(b) + r) mod k then cost := !cost + wc)
      crossing_conflict;
    List.iter
      (fun (a, b) ->
        if colors_a.(a) <> (colors_b.(b) + r) mod k then cost := !cost + ws)
      crossing_stitch;
    if !cost < !best_cost then begin
      best_cost := !cost;
      best_r := r
    end
  done;
  !best_r

(* A piece of two vertices whose one union edge is a stitch: no
   conflict edge, and each vertex's stitch run holds the other (graphs
   carry no self-loops or duplicate edges). *)
let stitch_pair (g : Decomp_graph.t) =
  g.Decomp_graph.n = 2
  && Decomp_graph.deg g.Decomp_graph.conflict 0 = 0
  && Decomp_graph.deg g.Decomp_graph.conflict 1 = 0
  && Decomp_graph.deg g.Decomp_graph.stitch 0 = 1

(* Piece extraction under a [division.extract] span; with a null sink
   the path reads no clock. *)
let extract ?(obs = Mpl_obs.Obs.null) (g : Decomp_graph.t) vss =
  Mpl_obs.Obs.span obs "division.extract"
    ~args:
      [
        ("pieces", Mpl_obs.Sink.Int (Array.length vss));
        ("n", Mpl_obs.Sink.Int g.Decomp_graph.n);
      ]
  @@ fun () -> Decomp_graph.subgraphs g vss

(* The division pipeline is a two-phase producer. [plan ~emit g] runs
   ALL structural analysis up front — component scan, peel fixpoint,
   block decomposition, GH trees, cut recovery, crossing-edge collection
   — none of which depends on any color. Every leaf piece is handed to
   [emit] the moment it is carved out; [emit] returns a thunk for that
   piece's eventual coloring (it may solve inline, or submit to a pool
   and return the join). [plan] returns the merge thunk, which forces
   the leaf thunks in emit order and reassembles: component scatter,
   core-then-popped peel replay, block-cut-tree BFS rotation alignment,
   GH-cut best-rotation stitching. Because analysis is color-independent
   and the merge consumes results in the plan's deterministic emit
   order, the colors do not depend on when or where the emitted thunks
   actually run.

   Every merge thunk captures only what it reads — the piece size, back
   maps, crossing lists, child thunks — never a piece graph (the one
   exception, a peel with a core, needs its piece's adjacency for
   [pop_color]). So with an inline [emit] a piece dies as soon as its
   subtree is planned, not at the final join: pieces held to the join
   are promoted and swept by the major GC, which made the sequential
   [assign] of a 120k-feature synth ~1.35x dearer (DESIGN.md §10). *)
let plan ?(obs = Mpl_obs.Obs.null) ?(stages = all_stages) ?stats
    ?(bounded_cuts = true) ?connected:(is_connected = false) ~k ~alpha ~emit
    (g : Decomp_graph.t) =
  if k < 2 then invalid_arg "Division.plan: k < 2";
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  (* Metric handles resolve to no-ops on a null registry. The stage
     spans below cover only each stage's own analysis (component scan,
     peel fixpoint, block decomposition, GH tree + cut recovery), never
     the emitted solves — so phase totals don't multiply count nested
     work. *)
  let m = obs.Mpl_obs.Obs.metrics in
  let c_pieces = Mpl_obs.Metrics.counter m "division.pieces" in
  let c_peeled = Mpl_obs.Metrics.counter m "division.peeled" in
  let c_bicon = Mpl_obs.Metrics.counter m "division.bicon_splits" in
  let c_cuts = Mpl_obs.Metrics.counter m "division.gh_cuts" in
  let c_maxflow = Mpl_obs.Metrics.counter m "division.maxflow_calls" in
  let c_bounded = Mpl_obs.Metrics.counter m "division.bounded_exits" in
  let c_trivial = Mpl_obs.Metrics.counter m "division.trivial" in
  let h_size = Mpl_obs.Metrics.histogram m "division.piece_size" in
  let leaf sub =
    let n = sub.Decomp_graph.n in
    stats.pieces <- stats.pieces + 1;
    if n > stats.largest_piece then stats.largest_piece <- n;
    Mpl_obs.Metrics.incr c_pieces;
    Mpl_obs.Metrics.observe h_size (float_of_int n);
    let th = emit sub in
    fun () ->
      let colors = th () in
      if Array.length colors <> n then
        failwith
          (Printf.sprintf
             "Division.leaf: solver returned %d colors for a %d-vertex piece"
             (Array.length colors) n);
      colors
  in
  (* A piece resolved without running the stages it stands in for:
     book what those stages would have booked and return their
     coloring. *)
  let trivial ~peeled ~cuts colors =
    stats.peeled <- stats.peeled + peeled;
    stats.cuts <- stats.cuts + cuts;
    Mpl_obs.Metrics.add c_peeled peeled;
    Mpl_obs.Metrics.add c_cuts cuts;
    Mpl_obs.Metrics.incr c_trivial;
    fun () -> colors
  in
  let rec conquer sub =
    (* A piece of at most one vertex, or a stitch pair, is connected:
       the scan would find the piece itself. *)
    if
      stages.use_components && sub.Decomp_graph.n > 1
      && not (stitch_pair sub)
    then begin
      let comps =
        Mpl_obs.Obs.span obs "division.components" (fun () ->
            Connectivity.components (Decomp_graph.union_graph sub))
      in
      if Array.length comps > 1 then begin
        let n = sub.Decomp_graph.n in
        let parts =
          Array.map
            (fun (piece, back) -> (connected piece, back))
            (extract ~obs sub comps)
        in
        fun () ->
          let colors = Array.make n (-1) in
          Array.iter
            (fun (th, back) ->
              let pc = th () in
              Array.iteri (fun i v -> colors.(v) <- pc.(i)) back)
            parts;
          colors
      end
      else connected sub
    end
    else connected sub
  and connected sub =
    if stages.use_peel && sub.Decomp_graph.n = 1 then
      (* A lone vertex has conflict degree 0 < k and no stitch edge, so
         the peel pops it and leaves no core; [pop_color] sees no
         colored neighbor, every color ties at penalty 0, and the first,
         0, wins. *)
      trivial ~peeled:1 ~cuts:0 [| 0 |]
    else if stages.use_peel && stages.use_ghtree && stitch_pair sub then
      (* A stitch pair: the peel keeps both ends (each has a stitch
         edge); the union graph is one edge, so one block; its GH tree is
         that edge, of weight 1 < k, so the GH stage cuts it into two
         lone vertices, each popped with color 0 as above. The one
         crossing stitch edge costs nothing at rotation 0, the first
         rotation scanned, so [best_rotation] keeps it. Whether the
         component and block stages run changes none of this. *)
      trivial ~peeled:2 ~cuts:1 [| 0; 0 |]
    else if stages.use_peel then begin
      let alive, stack =
        Mpl_obs.Obs.span obs "division.peel" (fun () -> peel ~k sub)
      in
      match stack with
      | [] -> blocks sub
      | _ ->
        stats.peeled <- stats.peeled + List.length stack;
        Mpl_obs.Metrics.add c_peeled (List.length stack);
        let n = sub.Decomp_graph.n in
        let core =
          Array.of_list
            (List.filter (fun v -> alive.(v)) (List.init n (fun v -> v)))
        in
        let pops colors =
          List.iter (fun v -> colors.(v) <- pop_color ~k sub colors v) stack;
          colors
        in
        if Array.length core = 0 then begin
          (* Nothing left to solve: color the pops now, so [sub] dies
             before the merge. *)
          let colors = pops (Array.make n (-1)) in
          fun () -> colors
        end
        else begin
          let piece, back = (extract ~obs sub [| core |]).(0) in
          let th = conquer piece in
          fun () ->
            let colors = Array.make n (-1) in
            let pc = th () in
            Array.iteri (fun i v -> colors.(v) <- pc.(i)) back;
            pops colors
        end
    end
    else blocks sub
  and blocks sub =
    if stages.use_biconnected then begin
      let bl =
        Mpl_obs.Obs.span obs "division.biconnected" (fun () ->
            Array.of_list (Biconnected.blocks (Decomp_graph.union_graph sub)))
      in
      if Array.length bl <= 1 then ghtree sub
      else begin
        Mpl_obs.Metrics.add c_bicon (Array.length bl - 1);
        (* BFS over the block-cut tree so every non-root block meets
           exactly one pre-colored (articulation) vertex. The traversal
           is purely structural, so it runs at plan time; the merge
           replays the blocks in the same visit order, aligning each
           with the already-colored shared vertex. *)
        let n = sub.Decomp_graph.n in
        let blocks_of = Array.make n [] in
        Array.iteri
          (fun bi verts ->
            Array.iter (fun v -> blocks_of.(v) <- bi :: blocks_of.(v)) verts)
          bl;
        let visited = Array.make (Array.length bl) false in
        let queue = Queue.create () in
        let order = ref [] in
        for start = 0 to Array.length bl - 1 do
          if not visited.(start) then begin
            visited.(start) <- true;
            Queue.add start queue;
            while not (Queue.is_empty queue) do
              let bi = Queue.pop queue in
              let verts = bl.(bi) in
              order := verts :: !order;
              Array.iter
                (fun v ->
                  List.iter
                    (fun bj ->
                      if not visited.(bj) then begin
                        visited.(bj) <- true;
                        Queue.add bj queue
                      end)
                    blocks_of.(v))
                verts
            done
          end
        done;
        let order =
          Array.map
            (fun (piece, back) -> (connected piece, back))
            (extract ~obs sub (Array.of_list (List.rev !order)))
        in
        fun () ->
          let colors = Array.make n (-1) in
          Array.iter
            (fun (th, back) ->
              let pc = th () in
              (* Align with the already-colored shared vertex, if any. *)
              let rotation = ref 0 in
              Array.iteri
                (fun i v ->
                  if colors.(v) >= 0 && !rotation = 0 then
                    rotation := ((colors.(v) - pc.(i)) mod k + k) mod k)
                back;
              Array.iteri
                (fun i v ->
                  if colors.(v) < 0 then colors.(v) <- (pc.(i) + !rotation) mod k)
                back)
            order;
          colors
      end
    end
    else ghtree sub
  and ghtree sub =
    if stages.use_ghtree && sub.Decomp_graph.n >= 2 then begin
      let ug, best =
        Mpl_obs.Obs.span obs "division.ghtree"
          ~args:[ ("n", Mpl_obs.Sink.Int sub.Decomp_graph.n) ]
          (fun () ->
            let ug = Decomp_graph.union_graph sub in
            (* Only cuts strictly below k are actionable, so cap each
               Gusfield max-flow at k: Dinic runs O(k*E) instead of
               O(V^2*E), and [capped] counts flows that hit the bound
               (recorded as "at least k", which Theorem 2 never needs to
               distinguish further). *)
            let ght =
              Gomory_hu.build ?bound:(if bounded_cuts then Some k else None) ug
            in
            Mpl_obs.Metrics.add c_bounded (Gomory_hu.capped ght);
            (* Gusfield's construction runs one max-flow per non-root
               vertex. *)
            Mpl_obs.Metrics.add c_maxflow (sub.Decomp_graph.n - 1);
            let edges = Gomory_hu.tree_edges ght in
            let best = ref None in
            Array.iter
              (fun (v, p, w) ->
                match !best with
                | Some (_, _, bw) when bw <= w -> ()
                | _ -> if w < k then best := Some (v, p, w))
              edges;
            (ug, !best))
      in
      match best with
      | None -> leaf sub
      | Some (s, t, _) ->
        stats.cuts <- stats.cuts + 1;
        Mpl_obs.Metrics.incr c_cuts;
        (* Gusfield trees are only flow-equivalent: recover an actual
           minimum cut with one more max-flow before splitting. *)
        let side =
          Mpl_obs.Obs.span obs "division.ghtree" ~cat:"division"
            (fun () ->
              let net = Maxflow.of_ugraph ug in
              let _ = Maxflow.max_flow net ~s ~t in
              Mpl_obs.Metrics.incr c_maxflow;
              Maxflow.min_cut_side net ~s)
        in
        let n = sub.Decomp_graph.n in
        let in_a = Array.make n false in
        Array.iter (fun v -> in_a.(v) <- true) side;
        let part flag =
          Array.of_list
            (List.filter (fun v -> in_a.(v) = flag) (List.init n (fun v -> v)))
        in
        let va = part true and vb = part false in
        let ab = extract ~obs sub [| va; vb |] in
        let piece_a, back_a = ab.(0) and piece_b, back_b = ab.(1) in
        let th_a = conquer piece_a in
        let th_b = conquer piece_b in
        (* Collect crossing edges expressed in local (A-global, B-local)
           indices for the rotation scan — structural, so plan-time. *)
        let pos_b = Hashtbl.create (Array.length vb) in
        Array.iteri (fun i v -> Hashtbl.add pos_b v i) back_b;
        let crossing edges_of =
          List.filter_map
            (fun (u, v) ->
              match (in_a.(u), in_a.(v)) with
              | true, false -> Some (u, Hashtbl.find pos_b v)
              | false, true -> Some (v, Hashtbl.find pos_b u)
              | true, true | false, false -> None)
            edges_of
        in
        let cross_conf = crossing (Decomp_graph.conflict_edges sub) in
        let cross_stit = crossing (Decomp_graph.stitch_edges sub) in
        fun () ->
          let ca = th_a () in
          let cb = th_b () in
          let colors = Array.make n (-1) in
          Array.iteri (fun i v -> colors.(v) <- ca.(i)) back_a;
          let r = best_rotation ~k ~alpha colors cb cross_conf cross_stit in
          Array.iteri (fun i v -> colors.(v) <- (cb.(i) + r) mod k) back_b;
          colors
    end
    else leaf sub
  in
  if is_connected then connected g else conquer g

(* [plan] with an [emit] that solves inline, then the join. *)
let assign ?obs ?stages ?stats ?bounded_cuts ~k ~alpha ~solver g =
  plan ?obs ?stages ?stats ?bounded_cuts ~k ~alpha
    ~emit:(fun p -> let c = solver p in fun () -> c)
    g ()
