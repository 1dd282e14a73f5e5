(* Milli-unit score bonus per same-colored color-friendly neighbor. *)
let friendly_bonus = 10

(* Score of giving vertex [v] color [c] against the currently colored
   vertices: conflicts dominate, stitches next, the friendly rule breaks
   ties. Lower is better. *)
let color_penalty ~k ~ws ~fb (g : Decomp_graph.t) colors v c =
  let wc = Coloring.weight_conflict in
  let pen = ref 0 in
  Decomp_graph.iter g.Decomp_graph.conflict v (fun u ->
      if colors.(u) = c then pen := !pen + wc);
  Decomp_graph.iter g.Decomp_graph.stitch v (fun u ->
      if colors.(u) >= 0 && colors.(u) <> c then pen := !pen + ws);
  if fb > 0 then
    Decomp_graph.iter g.Decomp_graph.friendly v (fun u ->
        if colors.(u) = c then pen := !pen - fb);
  ignore k;
  !pen

let best_color ~k ~ws ~fb g colors v =
  let best = ref 0 and best_pen = ref max_int in
  for c = 0 to k - 1 do
    let pen = color_penalty ~k ~ws ~fb g colors v c in
    if pen < !best_pen then begin
      best_pen := pen;
      best := c
    end
  done;
  !best

(* Stage 1: peel non-critical vertices (d_conf < k, d_stit < 2) onto a
   stack with a worklist so the pass stays linear. *)
let peel ~k (g : Decomp_graph.t) =
  let n = g.Decomp_graph.n in
  let alive = Array.make n true in
  let dconf = Array.init n (Decomp_graph.deg g.Decomp_graph.conflict) in
  let dstit = Array.init n (Decomp_graph.deg g.Decomp_graph.stitch) in
  let stack = ref [] in
  let queue = Queue.create () in
  let queued = Array.make n false in
  let removable v = alive.(v) && dconf.(v) < k && dstit.(v) < 2 in
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
      let relax u arr =
        arr.(u) <- arr.(u) - 1;
        if removable u && not queued.(u) then begin
          Queue.add u queue;
          queued.(u) <- true
        end
      in
      Decomp_graph.iter g.Decomp_graph.conflict v (fun u ->
          if alive.(u) then relax u dconf);
      Decomp_graph.iter g.Decomp_graph.stitch v (fun u ->
          if alive.(u) then relax u dstit)
    end
  done;
  (alive, !stack)

(* The three peer-selection orders over the core. *)
let orders ~k (g : Decomp_graph.t) core =
  let sequence = Array.copy core in
  let degree = Array.copy core in
  Array.sort
    (fun a b ->
      let da = Decomp_graph.conflict_degree g a
      and db = Decomp_graph.conflict_degree g b in
      if da <> db then compare db da else compare a b)
    degree;
  let in_core = Hashtbl.create (Array.length core) in
  Array.iter (fun v -> Hashtbl.replace in_core v ()) core;
  let round = Array.make (Array.length core) 3 in
  let pos = Hashtbl.create (Array.length core) in
  Array.iteri (fun i v -> Hashtbl.replace pos v i) core;
  Array.iteri
    (fun i v ->
      if Decomp_graph.conflict_degree g v >= k then round.(i) <- 1)
    core;
  Array.iteri
    (fun i v ->
      if round.(i) = 1 then
        Decomp_graph.iter g.Decomp_graph.conflict v (fun u ->
            match Hashtbl.find_opt pos u with
            | Some j when round.(j) = 3 -> round.(j) <- 2
            | Some _ | None -> ()))
    core;
  let three_round = Array.copy core in
  let key v =
    match Hashtbl.find_opt pos v with Some i -> round.(i) | None -> 3
  in
  Array.sort
    (fun a b ->
      let ra = key a and rb = key b in
      if ra <> rb then compare ra rb else compare a b)
    three_round;
  [ sequence; degree; three_round ]

(* Cost of a coloring restricted to colored vertices. *)
let partial_cost ~ws (g : Decomp_graph.t) colors =
  let wc = Coloring.weight_conflict in
  let total = ref 0 in
  for u = 0 to g.Decomp_graph.n - 1 do
    if colors.(u) >= 0 then begin
      Decomp_graph.iter g.Decomp_graph.conflict u (fun v ->
          if u < v && colors.(v) = colors.(u) then total := !total + wc);
      Decomp_graph.iter g.Decomp_graph.stitch u (fun v ->
          if u < v && colors.(v) >= 0 && colors.(v) <> colors.(u) then
            total := !total + ws)
    end
  done;
  !total

let refine ~k ~ws ~fb ~passes (g : Decomp_graph.t) colors core =
  for _ = 1 to passes do
    Array.iter
      (fun v ->
        let current = colors.(v) in
        colors.(v) <- -1;
        let cur_pen = color_penalty ~k ~ws ~fb g colors v current in
        let cand = best_color ~k ~ws ~fb g colors v in
        let cand_pen = color_penalty ~k ~ws ~fb g colors v cand in
        colors.(v) <- (if cand_pen < cur_pen then cand else current))
      core
  done

let solve_with_bonus ~fb ~k ~alpha (g : Decomp_graph.t) =
  if k < 1 then invalid_arg "Linear_color.solve: k < 1";
  let n = g.Decomp_graph.n in
  let ws = Coloring.stitch_weight ~alpha in
  let alive, stack = peel ~k g in
  let core =
    Array.of_list
      (List.filter (fun v -> alive.(v)) (List.init n (fun v -> v)))
  in
  let colors = Array.make n (-1) in
  if Array.length core > 0 then begin
    (* Peer selection: run all three orders, keep the cheapest. *)
    let candidates =
      List.map
        (fun order ->
          let trial = Array.make n (-1) in
          Array.iter
            (fun v -> trial.(v) <- best_color ~k ~ws ~fb g trial v)
            order;
          (partial_cost ~ws g trial, trial))
        (orders ~k g core)
    in
    let _, chosen =
      List.fold_left
        (fun (bc, bt) (c, t) -> if c < bc then (c, t) else (bc, bt))
        (max_int, [||])
        candidates
    in
    Array.blit chosen 0 colors 0 n;
    refine ~k ~ws ~fb ~passes:2 g colors core
  end;
  (* Pop-up: every popped vertex had conflict degree < k when removed, so
     a conflict-free color is always available among the k choices. *)
  List.iter (fun v -> colors.(v) <- best_color ~k ~ws ~fb g colors v) stack;
  colors

let solve ~k ~alpha g = solve_with_bonus ~fb:friendly_bonus ~k ~alpha g
let solve_no_friendly ~k ~alpha g = solve_with_bonus ~fb:0 ~k ~alpha g
