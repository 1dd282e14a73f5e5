type edge = { target : int; same_cost : int; diff_cost : int }

type instance = { n : int; adj : edge list array }

let instance_of_graph ~alpha (g : Decomp_graph.t) =
  let wc = Coloring.weight_conflict in
  let ws = Coloring.stitch_weight ~alpha in
  let adj = Array.make g.Decomp_graph.n [] in
  let push u e = adj.(u) <- e :: adj.(u) in
  List.iter
    (fun (u, v) ->
      push u { target = v; same_cost = wc; diff_cost = 0 };
      push v { target = u; same_cost = wc; diff_cost = 0 })
    (Decomp_graph.conflict_edges g);
  List.iter
    (fun (u, v) ->
      push u { target = v; same_cost = 0; diff_cost = ws };
      push v { target = u; same_cost = 0; diff_cost = ws })
    (Decomp_graph.stitch_edges g);
  { n = g.Decomp_graph.n; adj }

(* Assignment order: BFS from the highest-degree vertex, preferring heavy
   vertices, so pruning meets dense subgraphs early. *)
let search_order inst =
  let n = inst.n in
  let deg = Array.map List.length inst.adj in
  let order = Array.make n 0 in
  let placed = Array.make n false in
  let idx = ref 0 in
  let by_degree = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare deg.(b) deg.(a)) by_degree;
  let queue = Queue.create () in
  Array.iter
    (fun s ->
      if not placed.(s) then begin
        placed.(s) <- true;
        Queue.add s queue;
        while not (Queue.is_empty queue) do
          let u = Queue.pop queue in
          order.(!idx) <- u;
          incr idx;
          let nbrs =
            List.map (fun e -> e.target) inst.adj.(u)
            |> List.sort_uniq compare
            |> List.sort (fun a b -> compare deg.(b) deg.(a))
          in
          List.iter
            (fun v ->
              if not placed.(v) then begin
                placed.(v) <- true;
                Queue.add v queue
              end)
            nbrs
        done
      end)
    by_degree;
  order

let delta inst colors v c =
  List.fold_left
    (fun acc e ->
      let cu = colors.(e.target) in
      if cu < 0 then acc
      else if cu = c then acc + e.same_cost
      else acc + e.diff_cost)
    0 inst.adj.(v)

let cost inst colors =
  let total = ref 0 in
  Array.iteri
    (fun u edges ->
      List.iter
        (fun e ->
          if e.target > u then
            total :=
              !total
              + (if colors.(u) = colors.(e.target) then e.same_cost
                 else e.diff_cost))
        edges)
    inst.adj;
  !total

let greedy ~k inst =
  let order = search_order inst in
  let colors = Array.make inst.n (-1) in
  Array.iter
    (fun v ->
      let best = ref 0 and best_d = ref max_int in
      for c = 0 to k - 1 do
        let d = delta inst colors v c in
        if d < !best_d then begin
          best_d := d;
          best := c
        end
      done;
      colors.(v) <- !best)
    order;
  colors

type result = {
  colors : int array;
  scaled_cost : int;
  optimal : bool;
  nodes : int;
}

let node_cap = 2_000_000

let solve ?(budget = Mpl_util.Timer.budget 0.)
    ?init ~k inst =
  let order = search_order inst in
  let colors = Array.make inst.n (-1) in
  let seed = greedy ~k inst in
  let best_cost = ref (cost inst seed) in
  let best = ref (Array.copy seed) in
  (match init with
  | Some c0 when Array.length c0 = inst.n && Array.for_all (fun c -> c >= 0 && c < k) c0 ->
    let c = cost inst c0 in
    if c < !best_cost then begin
      best_cost := c;
      best := Array.copy c0
    end
  | Some _ | None -> ());
  let nodes = ref 0 in
  let aborted = ref false in
  let rec branch t partial max_used =
    if !aborted then ()
    else if partial >= !best_cost then ()
    else if t = inst.n then begin
      (* A full assignment reached after the deadline must not be
         latched: the run is reported as aborted, and mixing in work
         completed past the deadline would make the result depend on
         scheduling noise. *)
      if Mpl_util.Timer.expired budget then aborted := true
      else begin
        best_cost := partial;
        best := Array.copy colors
      end
    end
    else begin
      let v = order.(t) in
      (* Symmetry breaking: a fresh color index beyond max_used+1 is
         isomorphic to max_used+1. *)
      let limit = min (k - 1) (max_used + 1) in
      for c = 0 to limit do
        if not !aborted then begin
          incr nodes;
          if !nodes land 0xFFF = 0 && Mpl_util.Timer.expired budget then
            aborted := true;
          if !nodes > node_cap then aborted := true;
          if not !aborted then begin
            let d = delta inst colors v c in
            if partial + d < !best_cost then begin
              colors.(v) <- c;
              branch (t + 1) (partial + d) (max max_used c);
              colors.(v) <- -1
            end
          end
        end
      done
    end
  in
  if inst.n > 0 then branch 0 0 (-1);
  {
    colors = !best;
    scaled_cost = !best_cost;
    optimal = not !aborted;
    nodes = !nodes;
  }
