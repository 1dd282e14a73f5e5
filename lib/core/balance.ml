let usage ~k colors =
  let counts = Array.make k 0 in
  Array.iter (fun c -> if c >= 0 then counts.(c) <- counts.(c) + 1) colors;
  counts

let imbalance ~k colors =
  let counts = usage ~k colors in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.
  else begin
    let mx = Array.fold_left max counts.(0) counts in
    let mn = Array.fold_left min counts.(0) counts in
    float_of_int (mx - mn) /. (float_of_int total /. float_of_int k)
  end

(* Weight per mask (pattern area when [weights] holds node areas). *)
let weighted_usage ~k ~weights colors =
  let counts = Array.make k 0 in
  Array.iteri
    (fun v c -> if c >= 0 then counts.(c) <- counts.(c) + weights.(v))
    colors;
  counts

(* Scaled-cost delta of recoloring vertex [v] to [c] ([ws] = stitch
   weight in milli-units). *)
let move_delta ~ws (g : Decomp_graph.t) colors v c =
  let wc = Coloring.weight_conflict in
  let old_c = colors.(v) in
  if c = old_c then 0
  else begin
    let delta = ref 0 in
    Decomp_graph.iter g.Decomp_graph.conflict v (fun u ->
        if colors.(u) = old_c then delta := !delta - wc
        else if colors.(u) = c then delta := !delta + wc);
    Decomp_graph.iter g.Decomp_graph.stitch v (fun u ->
        if colors.(u) >= 0 then begin
          if colors.(u) = old_c then delta := !delta + ws
          else if colors.(u) = c then delta := !delta - ws
        end);
    !delta
  end

let rebalance ?weights ~k ~alpha (g : Decomp_graph.t) colors =
  let n = g.Decomp_graph.n in
  let weights =
    match weights with
    | Some w ->
      if Array.length w <> n then
        invalid_arg "Balance.rebalance: weights length mismatch";
      w
    | None -> Array.make n 1
  in
  let ws = Coloring.stitch_weight ~alpha in
  let colors = Array.copy colors in
  let counts = weighted_usage ~k ~weights colors in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < 5 do
    improved := false;
    incr passes;
    for v = 0 to n - 1 do
      let current = colors.(v) in
      if current >= 0 && weights.(v) > 0 then begin
        (* Cheapest admissible move: a zero-cost color whose usage stays
           strictly lower than the current mask's even after receiving
           this vertex's weight (guaranteeing the max-min spread never
           grows). *)
        let best = ref current in
        for c = 0 to k - 1 do
          if
            c <> current
            && counts.(c) + weights.(v) < counts.(!best)
            && move_delta ~ws g colors v c = 0
          then best := c
        done;
        if !best <> current then begin
          counts.(current) <- counts.(current) - weights.(v);
          counts.(!best) <- counts.(!best) + weights.(v);
          colors.(v) <- !best;
          improved := true
        end
      end
    done
  done;
  colors
