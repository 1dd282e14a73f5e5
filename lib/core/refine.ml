(* Scaled-cost delta of recoloring vertex [v] to [c]. *)
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

let local_search ?(max_passes = 10) ~k ~alpha (g : Decomp_graph.t) colors =
  let ws = Coloring.stitch_weight ~alpha in
  let colors = Array.copy colors in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    for v = 0 to g.Decomp_graph.n - 1 do
      let best = ref colors.(v) and best_delta = ref 0 in
      for c = 0 to k - 1 do
        let d = move_delta ~ws g colors v c in
        if d < !best_delta then begin
          best_delta := d;
          best := c
        end
      done;
      if !best <> colors.(v) then begin
        colors.(v) <- !best;
        improved := true
      end
    done
  done;
  colors
