type t = int array

let weight_conflict = 1000

let alpha = 0.1

let stitch_weight ~alpha = int_of_float (Float.round (alpha *. 1000.))

type cost = { conflicts : int; stitches : int; scaled : int }

let evaluate ?(alpha = alpha) (g : Decomp_graph.t) colors =
  let conflicts = ref 0 in
  let stitches = ref 0 in
  for u = 0 to g.Decomp_graph.n - 1 do
    if colors.(u) >= 0 then begin
      Decomp_graph.iter g.Decomp_graph.conflict u (fun v ->
          if u < v && colors.(v) = colors.(u) then incr conflicts);
      Decomp_graph.iter g.Decomp_graph.stitch u (fun v ->
          if u < v && colors.(v) >= 0 && colors.(v) <> colors.(u) then
            incr stitches)
    end
  done;
  let scaled =
    (weight_conflict * !conflicts) + (stitch_weight ~alpha * !stitches)
  in
  { conflicts = !conflicts; stitches = !stitches; scaled }

let check_range ~k colors =
  Array.for_all (fun c -> c >= -1 && c < k) colors

let is_complete colors = Array.for_all (fun c -> c >= 0) colors

let permute colors sigma =
  Array.map (fun c -> if c < 0 then c else sigma.(c)) colors
