module Rect = Mpl_geometry.Rect
module Polygon = Mpl_geometry.Polygon
module Grid_index = Mpl_geometry.Grid_index

type node = { feature : int; shape : Polygon.t }

type t = { nodes : node array; stitch_edges : (int * int) list }

type orient = Horizontal | Vertical

(* A wire is a single rectangle clearly longer than wide. *)
let wire_orientation tech (p : Polygon.t) =
  match Polygon.rects p with
  | [ r ] ->
    let w = Rect.width r and h = Rect.height r in
    let min_len = 2 * tech.Layout.min_width in
    if w >= h + min_len then Some (Horizontal, r)
    else if h >= w + min_len then Some (Vertical, r)
    else None
  | [] | _ :: _ :: _ -> None

module Interval = Mpl_geometry.Interval

(* Candidate stitch abscissae for one wire. [margin] dilates neighbor
   projections and keeps stitches away from wire ends. *)
let stitch_positions ~margin ~limit (orient, r) neighbor_boxes =
  let axis_lo, axis_hi =
    match orient with
    | Horizontal -> (r.Rect.x0, r.Rect.x1)
    | Vertical -> (r.Rect.y0, r.Rect.y1)
  in
  let interior = (axis_lo + margin, axis_hi - margin) in
  if snd interior - fst interior <= 0 then []
  else begin
    let proj (b : Rect.t) =
      Interval.dilate margin
        (match orient with
        | Horizontal -> (b.Rect.x0, b.Rect.x1)
        | Vertical -> (b.Rect.y0, b.Rect.y1))
    in
    let covered = Interval.merge (List.map proj neighbor_boxes) in
    let free = Interval.complement interior covered in
    let good = List.filter (fun iv -> Interval.length iv >= margin) free in
    let cuts = List.map (fun (lo, hi) -> (lo + hi) / 2) good in
    let rec take n = function
      | [] -> []
      | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
    in
    take limit cuts
  end

let cut_wire (orient, r) positions =
  let sorted = List.sort_uniq compare positions in
  let segments =
    let rec go lo = function
      | [] ->
        [ (match orient with
          | Horizontal -> Rect.make ~x0:lo ~y0:r.Rect.y0 ~x1:r.Rect.x1 ~y1:r.Rect.y1
          | Vertical -> Rect.make ~x0:r.Rect.x0 ~y0:lo ~x1:r.Rect.x1 ~y1:r.Rect.y1) ]
      | c :: rest ->
        let seg =
          match orient with
          | Horizontal -> Rect.make ~x0:lo ~y0:r.Rect.y0 ~x1:c ~y1:r.Rect.y1
          | Vertical -> Rect.make ~x0:r.Rect.x0 ~y0:lo ~x1:r.Rect.x1 ~y1:c
        in
        seg :: go c rest
    in
    match orient with
    | Horizontal -> go r.Rect.x0 sorted
    | Vertical -> go r.Rect.y0 sorted
  in
  segments

let split ?(max_stitches_per_feature = 3) ?(obs = Mpl_obs.Obs.null)
    (layout : Layout.t) ~min_s =
  let features = layout.Layout.features in
  let nf = Array.length features in
  if max_stitches_per_feature = 0 || nf = 0 then
    Mpl_obs.Obs.span obs "graph.stitch_split" (fun () ->
        {
          nodes =
            Array.init nf (fun i -> { feature = i; shape = features.(i) });
          stitch_edges = [];
        })
  else begin
    let cell = max min_s 16 in
    let index = Grid_index.create ~cell in
    Mpl_obs.Obs.span obs "graph.stitch_split"
      ~late_args:(fun () -> Grid_index.span_args index)
    @@ fun () ->
    Array.iteri (fun i p -> Grid_index.add index i (Polygon.bbox p)) features;
    let margin = layout.Layout.tech.Layout.min_width in
    let nodes = ref [] in
    let edges = ref [] in
    let next = ref 0 in
    let emit feature shape =
      let id = !next in
      incr next;
      nodes := { feature; shape } :: !nodes;
      id
    in
    Array.iteri
      (fun i p ->
        match wire_orientation layout.Layout.tech p with
        | None -> ignore (emit i p)
        | Some wire ->
          let box = Polygon.bbox p in
          let cand = Grid_index.query index box ~radius:min_s in
          let neighbor_boxes =
            List.filter_map
              (fun j ->
                if j = i then None
                else begin
                  let q = features.(j) in
                  if Polygon.distance2 p q <= min_s * min_s then
                    Some (Polygon.bbox q)
                  else None
                end)
              cand
          in
          let cuts =
            stitch_positions ~margin ~limit:max_stitches_per_feature wire
              neighbor_boxes
          in
          let segments = cut_wire wire cuts in
          let ids = List.map (fun r -> emit i (Polygon.of_rect r)) segments in
          let rec chain = function
            | a :: (b :: _ as rest) ->
              edges := (a, b) :: !edges;
              chain rest
            | [ _ ] | [] -> ()
          in
          chain ids)
      features;
    { nodes = Array.of_list (List.rev !nodes); stitch_edges = List.rev !edges }
  end
