type t = { x0 : int; y0 : int; x1 : int; y1 : int }

let make ~x0 ~y0 ~x1 ~y1 =
  if x0 >= x1 || y0 >= y1 then
    invalid_arg
      (Printf.sprintf "Rect.make: degenerate rectangle (%d,%d)-(%d,%d)" x0 y0
         x1 y1);
  { x0; y0; x1; y1 }

let width r = r.x1 - r.x0
let height r = r.y1 - r.y0
let area r = width r * height r

let translate r ~dx ~dy =
  { x0 = r.x0 + dx; y0 = r.y0 + dy; x1 = r.x1 + dx; y1 = r.y1 + dy }

let inflate r d =
  make ~x0:(r.x0 - d) ~y0:(r.y0 - d) ~x1:(r.x1 + d) ~y1:(r.y1 + d)

let overlaps a b = a.x0 < b.x1 && b.x0 < a.x1 && a.y0 < b.y1 && b.y0 < a.y1
let touches a b = a.x0 <= b.x1 && b.x0 <= a.x1 && a.y0 <= b.y1 && b.y0 <= a.y1

let intersection a b =
  let x0 = max a.x0 b.x0 and y0 = max a.y0 b.y0 in
  let x1 = min a.x1 b.x1 and y1 = min a.y1 b.y1 in
  if x0 < x1 && y0 < y1 then Some { x0; y0; x1; y1 } else None

let union_bbox a b =
  { x0 = min a.x0 b.x0; y0 = min a.y0 b.y0; x1 = max a.x1 b.x1; y1 = max a.y1 b.y1 }

(* Gap along one axis between [a0,a1] and [b0,b1]; 0 when they overlap. *)
let axis_gap a0 a1 b0 b1 =
  if a1 < b0 then b0 - a1 else if b1 < a0 then a0 - b1 else 0

let distance2 a b =
  let dx = axis_gap a.x0 a.x1 b.x0 b.x1 in
  let dy = axis_gap a.y0 a.y1 b.y0 b.y1 in
  (dx * dx) + (dy * dy)

let equal a b = a.x0 = b.x0 && a.y0 = b.y0 && a.x1 = b.x1 && a.y1 = b.y1

let pp ppf r =
  Format.fprintf ppf "[%d,%d..%d,%d]" r.x0 r.y0 r.x1 r.y1
