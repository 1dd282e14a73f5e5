type t = int * int

let length (lo, hi) = hi - lo

let merge ivs =
  let sorted = List.sort compare (List.filter (fun (lo, hi) -> lo <= hi) ivs) in
  let rec go acc = function
    | [] -> List.rev acc
    | (lo, hi) :: rest -> begin
      match acc with
      | (plo, phi) :: acc' when lo <= phi -> go ((plo, max phi hi) :: acc') rest
      | _ -> go ((lo, hi) :: acc) rest
    end
  in
  go [] sorted

let complement (lo, hi) covered =
  let rec go cursor acc = function
    | [] -> if cursor < hi then (cursor, hi) :: acc else acc
    | (clo, chi) :: rest ->
      let acc = if clo > cursor then (cursor, min clo hi) :: acc else acc in
      go (max cursor chi) acc rest
  in
  List.rev (go lo [] covered)

let dilate margin (lo, hi) = (lo - margin, hi + margin)
