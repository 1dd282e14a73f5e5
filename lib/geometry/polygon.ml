type t = { rects : Rect.t list; bbox : Rect.t }

(* Union-find style connectivity check over the rectangle list. *)
let connected rl =
  match rl with
  | [] -> false
  | first :: _ ->
    let a = Array.of_list rl in
    let n = Array.length a in
    let seen = Array.make n false in
    let stack = ref [ 0 ] in
    seen.(0) <- true;
    ignore first;
    let visited = ref 1 in
    let rec loop () =
      match !stack with
      | [] -> ()
      | i :: rest ->
        stack := rest;
        for j = 0 to n - 1 do
          if (not seen.(j)) && Rect.touches a.(i) a.(j) then begin
            seen.(j) <- true;
            incr visited;
            stack := j :: !stack
          end
        done;
        loop ()
    in
    loop ();
    !visited = n

let of_rects rl =
  match rl with
  | [] -> invalid_arg "Polygon.of_rects: empty"
  | first :: rest ->
    if not (connected rl) then
      invalid_arg "Polygon.of_rects: disconnected rectangle union";
    let bbox = List.fold_left Rect.union_bbox first rest in
    { rects = rl; bbox }

let of_rect r = { rects = [ r ]; bbox = r }

let rects t = t.rects
let bbox t = t.bbox
let area t = List.fold_left (fun acc r -> acc + Rect.area r) 0 t.rects

let distance2 a b =
  let best = ref max_int in
  List.iter
    (fun ra ->
      List.iter
        (fun rb ->
          let d = Rect.distance2 ra rb in
          if d < !best then best := d)
        b.rects)
    a.rects;
  !best
