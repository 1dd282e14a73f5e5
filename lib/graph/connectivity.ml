let labels g =
  let n = Ugraph.n g in
  let lbl = Array.make n (-1) in
  let k = ref 0 in
  let queue = Queue.create () in
  for s = 0 to n - 1 do
    if lbl.(s) < 0 then begin
      lbl.(s) <- !k;
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        Ugraph.iter_neighbors g u (fun v ->
            if lbl.(v) < 0 then begin
              lbl.(v) <- !k;
              Queue.add v queue
            end)
      done;
      incr k
    end
  done;
  (lbl, !k)

let components g =
  let lbl, k = labels g in
  let sizes = Array.make k 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) lbl;
  let comps = Array.map (fun s -> Array.make s 0) sizes in
  let fill = Array.make k 0 in
  Array.iteri
    (fun v c ->
      comps.(c).(fill.(c)) <- v;
      fill.(c) <- fill.(c) + 1)
    lbl;
  comps
