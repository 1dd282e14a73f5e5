(* Order statistics for per-op samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let mean a =
  let n = Array.length a in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n

(* The tail is the highest nearest-rank percentile that still has at
   least [beyond] samples above it: with [n] sorted samples that is
   index [n - 1 - beyond]. Fewer than [beyond + 1] samples have no
   tail. *)
let beyond = 10

let tail_index n = if n <= beyond then None else Some (n - 1 - beyond)

type tail = { value : float; pct : int; samples : int }

let tail a =
  let n = Array.length a in
  match tail_index n with
  | None -> None
  | Some i ->
    Some { value = (sorted a).(i); pct = 100 * (i + 1) / n; samples = n }
