let sort_uniq l = List.sort_uniq compare l

let array_min a =
  if Array.length a = 0 then invalid_arg "Intset.array_min";
  Array.fold_left min a.(0) a

let array_max a =
  if Array.length a = 0 then invalid_arg "Intset.array_max";
  Array.fold_left max a.(0) a

let arg_by better a =
  if Array.length a = 0 then invalid_arg "Intset.arg";
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if better a.(i) a.(!best) then best := i
  done;
  !best

let argmin a = arg_by ( < ) a
let argmax a = arg_by ( > ) a

let sum a = Array.fold_left ( + ) 0 a
