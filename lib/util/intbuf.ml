type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 16 0; len = 0 }

let length t = t.len

let clear t = t.len <- 0

let unsafe_get t i = Array.unsafe_get t.data i

let push t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let data' = Array.make (cap * 2) 0 in
    Array.blit t.data 0 data' 0 cap;
    t.data <- data'
  end;
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let data t = t.data

let iter t f =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done
