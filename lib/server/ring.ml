type entry = {
  id : int;
  circuit : string;
  algo : string;
  k : int;
  bytes : int;
  pieces : int;
  cache_hits : int;
  queue_wait_ns : int64;
  first_piece_ns : int64;
  solve_ns : int64;
  total_ns : int64;
  degraded : int;
  outcome : string;
  trace : Mpl_obs.Sink.event list;
}

(* Fixed-capacity circular buffer under one mutex. Entries are small
   (the per-request trace is capped by the server before insertion),
   so holding the lock across an add or a snapshot is cheap. *)
type t = {
  lock : Mutex.t;
  slots : entry option array;
  mutable next : int;  (* slot the next add writes *)
  mutable count : int;  (* live entries, <= capacity *)
}

let create capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity < 1";
  {
    lock = Mutex.create ();
    slots = Array.make capacity None;
    next = 0;
    count = 0;
  }

let capacity t = Array.length t.slots

let add t e =
  Mutex.lock t.lock;
  t.slots.(t.next) <- Some e;
  t.next <- (t.next + 1) mod Array.length t.slots;
  if t.count < Array.length t.slots then t.count <- t.count + 1;
  Mutex.unlock t.lock

let entries t =
  Mutex.lock t.lock;
  let cap = Array.length t.slots in
  let out = ref [] in
  (* Oldest-first walk accumulates into a newest-first list. *)
  for i = 0 to t.count - 1 do
    let idx = (t.next - t.count + i + (2 * cap)) mod cap in
    match t.slots.(idx) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  Mutex.unlock t.lock;
  !out

let find t id = List.find_opt (fun e -> e.id = id) (entries t)
