(* Shared-queue domain pool with priorities and backpressure. Tasks are
   whole divided pieces (micro- to multi-second solves), so one mutex
   around a binary heap is never the bottleneck and keeps the
   blocking/wakeup protocol easy to audit.

   The queue is a max-heap on (priority, submission seq): higher
   priority first, FIFO among equals — so with the default priority
   every consumer sees exact submission order and jobs = 1 degenerates
   to deterministic sequential execution. The heap is bounded: a
   submission that finds it full first helps run queued tasks from the
   calling thread until there is room, which both caps memory for
   streaming producers and is deadlock-free at any [jobs] (the producer
   never blocks on a condition another producer must signal). *)

(* A cancel token covers every task submitted with it (one token per
   request in the server). Cancellation is checked only when a task is
   about to be dequeued for execution: a cancelled task never runs, its
   future is resolved to [Failed Cancelled], and the drop is counted on
   the token. Tasks already running are unaffected — their results are
   simply never looked at by the cancelled consumer.

   A token may also carry a deadline instant. The first [cancelled]
   check past it latches the state to [Expired], so the clock is read
   only until the token trips, and never on an unarmed token. Whichever
   of [cancel] and the deadline lands first decides the state. *)
type token_state = Live | Flagged | Expired

type token = {
  tstate : token_state Atomic.t;
  tdeadline : int Atomic.t;  (* monotonic ns; [max_int] = unarmed *)
  tdrops : int Atomic.t;  (* tasks dropped without running *)
}

exception Cancelled

let token () =
  {
    tstate = Atomic.make Live;
    tdeadline = Atomic.make max_int;
    tdrops = Atomic.make 0;
  }

let cancel tok = ignore (Atomic.compare_and_set tok.tstate Live Flagged)

let arm_deadline tok s =
  Atomic.set tok.tdeadline
    (Int64.to_int (Mpl_util.Timer.now_ns ()) + int_of_float (s *. 1e9))

let cancelled tok =
  Atomic.get tok.tstate != Live
  ||
  let d = Atomic.get tok.tdeadline in
  d <> max_int
  && Int64.to_int (Mpl_util.Timer.now_ns ()) >= d
  && begin
       ignore (Atomic.compare_and_set tok.tstate Live Expired);
       true
     end

let expired tok = Atomic.get tok.tstate == Expired
let drops tok = Atomic.get tok.tdrops

type task = {
  run : unit -> unit;
  drop : unit -> unit;  (* resolve the future as Cancelled *)
  cancel : token option;
  prio : int;
  seq : int;
}

(* Binary max-heap ordered by (prio desc, seq asc). Plain array
   storage, grown geometrically up to the queue bound. *)
module Heap = struct
  type t = {
    mutable a : task array;
    mutable len : int;
  }

  let dummy =
    { run = ignore; drop = ignore; cancel = None; prio = 0; seq = 0 }
  let create () = { a = Array.make 64 dummy; len = 0 }
  let length h = h.len

  let before x y = x.prio > y.prio || (x.prio = y.prio && x.seq < y.seq)

  let push h x =
    if h.len = Array.length h.a then begin
      let b = Array.make (2 * h.len) dummy in
      Array.blit h.a 0 b 0 h.len;
      h.a <- b
    end;
    let i = ref h.len in
    h.len <- h.len + 1;
    h.a.(!i) <- x;
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      before h.a.(!i) h.a.(p)
    do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.a.(0) in
      h.len <- h.len - 1;
      h.a.(0) <- h.a.(h.len);
      h.a.(h.len) <- dummy;
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let best = ref !i in
        if l < h.len && before h.a.(l) h.a.(!best) then best := l;
        if r < h.len && before h.a.(r) h.a.(!best) then best := r;
        if !best = !i then continue := false
        else begin
          let tmp = h.a.(!best) in
          h.a.(!best) <- h.a.(!i);
          h.a.(!i) <- tmp;
          i := !best
        end
      done;
      Some top
    end
end

(* Failures carry the backtrace captured at the raise site, so a
   re-raise in [await] (possibly on another domain) keeps the original
   trace instead of pointing at the join. *)
type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  mutable state : 'a state;
  fm : Mutex.t;
  fc : Condition.t;
}

(* Observability handles; all are no-op [None] handles when the pool is
   created without [?obs] or the registry is the null one, so the
   untraced pool pays one branch per event and reads no clocks. *)
type stats = {
  submitted : Mpl_obs.Metrics.counter;
  helped : Mpl_obs.Metrics.counter;
  backpressure : Mpl_obs.Metrics.counter;
  idle_waits : Mpl_obs.Metrics.counter;
  dropped : Mpl_obs.Metrics.counter;  (* cancelled before running *)
  busy_ns : Mpl_obs.Metrics.counter array;  (* per worker slot, 0 = caller *)
  timed : bool;  (* read the clock around task bodies *)
}

type t = {
  jobs : int;
  queue : Heap.t;
  bound : int;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable seq : int;  (* submission counter, FIFO tie-break *)
  mutable closed : bool;
  mutable domains : unit Domain.t array;
  mutable joined : bool;
  stats : stats;
  fault : Fault.t;
}

let jobs t = t.jobs
let default_bound = 1024

let bound t = t.bound

let queue_depth t =
  Mutex.lock t.lock;
  let n = Heap.length t.queue in
  Mutex.unlock t.lock;
  n

let make_stats ~jobs (obs : Mpl_obs.Obs.t) =
  let m = obs.Mpl_obs.Obs.metrics in
  {
    submitted = Mpl_obs.Metrics.counter m "pool.submitted";
    helped = Mpl_obs.Metrics.counter m "pool.helped";
    backpressure = Mpl_obs.Metrics.counter m "pool.backpressure";
    idle_waits = Mpl_obs.Metrics.counter m "pool.idle_waits";
    dropped = Mpl_obs.Metrics.counter m "pool.dropped";
    busy_ns =
      Array.init jobs (fun i ->
          Mpl_obs.Metrics.counter m (Printf.sprintf "pool.worker%d.busy_ns" i));
    timed = Mpl_obs.Metrics.enabled m;
  }

(* Run [task] on worker slot [slot], charging wall time to that slot's
   busy counter when metrics are on. *)
let run_task t slot task =
  if Fault.fires t.fault Fault.Worker_delay then Fault.delay ();
  if t.stats.timed then begin
    let t0 = Mpl_util.Timer.now_ns () in
    let finish () =
      let dt = Int64.sub (Mpl_util.Timer.now_ns ()) t0 in
      Mpl_obs.Metrics.add t.stats.busy_ns.(slot) (Int64.to_int dt)
    in
    match task () with
    | () -> finish ()
    | exception e ->
      finish ();
      raise e
  end
  else task ()

(* Drop a cancelled task instead of running it: resolve its future so
   joiners raise [Cancelled], count the drop on the token and the pool
   counter. Called with [t.lock] held — safe, because the lock order
   everywhere else is pool lock strictly before future lock. *)
let drop_task t task =
  task.drop ();
  Option.iter (fun tok -> Atomic.incr tok.tdrops) task.cancel;
  Mpl_obs.Metrics.incr t.stats.dropped

(* Pop the next runnable task, discarding cancelled ones in passing —
   the O(1)-per-task dequeue-time cancellation check. Caller holds
   [t.lock]. *)
let rec pop_live t =
  match Heap.pop t.queue with
  | None -> None
  | Some task -> (
    match task.cancel with
    | Some tok when cancelled tok ->
      drop_task t task;
      pop_live t
    | _ -> Some task)

let worker t own () =
  Mutex.lock t.lock;
  let rec loop () =
    match pop_live t with
    | Some task ->
      Mutex.unlock t.lock;
      run_task t own task.run;
      Mutex.lock t.lock;
      loop ()
    | None ->
      if t.closed then Mutex.unlock t.lock
      else begin
        Mpl_obs.Metrics.incr t.stats.idle_waits;
        Condition.wait t.nonempty t.lock;
        loop ()
      end
  in
  loop ()

let create ?(obs = Mpl_obs.Obs.null) ?(fault = Fault.none)
    ?(bound = default_bound) ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs < 1";
  if bound < 1 then invalid_arg "Pool.create: bound < 1";
  let t =
    {
      jobs;
      queue = Heap.create ();
      bound;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      seq = 0;
      closed = false;
      domains = [||];
      joined = false;
      stats = make_stats ~jobs obs;
      fault;
    }
  in
  t.domains <- Array.init (jobs - 1) (fun i -> Domain.spawn (worker t (i + 1)));
  t

let fresh_future () =
  { state = Pending; fm = Mutex.create (); fc = Condition.create () }

let resolve fut r =
  Mutex.lock fut.fm;
  fut.state <- r;
  Condition.broadcast fut.fc;
  Mutex.unlock fut.fm

(* Enqueue under the bound: while the queue is full, pop and run one
   task on the calling thread (backpressure by helping — never waits on
   a condition, so it cannot deadlock at jobs = 1). *)
let submit ?(priority = 0) ?cancel t f =
  let fut = fresh_future () in
  let run () =
    resolve fut
      (try Done (f ()) with e -> Failed (e, Printexc.get_raw_backtrace ()))
  in
  let drop () = resolve fut (Failed (Cancelled, Printexc.get_callstack 0)) in
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  while Heap.length t.queue >= t.bound do
    match pop_live t with
    | Some task ->
      Mutex.unlock t.lock;
      Mpl_obs.Metrics.incr t.stats.backpressure;
      run_task t 0 task.run;
      Mutex.lock t.lock
    | None -> ()
  done;
  Heap.push t.queue { run; drop; cancel; prio = priority; seq = t.seq };
  t.seq <- t.seq + 1;
  Condition.signal t.nonempty;
  Mutex.unlock t.lock;
  Mpl_obs.Metrics.incr t.stats.submitted;
  fut

let await t fut =
  let rec loop () =
    Mutex.lock fut.fm;
    match fut.state with
    | Done v ->
      Mutex.unlock fut.fm;
      v
    | Failed (e, bt) ->
      Mutex.unlock fut.fm;
      Printexc.raise_with_backtrace e bt
    | Pending ->
      Mutex.unlock fut.fm;
      (* Help: run a queued task of the pool instead of blocking. *)
      Mutex.lock t.lock;
      (match pop_live t with
      | Some task ->
        Mutex.unlock t.lock;
        Mpl_obs.Metrics.incr t.stats.helped;
        run_task t 0 task.run;
        loop ()
      | None ->
        Mutex.unlock t.lock;
        (* Nothing to help with: the awaited task is running on a
           worker. Block until some state change. The re-check under
           [fut.fm] before waiting prevents a lost wakeup. *)
        Mutex.lock fut.fm;
        (match fut.state with
        | Pending -> Condition.wait fut.fc fut.fm
        | Done _ | Failed _ -> ());
        Mutex.unlock fut.fm;
        loop ())
  in
  loop ()

(* Eager sweep: with dequeue-time-only checks a cancelled task would
   sit in the queue until a consumer reaches it (possibly never, on an
   idle pool). The sweep settles the drop accounting promptly so a
   teardown path can read [drops] right away. One O(queue) pass. *)
let discard_cancelled t =
  Mutex.lock t.lock;
  let kept = ref [] in
  let dropped = ref 0 in
  let rec drain () =
    match Heap.pop t.queue with
    | None -> ()
    | Some task ->
      (match task.cancel with
      | Some tok when cancelled tok ->
        drop_task t task;
        incr dropped
      | _ -> kept := task :: !kept);
      drain ()
  in
  drain ();
  List.iter (Heap.push t.queue) !kept;
  Mutex.unlock t.lock;
  !dropped

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  let join = not t.joined in
  t.joined <- true;
  Mutex.unlock t.lock;
  if join then Array.iter Domain.join t.domains

let with_pool ?obs ?fault ?bound ~jobs f =
  let t = create ?obs ?fault ?bound ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
