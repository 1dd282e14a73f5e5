(** Fixed-size domain pool around one bounded priority queue.

    Built on OCaml 5 [Domain] / [Mutex] / [Condition] only — no external
    dependencies. Designed for the coarse-grained tasks of the
    decomposition engine (one task = one divided leaf piece), so the
    queue shares a single lock: task bodies run for microseconds to
    seconds and queue operations are never the bottleneck.

    The queue is a max-heap on (priority, submission order): higher
    priority runs first, FIFO among equal priorities — so with the
    default priority 0 tasks execute in exact submission order and
    [jobs = 1] degenerates to deterministic sequential execution. The
    queue is bounded ({!create}'s [bound]); a submission that finds it
    full helps run queued tasks from the calling thread until there is
    room, which caps memory under a fast streaming producer without
    ever blocking on a condition (deadlock-free at any [jobs]).

    A pool with [jobs = j] runs up to [j] tasks concurrently: [j - 1]
    worker domains plus the calling thread, which helps execute queued
    tasks whenever it blocks in {!await}. Each task resolves its own
    future, so a caller that awaits futures in submission order sees
    results in that order regardless of which worker ran which task. *)

type t

type token
(** A cancellation token shared by every task submitted with it —
    one token per request in the server. Cancellation is observed at
    dequeue time: a cancelled task is dropped in O(1) instead of
    running, and its future resolves to [Failed Cancelled]; a task
    already running is unaffected (its result is simply discarded by
    the cancelled consumer). A token may carry a deadline instant
    ({!arm_deadline}), past which it reads as cancelled. Thread-safe. *)

exception Cancelled
(** Raised by {!await} on a future whose task was dropped. *)

val token : unit -> token

val cancel : token -> unit
(** Flag the token. Queued tasks carrying it will be dropped at
    dequeue (or eagerly by {!discard_cancelled}); already-running
    tasks finish normally. Idempotent, and a no-op on a token whose
    deadline has already tripped. *)

val arm_deadline : token -> float -> unit
(** [arm_deadline tok s] makes [tok] expire [s] seconds from now on
    the monotonic clock (re-arming replaces the instant). *)

val cancelled : token -> bool
(** Flagged by {!cancel}, or past its deadline. The first check past
    the deadline latches the token, so the clock is read only until it
    trips; a token without a deadline never reads the clock. *)

val expired : token -> bool
(** The token was cancelled by its deadline, not by {!cancel}:
    whichever landed first decides. *)

val drops : token -> int
(** Tasks dropped without running so far on this token. *)

val discard_cancelled : t -> int
(** Sweep the queue, dropping every task whose token is cancelled —
    resolving their futures and counting the drops — and return the
    number of tasks dropped by this sweep. Without the sweep a
    cancelled task is only dropped when a consumer would otherwise run
    it, which on an idle pool may be never; teardown paths call this to
    settle {!drops} accounting promptly. O(queue length). *)

val create :
  ?obs:Mpl_obs.Obs.t ->
  ?fault:Fault.t ->
  ?bound:int ->
  jobs:int ->
  unit ->
  t
(** [create ~jobs ()] spawns [jobs - 1] worker domains. [bound]
    (default 1024) caps the number of queued-but-unstarted tasks; a
    full queue applies backpressure by making {!submit} help run tasks
    first. When [obs] carries an enabled metrics registry, the pool
    maintains [pool.submitted], [pool.helped], [pool.backpressure],
    [pool.idle_waits], [pool.dropped] counters plus a
    [pool.worker<i>.busy_ns] wall-time counter per worker slot (slot 0
    is the calling thread helping in {!await} or under backpressure);
    without it every probe is a no-op and no clock is read.
    When [fault] is armed for {!Fault.Worker_delay}, the selected task
    executions are delayed by ~5 ms before running (outputs must be
    unaffected — only schedules are perturbed).
    @raise Invalid_argument if [jobs < 1] or [bound < 1]. *)

val jobs : t -> int

val bound : t -> int
(** The queue bound the pool was created with. *)

val queue_depth : t -> int
(** Number of tasks currently waiting in the queue (excludes tasks
    already running on workers). Point-in-time: taken under the pool
    lock, stale by the time the caller looks at it — meant for
    admission gates and gauges, not synchronization. *)

type 'a future

val submit : ?priority:int -> ?cancel:token -> t -> (unit -> 'a) -> 'a future
(** Enqueue a task. Higher [priority] (default 0) runs first; equal
    priorities run in submission order. If the queue is at its bound
    the calling thread first helps run queued tasks (backpressure).
    Tasks must not themselves call {!submit} or {!await} on the same
    pool. When [cancel] is given and the token is cancelled before the
    task is dequeued, the task never runs and {!await} raises
    {!Cancelled}.
    @raise Invalid_argument if the pool was shut down. *)

val await : t -> 'a future -> 'a
(** Block until the task finished, running other queued tasks of the
    pool while waiting. Re-raises the task's exception if it failed,
    preserving the backtrace captured at the original raise site. A
    failure is confined to its own future: other futures of the pool
    still resolve to their own results. *)

val shutdown : t -> unit
(** Join all worker domains. Idempotent. Pending never-awaited tasks
    are discarded. *)

val with_pool :
  ?obs:Mpl_obs.Obs.t ->
  ?fault:Fault.t ->
  ?bound:int ->
  jobs:int ->
  (t -> 'a) ->
  'a
(** [create], run, then [shutdown] (also on exception). *)
