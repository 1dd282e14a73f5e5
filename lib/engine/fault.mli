(** Deterministic, seedable fault injection for the engine and the
    decomposition pipeline.

    A fault {!spec} names one {!site} and a seed. Arming it yields an
    injector that fires at the site's occurrence number [seed mod 8]
    (0-based, counted across the run) and at the [shots - 1] following
    occurrences — so a single spec describes exactly which solve /
    store / task the fault hits. With one worker the firing point is
    fully deterministic; with several, the same occurrences fire but
    their global interleaving may vary. An unarmed injector ({!none})
    never fires and costs one branch per probe.

    Sites:
    - [Solver_raise]: the per-piece solver raises {!Injected} instead of
      solving — exercises the fallback ladder.
    - [Worker_delay]: a pool task is delayed ~5 ms before running —
      perturbs work-stealing schedules; must never change outputs.
    - [Cache_corrupt]: a cache store writes a corrupted coloring (its
      integrity checksum is computed first, so probes detect and drop
      the entry) — exercises cache-hit validation.
    - [Budget_trip]: the shared solver budget is force-expired before an
      exact solve — exercises budget-free heuristic fallback.

    Network sites (probed by the server's connection I/O layer; an
    occurrence is one send, flush, or body-read operation on the armed
    site):
    - [Conn_drop]: the connection is shut down at a send or body-read —
      models a client vanishing mid-request.
    - [Write_stall]: a flush reports an exhausted write deadline without
      sleeping — models a reader that stops draining its socket.
    - [Torn_frame]: a flush writes only the first half of its buffer and
      then shuts the connection down — models a mid-frame disconnect. *)

type site =
  | Solver_raise
  | Worker_delay
  | Cache_corrupt
  | Budget_trip
  | Conn_drop
  | Write_stall
  | Torn_frame

type spec = { site : site; seed : int; shots : int }

exception Injected of site
(** What a [Solver_raise] injection raises. *)

val site_name : site -> string

val spec_to_string : spec -> string

val parse : string -> (spec, string) result
(** Parse a CLI fault spec: [SITE[:seed=N][:shots=N]], e.g.
    ["solver_raise:seed=7"] or ["cache_corrupt"]. Defaults:
    [seed = 0], [shots = 1]. *)

type t
(** An armed (or inert) injector. Thread-safe. *)

val none : t
(** Never fires. *)

val arm : spec -> t

val fires : t -> site -> bool
(** [fires t site] records one eligible occurrence of [site] (when it
    is the armed site) and reports whether the fault fires here. *)

val fired : t -> bool
(** Did any occurrence fire so far? *)

val fire_count : t -> int

val delay : unit -> unit
(** Busy-wait 5 ms; the [Worker_delay] payload. *)
