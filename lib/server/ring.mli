(** Bounded in-memory ring of recent request summaries.

    The server appends one {!entry} per finished [DECOMPOSE] (whatever
    the outcome); the newest [capacity] entries survive. Served over
    the admin plane as [/requests] (summaries) and [/trace?id=] (one
    entry's captured span trace). Thread-safe. *)

type entry = {
  id : int;  (** server-assigned request id (the [ACK rid=] value) *)
  circuit : string;  (** layout name, [""] when the body never parsed *)
  algo : string;  (** protocol spelling, e.g. ["linear"] *)
  k : int;
  bytes : int;  (** request body length *)
  pieces : int;  (** engine pieces (0 when not solved) *)
  cache_hits : int;
  queue_wait_ns : int64;  (** receipt to admission *)
  first_piece_ns : int64;  (** admission to first streamed piece; [-1L] if none *)
  solve_ns : int64;  (** decompose call duration *)
  total_ns : int64;  (** receipt to full reply written *)
  degraded : int;  (** degraded pieces (resilience) *)
  outcome : string;
      (** ["ok"], ["busy"], ["parse"], ["error"], ["timeout"],
          ["cancelled"] or ["disconnected"] *)
  trace : Mpl_obs.Sink.event list;
      (** per-request spans, capped; [[]] unless request tracing is on *)
}

type t

val create : int -> t
(** [create capacity].
    @raise Invalid_argument if [capacity < 1]. *)

val capacity : t -> int

val add : t -> entry -> unit
(** Append, evicting the oldest entry once full. *)

val entries : t -> entry list
(** Live entries, newest first. *)

val find : t -> int -> entry option
(** Entry by request id. *)
