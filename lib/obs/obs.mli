(** The observability context threaded through the decomposition
    pipeline: one trace {!Sink} plus one {!Metrics} registry.

    Every instrumented function takes an optional [?obs] defaulting to
    {!null}, whose sink and registry are both disabled — the
    uninstrumented path costs a branch per probe and allocates nothing,
    preserving bit-identical outputs. *)

type t = { sink : Sink.t; metrics : Metrics.t }

val null : t
(** Disabled sink and disabled registry. *)

val make : ?sink:Sink.t -> ?metrics:Metrics.t -> unit -> t
(** Missing components default to their disabled versions. *)

val span : t -> ?cat:string -> ?args:(string * Sink.arg) list ->
  ?late_args:(unit -> (string * Sink.arg) list) -> string ->
  (unit -> 'a) -> 'a
(** {!Sink.span} on the context's sink. *)
