(** Exporters for traces and metrics.

    - Chrome [trace_event] JSON (the ["traceEvents"] object form with
      complete ["ph": "X"] events), loadable in [chrome://tracing] or
      {{:https://ui.perfetto.dev}Perfetto};
    - a flat JSON metrics summary and a human-readable text rendering;
    - a validator for emitted traces, used by the test suite and the
      [mpld trace-check] CI smoke step. *)

val chrome_json : ?process_name:string -> Sink.event list -> string
(** Chrome trace JSON: timestamps/durations in microseconds, one
    ["X"] event per span, thread ids from the originating domain, plus
    process/thread-name metadata events. *)

val write_chrome : ?process_name:string -> string -> Sink.event list -> unit
(** [write_chrome file events] writes {!chrome_json} to [file]. *)

val metrics_json : Metrics.snapshot -> Json.t
(** [{"counters": {..}, "gauges": {..}, "histograms": {name:
    {"count","sum","min","max","buckets":[[lo,hi,n],..]}, ..}}] *)

val pp_metrics : Format.formatter -> Metrics.snapshot -> unit
(** Aligned text rendering, one metric per line, histograms with
    count/sum/mean/min/max. *)

val prometheus : ?namespace:string -> Metrics.snapshot -> string
(** Prometheus text exposition (format 0.0.4) of a snapshot. Metric
    names are prefixed with [namespace] (default ["mpl"]) and
    sanitized (characters outside [[a-zA-Z0-9_:]] become ['_']).
    Counters and gauges emit a [# TYPE] line plus one sample;
    histograms emit cumulative [_bucket{le="..."}] samples over the
    non-empty log2 buckets, a closing [le="+Inf"] bucket, [_sum] and
    [_count]. *)

val validate_prometheus : string -> (int, string) result
(** Check a text exposition body: every sample line parses (metric
    name charset, label-set syntax, float-parseable value), every
    sample belongs to a preceding [# TYPE] family (histogram/summary
    samples may use the [_bucket]/[_sum]/[_count] suffixes), no family
    is declared twice, and each histogram family has non-decreasing
    [le]s with cumulative counts, a final [le="+Inf"] bucket, and a
    [_count] equal to it. Returns the number of samples on success. *)

val phase_totals : Sink.event list -> (string * (int * float)) list
(** Aggregate [(count, total seconds)] per span name, sorted by total
    descending. Nested spans of the same name all count, so this is a
    self-time-inclusive rollup per name. *)

val pp_phases : Format.formatter -> Sink.event list -> unit
(** Text rendering of {!phase_totals}. *)

val validate_chrome :
  ?required:string list -> string -> (int, string) result
(** [validate_chrome ~required s] parses [s] as JSON and checks it is a
    well-formed Chrome trace ({"traceEvents": [...]} with name/ph/ts on
    every event, ts+dur on every ["X"] event, and no key twice in an
    event's [args]), and that every name in [required] occurs as a span
    name. Returns the number of span events on success. *)
