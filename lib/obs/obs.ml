type t = { sink : Sink.t; metrics : Metrics.t }

let null = { sink = Sink.null; metrics = Metrics.null }

let make ?(sink = Sink.null) ?(metrics = Metrics.null) () = { sink; metrics }

let span t ?cat ?args ?late_args name f =
  Sink.span t.sink ?cat ?args ?late_args name f
