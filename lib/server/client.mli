(** Blocking client for the {!Proto} protocol, used by [mpld client]
    and the test suite. One {!t} is one connection; requests on it are
    strictly sequential (send, then read the full reply stream). *)

type t

val connect_unix : string -> t
(** Connect to a Unix-domain socket path.
    @raise Unix.Unix_error on failure. *)

val connect_tcp : string -> int -> t
(** Connect to host:port.
    @raise Unix.Unix_error or [Not_found] (unresolvable host). *)

val close : t -> unit

type outcome = {
  colors : int array;  (** the full coloring, original vertex indexing *)
  rid : int option;
      (** the server-assigned request id from [ACK rid=N]; key for the
          admin plane's [/trace?id=] *)
  streamed_pieces : int;  (** [PIECE] lines received before [DONE] *)
  streamed_cells : int;  (** vertices covered by those lines *)
  streams_consistent : bool;
      (** every streamed [(vertex, color)] matched the final coloring *)
  cost : Proto.cost_reply;
  engine : Mpl_engine.Engine.stats option;
  resilience : Proto.resilience_reply;
  cache : Proto.cache_reply option;
  reused : (int * int * int) option;
      (** [REDECOMPOSE] only: (components reused verbatim, components
          re-solved, features re-solved) from the [REUSED] line *)
}

type error =
  | Busy of int * int  (** admission control: in-flight, limit *)
  | Timed_out of { deadline_ms : int; elapsed_ms : int }
      (** the server's [TIMEOUT] terminal: the request's deadline
          expired server-side before its assignment finished *)
  | Cancelled of string  (** the server's [CANCELLED <reason>] terminal *)
  | Remote of { code : string; line : int option; msg : string }
      (** the server's [ERR] reply *)
  | Protocol of string  (** malformed reply / unexpected disconnect *)

val error_to_string : error -> string

val retryable : error -> bool
(** Is retrying the identical request reasonable? [true] for {!Busy}
    (admission pressure) and {!Protocol} (torn replies / dropped
    connections — transport trouble, not request trouble); [false] for
    {!Remote} (deterministic rejection), {!Timed_out} and {!Cancelled}
    (an identical retry would meet the same deadline). *)

val transient_connect_error : exn -> bool
(** Is this exception from {!connect_unix} / {!connect_tcp} worth
    retrying (connection refused / reset / socket file not there yet)?
    [false] for anything that is not a transient [Unix_error]. *)

val backoff_schedule : base_ms:int -> retries:int -> unit -> float list
(** [backoff_schedule ~base_ms ~retries ()] is the sleep (in seconds)
    before each retry: capped exponential ([base_ms * 2^i], capped at
    2000 ms) with deterministic ±25% jitter drawn from a fixed-seed
    SplitMix64 stream — identical arguments yield an identical
    schedule. *)

val decompose :
  t -> ?request:Proto.request -> string -> (outcome, error) result
(** [decompose t body] submits the layout text [body] with the given
    request parameters (default {!Proto.default_request}) and reads
    replies until [DONE], [ERR] or [BUSY]. *)

val redecompose :
  t -> ?request:Proto.request -> hash:string -> string -> (outcome, error) result
(** [redecompose t ~hash body] submits the edit script [body] (in
    [Mpl.Eco] text format) against the server-side session keyed by the
    base layout's [hash] and the request's cache-mode salt, and reads
    replies until [DONE], [ERR] or [BUSY]. The server streams only the
    re-solved (dirty) pieces; [outcome.colors] is still the full
    coloring of the edited layout, and [outcome.reused] reports how
    much was reused. A missing session surfaces as [Remote] with code
    ["session"] — fall back to {!decompose}. *)

val stats : t -> (string, error) result
(** The admin [STATS] JSON line. *)

val metrics : t -> (string, error) result
(** The admin [METRICS] JSON line. *)

val ping : t -> bool
(** [PING] round-trip; [false] on any protocol failure. *)

val quit : t -> unit
(** Send [QUIT] (starting a graceful server shutdown) and wait for
    [BYE] (or the connection to drop). *)

val http : t -> string -> (int * string, error) result
(** [http t path] issues [GET path HTTP/1.0] on the connection and
    returns the status code and response body. The server closes the
    connection after one HTTP response, so the client is spent —
    {!close} it and connect again for further requests. *)
