(** Growable flat buffer of ints.

    The allocation-free building block for CSR graph construction: edge
    streams are pushed into two parallel [Intbuf.t]s (endpoints) instead
    of consing [(int * int) list] cells, then compiled into offset and
    neighbor arrays in two passes. Doubling growth gives amortized O(1)
    pushes with no per-element boxing. *)

type t

val create : unit -> t
(** Empty buffer, with room for 16 ints before its first growth. *)

val length : t -> int
val clear : t -> unit
(** Reset the length to zero; the backing array is retained. *)

val unsafe_get : t -> int -> int
(** Unchecked read of a slot below [length]. *)

val push : t -> int -> unit
(** Append one element, growing the backing array as needed. *)

val data : t -> int array
(** The current backing array. Only the first [length] slots are
    meaningful; the reference is invalidated by the next growing
    [push]. *)

val iter : t -> (int -> unit) -> unit
