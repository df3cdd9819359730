(** Binary min-heap of timestamped events, keyed by (time, sequence
    number) so that ties break in insertion order — the property that
    makes the simulation deterministic.

    Internally three parallel arrays (no boxed entry per element, no
    boxed int64 key comparisons); the {!entry} record is materialized
    only by {!peek}/{!pop}. *)

type 'a entry = { time : int64; seq : int; payload : 'a }

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:int64 -> seq:int -> 'a -> unit

val min_time : 'a t -> int64
(** Root timestamp without allocating; [Int64.max_int] when empty. *)

val min_key : 'a t -> int
(** Same as {!min_time} as a native int; [max_int] when empty. *)

val peek : 'a t -> 'a entry option
val pop : 'a t -> 'a entry option

val pop_payload : 'a t -> 'a
(** Remove the least entry and return its payload without allocating
    (read its time with {!min_time} first).
    @raise Invalid_argument on an empty heap. *)
