(** Binary min-heap of timestamped events, keyed by (time, sequence
    number) so that ties break in insertion order — the property that
    makes the simulation deterministic.

    Payloads live in a slot table that never moves; the heap itself is
    three int arrays (time, seq, slot), so a sift moves only immediates
    and never runs the GC write barrier.  The {!entry} record is
    materialised only by {!peek}/{!pop}. *)

type 'a entry = { time : int; seq : int; payload : 'a }

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** Allocates nothing once the heap has grown to its peak size. *)

val min_time : 'a t -> int
(** Root timestamp without allocating; [max_int] when empty. *)

val peek : 'a t -> 'a entry option
val pop : 'a t -> 'a entry option

val pop_payload : 'a t -> 'a
(** Remove the least entry and return its payload without allocating
    (read its time with {!min_time} first).
    @raise Invalid_argument on an empty heap. *)
