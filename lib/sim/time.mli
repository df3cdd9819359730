(** Simulated time: nanoseconds since the start of the run, as a native
    int.  Integer time keeps the simulation exactly deterministic while
    representing everything from microsecond CPU costs to minutes-long
    runs.  The type is an immediate, so storing a time allocates nothing
    and comparing two is one machine instruction.

    Range: a 63-bit int holds up to 2^62 - 1 ns, about 146 years of
    simulated time.  The module refuses to initialise on a platform
    whose native ints are narrower than 63 bits. *)

type t = int

val zero : t

val ns : int -> t
val us : int -> t
val ms : int -> t
val sec : int -> t

val of_us_f : float -> t
val of_ms_f : float -> t
(** Truncate toward zero. *)

val to_ms_f : t -> float
val to_sec_f : t -> float

(** Arithmetic and comparison are primitives, so they compile to
    inline integer instructions at every call site. *)

external add : t -> t -> t = "%addint"
external sub : t -> t -> t = "%subint"
external compare : t -> t -> int = "%compare"
external ( < ) : t -> t -> bool = "%lessthan"
external ( <= ) : t -> t -> bool = "%lessequal"
external ( > ) : t -> t -> bool = "%greaterthan"
external ( >= ) : t -> t -> bool = "%greaterequal"

val max : t -> t -> t
val min : t -> t -> t

val pp : Format.formatter -> t -> unit
