(** Deterministic pseudo-random stream (the xoshiro256** generator).

    The simulator's only randomness source: reproducible across
    platforms (pure 64-bit integer arithmetic), splittable into
    decorrelated per-node streams. *)

type t

val create : int64 -> t
(** [create seed] builds a stream seeded via SplitMix64. *)

val copy : t -> t
(** Independent copy continuing from the same state. *)

val split : t -> index:int -> t
(** Derive a decorrelated child stream (e.g. one per replica) without
    advancing the parent. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform in [0, 1) using 53 mantissa bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val float_range : t -> lo:float -> hi:float -> float
(** Uniform in [lo, hi). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly random element.
    @raise Invalid_argument on an empty array. *)
