(** Modular arithmetic over the 61-bit Mersenne prime p = 2^61 - 1:
    the substrate for {!Schnorr}.

    Native ints throughout: every quantity stays below 2^62, so nothing
    overflows 63-bit OCaml ints and nothing allocates on the hot
    verification path. *)

val p : int
(** 2^61 - 1. *)

val order_int : int
(** |Z_p^*| = p - 1. *)

val add_mod_int : int -> int -> int -> int
(** [add_mod_int m a b] is [a + b mod m] for [a, b] in [0, m), m < 2^62. *)

val mul_int : int -> int -> int
(** [mul_int a b] for [a, b] in [0, p): ~20 integer ops, no allocation. *)

val mul_mod_int : int -> int -> int -> int
(** General-modulus multiply (double-and-add) for moduli < 2^61. *)

val pow_int : int -> int -> int

val inv_int : int -> int
(** Multiplicative inverse via Fermat.
    @raise Invalid_argument on zero. *)
