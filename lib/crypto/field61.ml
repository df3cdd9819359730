(* Modular arithmetic over the 61-bit Mersenne prime p = 2^61 - 1.

   This is the arithmetic substrate for the repo's Schnorr signatures
   (see [Schnorr] and the substitution table in DESIGN.md: the paper
   uses ED25519; this container has no big-integer or crypto library,
   so we implement a structurally-faithful but non-cryptographic
   signature scheme over a small field, and model ED25519's *cost*
   separately in the simulator's CPU model).

   All arithmetic is on native 63-bit OCaml ints: every quantity stays
   below 2^62 (products are split into 31/30-bit halves), so nothing
   overflows and — unlike Int64 — nothing allocates.  The simulator
   verifies millions of signatures per run; boxing made this module the
   hottest allocation site in early profiles. *)

let p = 0x1FFF_FFFF_FFFF_FFFF (* 2^61 - 1 *)

(* Group order of Z_p^*: p - 1. *)
let order_int = p - 1

(* a + b mod m; safe for m < 2^62 (sums stay below max_int = 2^62-1). *)
let add_mod_int m a b =
  let s = a + b in
  if s >= m then s - m else s

let add_int a b = add_mod_int p a b

(* a * b mod p for a, b in [0, p): split both into 31/30-bit halves so
   every partial product fits 62 bits, then fold with 2^61 = 1 mod p. *)
let mul_int a b =
  let a1 = a lsr 31 and a0 = a land 0x7FFF_FFFF in
  let b1 = b lsr 31 and b0 = b land 0x7FFF_FFFF in
  (* a*b = a1*b1*2^62 + (a1*b0 + a0*b1)*2^31 + a0*b0;  2^62 = 2 mod p *)
  let t1 = a1 * b1 * 2 mod p in
  let mid = (a1 * b0 mod p) + (a0 * b1 mod p) in
  let mid = if mid >= p then mid - p else mid in
  (* mid * 2^31 mod p: mid = mh*2^30 + ml, so mid*2^31 = mh*2^61 + ml*2^31 *)
  let mh = mid lsr 30 and ml = mid land 0x3FFF_FFFF in
  let t2 = (mh + (ml lsl 31)) mod p in
  let t3 = a0 * b0 mod p in
  add_int (add_int t1 t2) t3

(* a * b mod m for a general modulus m < 2^61 (exponent arithmetic mod
   the group order): double-and-add, a handful of calls per signature. *)
let mul_mod_int m a b =
  if m = p then mul_int (a mod p) (b mod p)
  else begin
    let a = ref (a mod m) and b = ref (b mod m) in
    let acc = ref 0 in
    while !b > 0 do
      if !b land 1 = 1 then acc := add_mod_int m !acc !a;
      a := add_mod_int m !a !a;
      b := !b lsr 1
    done;
    !acc
  end

let pow_int a e =
  let a = ref (a mod p) and e = ref e in
  let acc = ref 1 in
  while !e > 0 do
    if !e land 1 = 1 then acc := mul_int !acc !a;
    a := mul_int !a !a;
    e := !e lsr 1
  done;
  !acc

let inv_int a =
  if a = 0 then invalid_arg "Field61.inv: zero has no inverse";
  pow_int a (p - 2)
