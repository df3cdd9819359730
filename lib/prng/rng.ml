(* Deterministic pseudo-random stream used throughout the simulator.

   The core generator is xoshiro256** (Blackman & Vigna, 2018): fast,
   high quality, 256-bit state, and — crucially for a deterministic
   discrete-event simulator — fully reproducible across platforms since
   it only uses 64-bit integer arithmetic.  State is seeded from
   SplitMix64 as recommended by the authors. *)

(* The four state words s0..s3, little-endian at byte offsets 0, 8, 16
   and 24: unboxed, so a draw reads and writes them without allocating
   (the network takes one draw per delivered message). *)
type t = Bytes.t

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let create seed =
  let sm = Splitmix64.create seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_le t (8 * i) (Splitmix64.next sm)
  done;
  t

let copy = Bytes.copy

(* Derive a decorrelated child stream, e.g. one per replica. *)
let split t ~index =
  create
    (Splitmix64.split_seed
       ~seed:(Int64.logxor (Bytes.get_int64_le t 0) (Bytes.get_int64_le t 24))
       ~index)

let[@inline] next_int64 t =
  let s0 = Bytes.get_int64_le t 0 and s1 = Bytes.get_int64_le t 8 in
  let s2 = Bytes.get_int64_le t 16 and s3 = Bytes.get_int64_le t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tt = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  Bytes.set_int64_le t 8 (Int64.logxor s1 s2);
  Bytes.set_int64_le t 0 (Int64.logxor s0 s3);
  Bytes.set_int64_le t 16 (Int64.logxor s2 tt);
  Bytes.set_int64_le t 24 (rotl s3 45);
  result

(* Uniform float in [0, 1): use the top 53 bits, the standard trick for
   filling a double's mantissa without bias. *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

(* Uniform int in [0, bound): rejection-free Lemire-style reduction is
   overkill here; modulo bias is negligible for bound << 2^63 and we
   keep the simple, obviously-deterministic form. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next_int64 t) 1) (Int64.of_int bound))

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Exponentially distributed sample with the given mean (inverse-CDF). *)
let exponential t ~mean =
  let u = float t in
  -. mean *. log (1. -. u)

(* Sample uniformly from [lo, hi). *)
let float_range t ~lo ~hi = lo +. ((hi -. lo) *. float t)

(* Fisher-Yates shuffle of an array, in place. *)
let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Pick one element uniformly. *)
let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))
