(* Simulated time: nanoseconds since the start of the run, as a native
   int.

   Nanosecond granularity keeps every quantity in the model (CPU costs
   of a few microseconds, WAN latencies of hundreds of milliseconds,
   runs of minutes) exactly representable, and integer time makes the
   simulation bit-for-bit deterministic.  A native int is an immediate:
   the engine stores times in arrays and records without boxing them,
   and every comparison below is a single integer compare.  2^62 ns is
   ~146 years, far beyond any run. *)

let () =
  if Sys.int_size < 63 then
    failwith
      (Printf.sprintf
         "Rdb_sim.Time: simulated time needs 63-bit native ints, but this platform has %d-bit \
          ints"
         Sys.int_size)

type t = int

let zero = 0
let ns n : t = n
let us n : t = n * 1_000
let ms n : t = n * 1_000_000
let sec n : t = n * 1_000_000_000

let of_us_f (x : float) : t = int_of_float (x *. 1e3)
let of_ms_f (x : float) : t = int_of_float (x *. 1e6)

let to_ms_f (t : t) : float = float_of_int t /. 1e6
let to_sec_f (t : t) : float = float_of_int t /. 1e9

external add : t -> t -> t = "%addint"
external sub : t -> t -> t = "%subint"
external compare : t -> t -> int = "%compare"
external ( < ) : t -> t -> bool = "%lessthan"
external ( <= ) : t -> t -> bool = "%lessequal"
external ( > ) : t -> t -> bool = "%greaterthan"
external ( >= ) : t -> t -> bool = "%greaterequal"
let max (a : t) (b : t) : t = if a >= b then a else b
let min (a : t) (b : t) : t = if a <= b then a else b

let pp fmt (t : t) = Format.fprintf fmt "%.3fms" (to_ms_f t)
