(* Zipfian sampler over [0, n), following the YCSB ZipfianGenerator
   (Gray et al., "Quickly generating billion-record synthetic databases",
   SIGMOD 1994).  The paper's evaluation drives YCSB with a "uniform
   Zipfian distribution": YCSB's default zipfian constant is 0.99, and
   we expose the constant so both skewed and near-uniform workloads can
   be produced.

   The sampler is O(1) per draw with YCSB's closed-form approximation.
   Setting it up sums the n-term harmonic series exactly, which is O(n);
   a sampler is immutable, so generators over one key space share it. *)

type t = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  zeta2theta : float;
  (* Exact inverse-CDF table for small n: cum.(k) = zeta(k+1, theta).
     The YCSB closed-form approximation is tuned for large key spaces
     and drifts by up to ~13% per-rank at n <= 64, which is exactly the
     regime our cluster/replica-indexed draws live in. *)
  cum : float array option;
}

let exact_max_n = 64

(* zeta(k, theta) = sum_{i=1..k} 1/i^theta.  Exact summation; for the
   sizes we use (<= 600k records, built once per key space and domain)
   this is fast enough and avoids approximation drift. *)
let zeta k theta =
  let acc = ref 0. in
  for i = 1 to k do
    acc := !acc +. (1. /. Float.pow (float_of_int i) theta)
  done;
  !acc

let build ~theta n =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if theta < 0. || theta >= 1. then invalid_arg "Zipf.create: theta must be in [0,1)";
  let zetan = zeta n theta in
  let zeta2theta = zeta 2 theta in
  let alpha = 1. /. (1. -. theta) in
  let eta =
    (1. -. Float.pow (2. /. float_of_int n) (1. -. theta))
    /. (1. -. (zeta2theta /. zetan))
  in
  let cum =
    if n > exact_max_n then None
    else begin
      let c = Array.make n 0. in
      let acc = ref 0. in
      for i = 0 to n - 1 do
        acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) theta);
        c.(i) <- !acc
      done;
      (* Pin the last entry so u = 1 - eps can never fall off the end
         to a rounding mismatch with zetan. *)
      c.(n - 1) <- zetan;
      Some c
    end
  in
  { n; theta; alpha; zetan; eta; zeta2theta; cum }

(* The last sampler built on this domain.  Every client group of a
   deployment asks for the same (n, theta), and building one sums n
   powers; a sampler is immutable, so they all share it.  Per domain:
   sweeps build deployments on parallel domains. *)
let last : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let create ?(theta = 0.99) n =
  let slot = Domain.DLS.get last in
  match !slot with
  | Some z when z.n = n && Float.equal z.theta theta -> z
  | _ ->
      let z = build ~theta n in
      slot := Some z;
      z

let cardinality t = t.n

(* One draw; returns a rank in [0, n), rank 0 being the most popular.
   Exactly one [Rng.float] call on every path, so workload streams stay
   byte-identical regardless of which branch serves a given n. *)
let sample t rng =
  let u = Rng.float rng in
  let uz = u *. t.zetan in
  match t.cum with
  | Some c ->
      (* Exact inverse CDF: least rank k with uz <= c.(k). *)
      let lo = ref 0 and hi = ref (t.n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if uz <= c.(mid) then hi := mid else lo := mid + 1
      done;
      !lo
  | None ->
      if uz < 1.0 then 0
      else if uz < 1.0 +. Float.pow 0.5 t.theta then 1
      else
        let v =
          float_of_int t.n
          *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha
        in
        let k = int_of_float v in
        if k >= t.n then t.n - 1 else if k < 0 then 0 else k

(* YCSB scrambles the zipfian rank through a hash so that the hot keys
   are spread over the key space rather than clustered at low ids. *)
let sample_scrambled t rng =
  let rank = sample t rng in
  let h = Splitmix64.mix (Int64.of_int rank) in
  Int64.to_int (Int64.rem (Int64.shift_right_logical h 1) (Int64.of_int t.n))
