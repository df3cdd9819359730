(** Zipfian sampler over [0, n) following YCSB's ZipfianGenerator
    (Gray et al., SIGMOD 1994).  The paper's workload draws keys from a
    scrambled Zipfian over a 600k-record table (§4). *)

type t

val create : ?theta:float -> int -> t
(** [create ~theta n] prepares a sampler over ranks [0..n-1].  [theta]
    is YCSB's zipfian constant (default 0.99; 0 is uniform).

    For [n <= 64] the sampler uses an exact inverse-CDF table (the YCSB
    closed-form approximation drifts by up to ~13% per rank at those
    sizes); larger [n] keeps the O(1) approximation.  Both paths
    consume exactly one RNG draw per sample.  Samplers are immutable;
    a call with the same [n] and [theta] as the domain's previous one
    returns that sampler instead of building another.
    @raise Invalid_argument unless [n > 0] and [0 <= theta < 1]. *)

val sample : t -> Rng.t -> int
(** One draw; rank 0 is the most popular. *)

val sample_scrambled : t -> Rng.t -> int
(** Like {!sample}, with ranks hashed over the key space so hot keys
    are spread out (YCSB's scrambled zipfian). *)
