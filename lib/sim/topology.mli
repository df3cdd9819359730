(** Deployment topology: regions, the inter-region latency/bandwidth
    matrix, and node placement.  The built-in calibration is Table 1 of
    the paper: measured ping RTTs and bandwidths between Google Cloud
    machines in six regions (Oregon, Iowa, Montreal, Belgium, Taiwan,
    Sydney). *)

type region = { name : string; short : string }

val paper_regions : region array
(** The six regions, in the order the paper's experiments add them. *)

val paper_rtt_ms : float array array
(** Table 1 ping round-trip times (ms); symmetric; 0.5 intra-region. *)

val paper_bw_mbps : float array array
(** Table 1 bandwidths (Mbit/s); symmetric. *)

type t

val n_nodes : t -> int
val n_regions : t -> int
val region_of : t -> int -> int
val same_region : t -> int -> int -> bool

val rtt_ms : t -> a:int -> b:int -> float
val bw_mbps : t -> a:int -> b:int -> float
(** Between the regions of nodes [a] and [b]. *)

val region_one_way_ms : t -> ra:int -> rb:int -> float
(** Half the round-trip time between two regions. *)

val region_bw_mbps : t -> ra:int -> rb:int -> float

val min_cross_region_one_way_ms : t -> float
(** Smallest one-way latency between two distinct regions — the
    conservative-DES lookahead for cluster-per-region sharding.
    [infinity] for single-region topologies. *)

val of_paper : n_regions:int -> node_region:int array -> t
(** Topology over the first [n_regions] paper regions with an explicit
    node placement.  Beyond six regions the Table 1 matrix tiles:
    region [i] inherits paper region [i mod 6], and distinct regions
    sharing a paper slot sit 10 ms RTT apart at intra-continent
    bandwidth (nearby datacenters of the same geography) — the z=30+
    scaling axis.
    @raise Invalid_argument if [n_regions < 1] or a node's region is
    out of range. *)

val clustered : z:int -> n:int -> t
(** The experiments' standard placement: [z] clusters of [n] replicas,
    cluster [c] in region [c] (node ids [c*n .. c*n+n-1]), plus one
    client-group node per cluster ([z*n + c]) co-located with it. *)

val uniform :
  n_regions:int ->
  rtt_ms:float ->
  bw_mbps:float ->
  local_rtt_ms:float ->
  local_bw_mbps:float ->
  node_region:int array ->
  t
(** Synthetic topology with uniform inter-region characteristics. *)
