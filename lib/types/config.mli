open Import

(** Deployment configuration shared by every protocol and the fabric:
    cluster layout, quorums, timers, and the calibrated cost model
    (DESIGN.md §7).

    Layout (matching §4's experiments): [z] clusters of [n] replicas;
    cluster [c] occupies region [c]; replica [i] of cluster [c] is
    global node [c*n + i]; cluster [c]'s client group is node
    [z*n + c], co-located with it. *)

type costs = {
  sign_us : float;          (** ED25519-class signature generation *)
  verify_us : float;        (** ED25519-class signature verification *)
  mac_us : float;           (** AES-CMAC generate or verify *)
  hash_us_per_kb : float;   (** SHA-256 digest throughput *)
  exec_us_per_txn : float;  (** YCSB write + ledger append *)
  batch_asm_us : float;     (** batch assembly on the batching thread *)
  threshold_partial_us : float;  (** threshold-RSA partial signature (Steward) *)
  threshold_combine_us : float;  (** threshold-RSA share combination *)
}

val default_costs : costs

type storage = Memory | Disk
(** Storage backend under each replica's App state machine: in-memory
    Bigarray table, or the append-only persistent block store
    (file-backed block log + periodic snapshots, recovery-on-restart).
    Deterministic either way: same batch sequence, same state digest. *)

type t = {
  z : int;                    (** clusters (regions) *)
  n : int;                    (** replicas per cluster *)
  batch_size : int;           (** transactions per batch *)
  checkpoint_interval : int;  (** Pbft checkpoint period, in transactions *)
  pipeline_depth : int;       (** max in-flight local consensus instances *)
  local_timeout_ms : float;   (** Pbft view-change timer *)
  remote_timeout_ms : float;  (** GeoBFT remote failure-detection timer *)
  client_inflight : int;      (** outstanding batches per client group *)
  client_timeout_ms : float;  (** client retransmission timer *)
  clients : int;
      (** Aggregate client population modeled across the deployment,
          split over the z per-cluster groups; 0 (default) = the legacy
          closed-loop model ([client_inflight] outstanding batches per
          group, 1000-client id space).  Group work is one event per
          batch tick regardless of population, so sweeps can represent
          millions of clients.  See {!group_population},
          {!group_inflight}, {!client_id_stride}. *)
  wan_egress_mbps : float;    (** per-node aggregate WAN egress cap *)
  geobft_fanout : int;        (** GeoBFT sharing fan-out; 0 = f+1 (paper) *)
  threshold_certs : bool;     (** §2.2 optional threshold-signature certificates *)
  read_fraction : float;      (** fraction of client batches that are point reads *)
  scan_fraction : float;      (** fraction of client batches that are range scans *)
  storage : storage;          (** backend under the App state machine *)
  costs : costs;
  seed : int;
}

val default : t

val make :
  ?base:t ->
  ?z:int ->
  ?n:int ->
  ?batch_size:int ->
  ?client_inflight:int ->
  ?clients:int ->
  ?read_fraction:float ->
  ?scan_fraction:float ->
  ?storage:storage ->
  ?seed:int ->
  unit ->
  t

val storage_name : storage -> string
val storage_of_string : string -> storage option

(** {1 Client-group aggregation} *)

val group_population : t -> cluster:int -> int
(** Clients modeled by cluster [cluster]'s group: [clients/z] (+1 for
    the first [clients mod z] clusters), or the legacy 1000 when
    [clients] is 0. *)

val group_inflight : t -> cluster:int -> int
(** Outstanding batches the group keeps in flight:
    max(client_inflight, population/batch_size) — or exactly
    [client_inflight] when [clients] is 0 (the legacy model). *)

val client_id_stride : t -> int
(** Distance between consecutive groups' client-id bases (≥ the legacy
    10_000; wide enough that id ranges never overlap). *)

(** {1 Fault tolerance and quorums} *)

val f : t -> int
(** Byzantine replicas tolerated per cluster: (n-1)/3 (n > 3f). *)

val quorum : t -> int
(** n − f: the prepare/commit quorum. *)

val weak_quorum : t -> int
(** f + 1: guarantees at least one non-faulty member. *)

val share_fanout : t -> int
(** GeoBFT inter-cluster sharing fan-out (paper: f+1). *)

(** {1 Node layout} *)

val n_replicas : t -> int
val n_nodes : t -> int

val cluster_of_replica : t -> int -> int
val local_index : t -> int -> int
val replica_id : t -> cluster:int -> index:int -> int
val replicas_of_cluster : t -> int -> int list
val is_replica : t -> int -> bool

val client_node : t -> cluster:int -> int
val is_client : t -> int -> bool
val cluster_of_client : t -> int -> int
val cluster_of_node : t -> int -> int

val primary : t -> cluster:int -> view:int -> int
(** Round-robin primary of a cluster in a view, as in Pbft. *)

(** {1 Modeled CPU costs} *)

val sign_cost : t -> Time.t
val verify_cost : t -> Time.t
val hash_cost : t -> bytes:int -> Time.t
val exec_cost : t -> txns:int -> Time.t
val batch_asm_cost : t -> Time.t
val threshold_partial_cost : t -> Time.t
val threshold_combine_cost : t -> Time.t

val cert_verify_cost : t -> Time.t
(** Verifying a commit certificate: n − f signature checks, or one
    threshold verification in threshold mode. *)

val cert_wire_sigs : t -> int
(** Signature entries a certificate carries on the wire. *)

val recv_floor_cost : t -> bytes:int -> Time.t
(** MAC check plus payload digest: the per-message floor at receivers. *)

val recv_cost : t -> Wire.cost -> Time.t
(** A declared message's receive cost: {!recv_floor_cost} over its
    bytes plus [verify_us] per signature check. *)
