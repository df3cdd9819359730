open Import

(* Deployment configuration shared by every protocol and the fabric.

   Replica layout (matching the experiments in §4): z clusters of n
   replicas; cluster c occupies region c; replica i of cluster c has
   global node id c*n + i; the client group of cluster c is node
   z*n + c, co-located with its cluster.  Within a cluster, replica
   identifiers id(R) ∈ 1..n of the paper map to local indices 0..n-1. *)

type costs = {
  sign_us : float;          (* ED25519-class signature generation *)
  verify_us : float;        (* ED25519-class signature verification *)
  mac_us : float;           (* AES-CMAC generate or verify *)
  hash_us_per_kb : float;   (* SHA-256 digest throughput *)
  exec_us_per_txn : float;  (* YCSB write against the table, ledger append *)
  batch_asm_us : float;     (* batch assembly on the batching thread *)
  (* Steward's threshold-RSA primitives (Amir et al.): partial
     signature generation per replica and share combination at the
     representative.  RSA-class, orders of magnitude above ED25519. *)
  threshold_partial_us : float;
  threshold_combine_us : float;
}

(* Defaults are Skylake-class figures for the primitives the paper
   names (ED25519, AES-CMAC, SHA256 via Crypto++). *)
let default_costs =
  {
    sign_us = 45.0;
    verify_us = 120.0;
    mac_us = 1.5;
    hash_us_per_kb = 3.0;
    exec_us_per_txn = 10.0;
    batch_asm_us = 120.0;
    threshold_partial_us = 4_000.0;
    threshold_combine_us = 9_000.0;
  }

(* Where each replica's state lives: in memory only, or in memory
   backed by the append-only persistent block store (file-backed log +
   periodic state snapshots, recovery-on-restart).  Both are
   deterministic: same batch sequence, same state digest. *)
type storage = Memory | Disk

type t = {
  z : int;                    (* number of clusters (regions) *)
  n : int;                    (* replicas per cluster *)
  batch_size : int;           (* transactions per batch *)
  checkpoint_interval : int;  (* Pbft checkpoint period, in sequence numbers *)
  pipeline_depth : int;       (* max in-flight local consensus instances *)
  local_timeout_ms : float;   (* Pbft view-change timer *)
  remote_timeout_ms : float;  (* GeoBFT remote failure-detection timer *)
  client_inflight : int;      (* outstanding batches per client group *)
  client_timeout_ms : float;  (* client retransmission timer *)
  (* Aggregate client population across the whole deployment, split
     evenly over the z per-cluster client groups.  0 (the default)
     keeps the legacy closed-loop model: [client_inflight] outstanding
     batches per group over a 1000-client id space.  A positive value
     models that many real clients as aggregated groups — each group
     draws client ids from a population of [clients/z], and keeps
     max(client_inflight, population/batch_size) batches outstanding
     (every aggregated client has one request in flight, packed
     [batch_size] to a batch).  Group work stays one event per batch
     tick regardless of population, which is what lets a sweep
     represent millions of clients (10x the paper's 160k). *)
  clients : int;
  (* Effective aggregate WAN egress of one machine (all cross-region
     flows of a node share this pipe, in series with the per-region
     Table 1 pipes).  Table 1 reports per-flow bandwidth; a single VM
     fanning out to dozens of WAN peers does not achieve the sum of
     per-flow rates.  Calibrated so the single-primary baselines
     (Pbft/Zyzzyva) reproduce the paper's throughput ceiling. *)
  wan_egress_mbps : float;
  (* GeoBFT global-sharing fan-out: replicas contacted per remote
     cluster.  0 means the paper's f+1 (Figure 5); other values exist
     for the ablation study (1 = minimal but not failure-detectable,
     n = broadcast as non-optimized protocols do). *)
  geobft_fanout : int;
  (* §2.2: "Optionally, GeoBFT can use threshold signatures to
     represent these n−f signatures via a single constant-sized
     threshold signature."  When true, commit certificates carry one
     aggregate signature: constant wire size and a single verification
     (at threshold-crypto cost) instead of n − f of each. *)
  threshold_certs : bool;
  (* YCSB workload mix: fraction of client batches that are read-only
     (point reads) and range scans.  The remainder are write batches.
     Classes are drawn per batch, not per transaction, so read-only
     batches exist as units the read-path bypass can serve.  Both 0 by
     default — the paper's evaluation is write-only — and the RNG draw
     stream is unchanged when both are 0. *)
  read_fraction : float;
  scan_fraction : float;
  storage : storage;
  costs : costs;
  seed : int;
}

let default =
  {
    z = 4;
    n = 7;
    batch_size = 100;
    checkpoint_interval = 600;
    pipeline_depth = 32;
    local_timeout_ms = 2_000.0;
    remote_timeout_ms = 4_000.0;
    client_inflight = 64;
    (* Above any healthy-path commit latency, but short enough that a
       request lost to a crashed primary is re-broadcast (waking the
       backup-forward / censorship-timer machinery) well before the
       chaos monitor's liveness window expires. *)
    client_timeout_ms = 3_000.0;
    clients = 0;
    wan_egress_mbps = 350.0;
    geobft_fanout = 0;
    threshold_certs = false;
    read_fraction = 0.0;
    scan_fraction = 0.0;
    storage = Memory;
    costs = default_costs;
    seed = 1;
  }

let make ?(base = default) ?z ?n ?batch_size ?client_inflight ?clients ?read_fraction
    ?scan_fraction ?storage ?seed () =
  let get o d = Option.value o ~default:d in
  {
    base with
    z = get z base.z;
    n = get n base.n;
    batch_size = get batch_size base.batch_size;
    client_inflight = get client_inflight base.client_inflight;
    clients = get clients base.clients;
    read_fraction = get read_fraction base.read_fraction;
    scan_fraction = get scan_fraction base.scan_fraction;
    storage = get storage base.storage;
    seed = get seed base.seed;
  }

(* -- client-group aggregation ------------------------------------------ *)

(* Per-cluster client population: [clients] split evenly over the z
   groups, remainder to the lowest-numbered clusters.  The legacy model
   (clients = 0) keeps the historical 1000-client id space per group. *)
let group_population t ~cluster =
  if t.clients <= 0 then 1000
  else (t.clients / t.z) + (if cluster < t.clients mod t.z then 1 else 0)

(* Stride between per-cluster client-id bases: at least the legacy
   10_000 (so clients = 0 and populations up to 10k produce the same
   ids the legacy model did), and always wide enough that no two
   groups' id ranges overlap. *)
let client_id_stride t =
  let pop_max = if t.clients <= 0 then 1000 else (t.clients / t.z) + 1 in
  max 10_000 pop_max

(* Outstanding batches an aggregated client group keeps in flight: each
   modeled client has one request outstanding and [batch_size] of them
   share a batch, so population/batch_size batches are in the system on
   the group's behalf.  The configured [client_inflight] is the floor,
   so small populations keep the saturating closed-loop model.
   [clients = 0] is *exactly* the legacy model — the configured
   inflight, never the population-derived one — which is what keeps
   every pre-existing pinned digest and baseline byte-identical. *)
let group_inflight t ~cluster =
  if t.clients <= 0 then t.client_inflight
  else max t.client_inflight (group_population t ~cluster / max 1 t.batch_size)

let storage_name = function Memory -> "mem" | Disk -> "disk"
let storage_of_string = function
  | "mem" | "memory" -> Some Memory
  | "disk" -> Some Disk
  | _ -> None

(* Maximum Byzantine replicas per cluster: n > 3f. *)
let f t = (t.n - 1) / 3

let n_replicas t = t.z * t.n
let n_nodes t = (t.z * t.n) + t.z (* replicas + one client group per cluster *)

(* -- Node layout ------------------------------------------------------ *)

let cluster_of_replica t node = node / t.n
let local_index t node = node mod t.n
let replica_id t ~cluster ~index = (cluster * t.n) + index
let replicas_of_cluster t cluster = List.init t.n (fun i -> (cluster * t.n) + i)
let is_replica t node = node < n_replicas t

let client_node t ~cluster = (t.z * t.n) + cluster
let is_client t node = node >= n_replicas t && node < n_nodes t
let cluster_of_client t node = node - n_replicas t

let cluster_of_node t node =
  if is_replica t node then cluster_of_replica t node else cluster_of_client t node

(* Primary of [cluster] in view [view]: round-robin over local indices,
   as in Pbft. *)
let primary t ~cluster ~view = replica_id t ~cluster ~index:(view mod t.n)

(* -- Quorums ---------------------------------------------------------- *)

let quorum t = t.n - f t          (* n − f: prepare/commit quorum *)
let weak_quorum t = f t + 1       (* f + 1: at least one non-faulty *)

(* GeoBFT inter-cluster sharing fan-out (paper: f+1). *)
let share_fanout t = if t.geobft_fanout <= 0 then weak_quorum t else min t.geobft_fanout t.n

(* -- Cost helpers ------------------------------------------------------ *)

(* The scalar (config-constant) costs are charged on every message hop,
   so the float->ns conversions are memoized per config.  The slot is
   domain-local: one config is in play per running deployment, and each
   sweep worker domain fills its own slot once, so there is no
   cross-domain contention and no synchronization. *)
type cost_tab = {
  c_cfg : t; (* physical identity of the config this table was built for *)
  c_sign : Time.t;
  c_verify : Time.t;
  c_mac : Time.t;
  c_batch_asm : Time.t;
  c_cert_verify : Time.t;
  c_thresh_partial : Time.t;
  c_thresh_combine : Time.t;
}

let cost_tab_slot : cost_tab option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let cost_tab t =
  let slot = Domain.DLS.get cost_tab_slot in
  match !slot with
  | Some tab when tab.c_cfg == t -> tab
  | _ ->
      let tab =
        {
          c_cfg = t;
          c_sign = Time.of_us_f t.costs.sign_us;
          c_verify = Time.of_us_f t.costs.verify_us;
          c_mac = Time.of_us_f t.costs.mac_us;
          c_batch_asm = Time.of_us_f t.costs.batch_asm_us;
          (* Verification of a commit certificate: one signature check
             per certificate entry (n − f of them), or a single
             threshold-signature verification when threshold
             certificates are enabled (§2.2).  A threshold verify is
             RSA-class, costed like a combine check. *)
          c_cert_verify =
            (if t.threshold_certs then Time.of_us_f (2. *. t.costs.verify_us)
             else Time.of_us_f (t.costs.verify_us *. float_of_int (quorum t)));
          c_thresh_partial = Time.of_us_f t.costs.threshold_partial_us;
          c_thresh_combine = Time.of_us_f t.costs.threshold_combine_us;
        }
      in
      slot := Some tab;
      tab

let sign_cost t = (cost_tab t).c_sign
let verify_cost t = (cost_tab t).c_verify
let mac_cost t = (cost_tab t).c_mac
let hash_cost t ~bytes = Time.of_us_f (t.costs.hash_us_per_kb *. (float_of_int bytes /. 1024.))
let exec_cost t ~txns = Time.of_us_f (t.costs.exec_us_per_txn *. float_of_int txns)
let batch_asm_cost t = (cost_tab t).c_batch_asm
let cert_verify_cost t = (cost_tab t).c_cert_verify

(* Certificate entries carried on the wire: n − f individual commit
   signatures, or one constant-size aggregate. *)
let cert_wire_sigs t = if t.threshold_certs then 1 else quorum t

(* MAC check plus digest of a payload of [bytes]: the per-message floor
   charged to a receiver's worker thread. *)
let recv_floor_cost t ~bytes = Time.add (mac_cost t) (hash_cost t ~bytes)

let threshold_partial_cost t = (cost_tab t).c_thresh_partial
let threshold_combine_cost t = (cost_tab t).c_thresh_combine
