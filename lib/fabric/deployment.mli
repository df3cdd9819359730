(** The ResilientDB fabric: wires a consensus protocol into a simulated
    geo-scale deployment (paper §3).

    [Make (P)] builds, for a {!Rdb_types.Config.t} (z clusters × n
    replicas, one client group per cluster): the Table-1-calibrated
    WAN, the per-node CPU pipeline (Figure 9's threads), keys for all
    nodes, a ledger and a {!Rdb_storage.Kv} state machine per replica
    (in memory, or backed by the persistent block store), protocol
    replicas and client agents, and closed-loop YCSB client drivers.  Construction internals (node contexts, driver
    refill, packet delivery) are private to the implementation. *)

module Time = Rdb_sim.Time
module Engine = Rdb_sim.Engine
module Network = Rdb_sim.Network
module Keychain = Rdb_crypto.Keychain
module Config = Rdb_types.Config
module Ledger = Rdb_ledger.Ledger
module Kv = Rdb_storage.Kv

(** What travels on the simulated wire: the protocol payload plus the
    receiver-side verification cost declared by the sender.
    Interposers and delivery hooks observe (and may rewrite) payloads;
    size and vcost stay with the packet. *)
type 'm packet = { payload : 'm; vcost : Time.t }

module Make (P : Rdb_types.Protocol.S) : sig
  type msg = P.msg
  type t

  val create :
    ?tracer:Rdb_trace.Trace.t ->
    ?n_records:int ->
    ?retain_payloads:bool ->
    ?sharded:bool ->
    ?store_dir:string ->
    Config.t ->
    t
  (** Build a deployment.  [n_records] sizes the replicated store
      (default 600k, as in §4).  [retain_payloads:false] drops batch
      payloads from ledger blocks (long sweeps); recovery then carries
      state snapshots instead of replaying payloads.  [sharded]
      (default true) gives the engine one shard per cluster; the
      partition fixes the event order, so an unsharded run is
      deterministic but not byte-identical to the sharded one.
      [store_dir] roots the per-replica block stores when the config
      selects [Disk] storage (default: a fresh temp directory per
      deployment, removed by {!close}). *)

  val run : ?warmup:Time.t -> ?measure:Time.t -> ?jobs:int -> t -> Report.t
  (** Drive clients, warm up, measure, and report (§4 methodology).
      A run executes on one domain: [jobs] must be 1 (the default).
      @raise Invalid_argument for any other [jobs]. *)

  val close : t -> unit
  (** Release the block stores of a [Disk] deployment: close their
      log channels and, when [create] made the store root itself (no
      [store_dir]), remove it.  A caller's [store_dir] stays, so its
      stores can be reopened.  Idempotent; a no-op for [Memory]. *)

  (** {1 Accessors} *)

  val cfg : t -> Config.t
  val engine : t -> Engine.t
  val network : t -> P.msg packet Network.t
  val metrics : t -> Metrics.t
  val keychain : t -> Keychain.t
  val ledger : t -> replica:int -> Ledger.t

  val kv : t -> replica:int -> Kv.t
  (** [replica]'s state machine, which executes what the protocol
      orders through its [Ctx.t].  Read it ([Kv.state_digest],
      [Kv.height], [Kv.records]); applying batches through it
      diverges the replica from its ledger. *)

  val replica : t -> int -> P.replica
  val client : t -> cluster:int -> P.client

  (** {1 Clients} *)

  val start_clients : t -> unit
  (** Begin closed-loop submission on every cluster's client group
      ([run] does this itself). *)

  val pause_client : t -> cluster:int -> unit
  (** Stop one cluster's client group from submitting new batches
      (in-flight batches complete normally) — exercises GeoBFT's no-op
      rounds (§2.5). *)

  (** {1 Fault injection} (§4.3 experiments, chaos harness) *)

  val crash_replica : t -> int -> unit
  val recover_replica : t -> int -> unit
  val is_crashed : t -> int -> bool
  val crash_primary : t -> cluster:int -> unit
  val crash_f_per_cluster : t -> unit

  val uncrash_replica_no_recovery : t -> int -> unit
  (** Test hook: rejoin without the protocol's recovery machinery. *)

  val disable_all_recovery : t -> unit
  (** Test hook: the fully recovery-less build. *)

  val add_drop_rule : t -> (src:int -> dst:int -> bool) -> unit
  val clear_drop_rules : t -> unit
  val partition_clusters : t -> ca:int -> cb:int -> unit
  val heal_clusters : t -> ca:int -> cb:int -> unit
  val sever_link : t -> src:int -> dst:int -> unit
  val restore_link : t -> src:int -> dst:int -> unit
  val set_link_loss : t -> src:int -> dst:int -> p:float -> unit
  val set_link_dup : t -> src:int -> dst:int -> p:float -> unit

  val at : t -> time:Time.t -> (unit -> unit) -> unit
  (** Schedule a control action at an absolute simulated time (runs at
      an epoch barrier, before same-time ordinary events). *)

  (** {1 Adversarial interposition and observation} *)

  val adversary_view : P.msg Rdb_types.Interpose.view
  val set_interposer : t -> P.msg Rdb_types.Interpose.t option -> unit
  val set_delivery_hook : t -> Rdb_sim.Network.delivery_hook option -> unit

  (** {1 Counters} *)

  val view_changes : t -> int
  val recovery_totals : t -> Rdb_types.Protocol.recovery_stats
end
