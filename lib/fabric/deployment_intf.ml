(* The signature of a deployment, kept apart from deployment.ml so the
   implementation and the interface share one copy of it (Deployment
   re-exports both names). *)

module Time = Rdb_sim.Time
module Engine = Rdb_sim.Engine
module Network = Rdb_sim.Network
module Keychain = Rdb_crypto.Keychain
module Config = Rdb_types.Config
module Ledger = Rdb_ledger.Ledger
module Kv = Rdb_storage.Kv

(* What travels on the simulated wire (documented in deployment.mli). *)
type 'm packet = { payload : 'm; vcost : Time.t }

(** A deployment of one protocol: what [Deployment.Make] returns. *)
module type S = sig
  type msg
  type replica
  type client
  type t

  val create :
    ?tracer:Rdb_trace.Trace.t ->
    ?n_records:int ->
    ?retain_payloads:bool ->
    ?store_dir:string ->
    Config.t ->
    t
  (** Build a deployment.  [n_records] sizes the replicated store
      (default 600k, as in §4).  [retain_payloads:false] drops batch
      payloads from ledger blocks (long sweeps); recovery then carries
      state snapshots instead of replaying payloads.  The engine gets
      one shard per cluster whenever z > 1 (DESIGN.md §15); the
      partition fixes the event order, so every deployment of a
      config — a figure's, the checker's, the attack search's — runs
      the same schedule.  [store_dir] roots the per-replica block stores when the config
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
  val network : t -> msg packet Network.t
  val metrics : t -> Metrics.t
  val keychain : t -> Keychain.t
  val ledger : t -> replica:int -> Ledger.t

  val kv : t -> replica:int -> Kv.t
  (** [replica]'s state machine, which executes what the protocol
      orders through its [Ctx.t].  Read it ([Kv.state_digest],
      [Kv.height], [Kv.records]); applying batches through it
      diverges the replica from its ledger. *)

  val replica : t -> int -> replica
  val client : t -> cluster:int -> client

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

  val adversary_view : msg Rdb_types.Interpose.view
  val set_interposer : t -> msg Rdb_types.Interpose.t option -> unit
  val set_delivery_hook : t -> Rdb_sim.Network.delivery_hook option -> unit

  (** {1 Counters} *)

  val view_changes : t -> int
end

