(** Standalone Pbft — the baseline protocol of §4: one flat Pbft group
    over all z·n replicas, primary initially in region 0 (Oregon, as in
    the paper), clients waiting for f_global + 1 matching replies.
    Satisfies {!Rdb_types.Protocol.S}. *)

module Batch = Rdb_types.Batch
module Ctx = Rdb_types.Ctx

val name : string

type msg =
  | Engine_msg of Messages.msg
  | Request of Batch.t
  | Read_request of Batch.t
      (** Consensus-bypass read-only batch, answered from replica state
          with a real result digest (client needs f+1 matches). *)
  | Reply of { batch_id : int; result_digest : string; primary : int }
  | Sync of Rdb_recovery.Catchup.msg
      (** Ledger catch-up: one peer and one chunk at a time. *)

type replica
type client = msg Rdb_types.Client_core.t

val create_replica : msg Ctx.t -> replica
val on_message : replica -> src:int -> msg -> unit
val view_changes : replica -> int

val on_recover : replica -> unit
(** Crash rejoin: revive the engine's timers and start the ledger
    catch-up loop, which runs until a peer's executed frontier. *)

val recovery : replica -> Rdb_types.Protocol.recovery_stats


val engine : replica -> Engine.t
(** The underlying Pbft engine (tests and Byzantine hooks). *)

val wire : Rdb_types.Config.t -> msg -> Rdb_types.Wire.cost
(** Bytes and receiver signature checks of each message; engine
    traffic is declared by {!Messages.wire}. *)

val adversary : msg Rdb_types.Interpose.view
(** Adversarial message classification; equivocation forges a
    conflicting pre-prepare (signed no-op in the same slot). *)

val create_client : msg Ctx.t -> cluster:int -> client
val submit : client -> Batch.t -> unit
val on_client_message : client -> src:int -> msg -> unit
