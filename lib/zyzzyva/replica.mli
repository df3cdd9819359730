(** Zyzzyva: speculative BFT (Kotla et al.) as implemented in
    ResilientDB (§3).  Replicas execute speculatively in primary order
    and reply directly to clients; clients need all n matching replies
    (fast path) or fall back, after a commit timer, to broadcasting a
    commit certificate built from n − f matching replies — which is
    why any replica failure collapses throughput (Figure 12).  A
    backup back from a crash fills its hole from a peer's ledger.
    No view change (the paper excludes Zyzzyva from the
    primary-failure experiment for the same reason).
    Satisfies {!Rdb_types.Protocol.S}. *)

module Batch = Rdb_types.Batch
module Ctx = Rdb_types.Ctx

val name : string

type msg =
  | Request of Batch.t
  | Order_req of { view : int; seq : int; batch : Batch.t; history : string }
  | Spec_reply of { batch_id : int; seq : int; history : string; result_digest : string }
  | Commit_cert of { batch_id : int; seq : int; history : string; responders : int list }
  | Local_commit of { batch_id : int; seq : int }
  | Sync of Rdb_recovery.Catchup.msg
      (** Fill-hole: a backup's ledger catch-up from its peers. *)

type replica
type client

val create_replica : msg Ctx.t -> replica
val on_message : replica -> src:int -> msg -> unit
val view_changes : replica -> int

val on_recover : replica -> unit
(** Crash rejoin: the ledger catch-up loop fills the hole. *)

val recovery : replica -> Rdb_types.Protocol.recovery_stats

val create_client : msg Ctx.t -> cluster:int -> client
val submit : client -> Batch.t -> unit
val on_client_message : client -> src:int -> msg -> unit

val fast_completions : client -> int
(** Batches completed on the all-n fast path. *)

val slow_completions : client -> int
(** Batches completed through the commit-certificate path. *)

val wire : Rdb_types.Config.t -> msg -> Rdb_types.Wire.cost
(** Bytes and receiver signature checks of each message. *)

val adversary : msg Rdb_types.Interpose.view
(** Adversarial message classification; content equivocation is not
    modelled (speculative histories legally diverge), so [conflict]
    is always [None]. *)
