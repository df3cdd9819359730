(** The GeoBFT replica (paper §2) — the paper's primary contribution.
    Satisfies {!Rdb_types.Protocol.S}.

    Per round ρ: local replication via the embedded Pbft engine
    (§2.2), optimistic inter-cluster sharing of (batch, certificate) to
    f+1 replicas per remote cluster with local rebroadcast (§2.3,
    Figure 5), and round-ordered execution with replies to local
    clients only (§2.4).  Failures of a remote cluster's primary are
    handled by the full remote view-change protocol of Figure 7:
    timer detection with exponential back-off, DRVC local agreement,
    signed RVC requests to same-id replicas, in-cluster forwarding,
    and the guarded honor rule with replay protection that forces a
    local view change at the faulty cluster. *)

module Batch = Rdb_types.Batch
module Ctx = Rdb_types.Ctx
module Engine = Rdb_pbft.Engine

val name : string

type msg = Messages.msg

type replica
type client = msg Rdb_types.Client_core.t

val create_replica : msg Ctx.t -> replica
val on_message : replica -> src:int -> msg -> unit
val view_changes : replica -> int

val on_recover : replica -> unit
(** Crash-rejoin: unwedge the dropped exec chain and detection timers,
    then catch up by pulling the missing ledger suffix (complete rounds
    only) from local-cluster peers with backoff until back at an
    executed frontier. *)

val recovery : replica -> Rdb_types.Protocol.recovery_stats


val engine : replica -> Engine.t
(** This replica's local-replication Pbft engine. *)

val remote_vcs_triggered : replica -> int
(** Remote view-change requests this replica honored as a member of
    the suspected cluster (Figure 7, line 16-17). *)

val cert_verifications : replica -> int
(** Remote certificate verifications this replica has charged to its
    certify thread: one per remote (cluster, round) it adopts, plus
    one per copy that failed verification before the round's first
    valid copy. *)

val wire : Rdb_types.Config.t -> msg -> Rdb_types.Wire.cost
(** Bytes and receiver signature checks of each message; engine
    traffic ([Local]) is declared by {!Rdb_pbft.Messages.wire}. *)

val adversary : msg Rdb_types.Interpose.view
(** Adversarial message classification ([Share] = the certified
    inter-cluster traffic of Figure 5, so silencing it models
    equivocation-by-omission, Example 2.4 case 1); content
    equivocation forges a conflicting local pre-prepare. *)

val create_client : msg Ctx.t -> cluster:int -> client
val submit : client -> Batch.t -> unit
val on_client_message : client -> src:int -> msg -> unit
