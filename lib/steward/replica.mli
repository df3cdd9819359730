(** Steward (Amir et al.): hierarchical BFT for wide-area networks, as
    characterized in the paper (§3): sites act as logical entities via
    threshold-signed site messages, and a designated primary site
    (Oregon) assigns the global order — three local
    threshold-certification rounds and two representative-level
    exchanges per decision, whose RSA-class costs are what keep
    Steward's throughput low and flat (§4.1).  No view change,
    matching the paper.  Satisfies {!Rdb_types.Protocol.S}. *)

module Batch = Rdb_types.Batch
module Ctx = Rdb_types.Ctx

val name : string

type msg =
  | Request of Batch.t
  | Read_request of Batch.t
      (** Consensus-bypass read-only batch, answered from site-member
          state (client waits for f+1 matching result digests). *)
  | Certify_req of { tag : string; digest : string; batch : Batch.t option }
  | Partial_sig of { tag : string; digest : string }
  | Site_forward of { batch : Batch.t }
  | Global_proposal of { g : int; batch : Batch.t }
  | Global_accept of { g : int; site : int; digest : string }
  | Local_bcast of { g : int; batch : Batch.t }
  | Local_commit of { g : int }
  | Sync of Rdb_recovery.Catchup.msg
      (** Ledger catch-up: global sequence g is ledger height g. *)
  | Reply of { batch_id : int; result_digest : string }

type replica
type client = msg Rdb_types.Client_core.t

val create_replica : msg Ctx.t -> replica
val on_message : replica -> src:int -> msg -> unit
val view_changes : replica -> int

val on_recover : replica -> unit
(** Restart the stall-retransmission task and the ledger catch-up
    loop (only non-representatives are crash-injected). *)

val recovery : replica -> Rdb_types.Protocol.recovery_stats

val create_client : msg Ctx.t -> cluster:int -> client
val submit : client -> Batch.t -> unit
val on_client_message : client -> src:int -> msg -> unit

val wire : Rdb_types.Config.t -> msg -> Rdb_types.Wire.cost
(** Bytes and receiver signature checks of each message. *)

val adversary : msg Rdb_types.Interpose.view
(** Adversarial message classification ([Share] = threshold-signature
    traffic); certificates bind batch digests, so [conflict] is
    always [None]. *)
