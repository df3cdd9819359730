(** GeoBFT wire messages (paper §2): the wrapped local-Pbft traffic,
    the inter-cluster messages of Figures 5 and 7, and client traffic.
    See the .ml for the per-constructor mapping onto the paper's
    pseudo-code lines. *)

module Batch = Rdb_types.Batch
module Certificate = Rdb_types.Certificate
module Schnorr = Rdb_crypto.Schnorr

type rvc = {
  failed_cluster : int;  (** C1: the cluster asked to view-change *)
  round : int;           (** ρ: first round the requester is missing *)
  vc_count : int;        (** v: requester's remote view-change counter *)
  requester : int;       (** global node id of the signer, in C2 *)
  signature : Schnorr.signature;
}

type msg =
  | Local of Rdb_pbft.Messages.msg
  | Request of Batch.t
  | Read_request of Batch.t
      (** Consensus-bypass read-only batch, served from local-cluster
          replica state (client waits for f+1 matching digests). *)
  | Global_share of { round : int; batch : Batch.t; cert : Certificate.t }
  | Drvc of { failed_cluster : int; round : int; vc_count : int }
  | Rvc of rvc
  | Reply of { batch_id : int; result_digest : string; primary : int }
  | Sync of Rdb_recovery.Catchup.msg
      (** Ledger catch-up from local peers, who report their engine
          view. *)

val rvc_payload : failed_cluster:int -> round:int -> vc_count:int -> requester:int -> string
(** The signed payload of an RVC request (Figure 7, line 13). *)

