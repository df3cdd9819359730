(* GeoBFT wire messages (paper §2).

   [Local] wraps the cluster-internal Pbft traffic of the local
   replication step.  The inter-cluster messages are exactly the ones
   of Figures 5 and 7:

   - [Global_share]: m = (⟨T⟩c, [⟨T⟩c, ρ]_C), a certified client
     request, sent by the primary of the producing cluster to f+1
     remote replicas (global phase) and then broadcast locally by its
     receivers (local phase).  The same message answers a DRVC from a
     replica that already holds m (Figure 7, line 7).
   - [Drvc]: local agreement that a remote cluster failed to deliver
     its round-ρ message (Figure 7, lines 2-11).
   - [Rvc]: the signed remote view-change request, sent to the replica
     of the failed cluster with the same local id (line 13), and
     forwarded inside the failed cluster (line 15).  Signing matters:
     the receiving cluster counts f+1 requests *signed by distinct
     replicas of one remote cluster* before acting (line 16).
   - [Request]/[Reply]: client traffic with the local cluster. *)

module Batch = Rdb_types.Batch
module Certificate = Rdb_types.Certificate
module Schnorr = Rdb_crypto.Schnorr

type rvc = {
  failed_cluster : int;     (* C1: the cluster asked to view-change *)
  round : int;              (* ρ: first round the requester is missing *)
  vc_count : int;           (* v: requester's remote view-change counter *)
  requester : int;          (* global node id of the signer, in C2 *)
  signature : Schnorr.signature;
}

type msg =
  | Local of Rdb_pbft.Messages.msg
  | Request of Batch.t
  | Read_request of Batch.t
  | Global_share of { round : int; batch : Batch.t; cert : Certificate.t }
  | Drvc of { failed_cluster : int; round : int; vc_count : int }
  | Rvc of rvc                 (* sent cross-cluster, or forwarded within C1 *)
  | Reply of { batch_id : int; result_digest : string; primary : int }
      (* [primary]: the replier's current local primary — clients use
         it to re-aim new requests after a view change. *)
  (* Ledger catch-up (lib/recovery): a rejoining replica pulls the
     ledger suffix from its local peers, with their engine view, so an
     ex-primary stops proposing into a dead view. *)
  | Sync of Rdb_recovery.Catchup.msg

let rvc_payload ~failed_cluster ~round ~vc_count ~requester =
  Printf.sprintf "rvc:%d:%d:%d:%d" failed_cluster round vc_count requester
