(* The types of the execution seam between consensus and storage.

   Protocols order batches, the fabric hands each ordered batch to the
   replica's state machine ({!Rdb_storage.Kv}, which the protocol
   libraries never see), and the state machine returns a per-batch
   execution result whose digest the replica puts in its client reply.
   Clients then require f+1 *matching result digests* — agreement on
   what was executed, not just on how many replicas replied. *)

type result = {
  digest : string;  (* SHA-256 over the batch digest + every txn's result value *)
  reads : int;      (* point reads executed in this batch *)
  writes : int;     (* writes applied *)
  scans : int;      (* range scans executed *)
  scanned_rows : int;  (* rows touched by those scans *)
}

(* A full-state snapshot at a height boundary: the state string
   reproduces the store exactly as it was after applying blocks
   [0, height).  Carried by the recovery protocols' state-transfer
   messages when ledger payloads are stripped, and written to disk by
   the persistent block store at checkpoint boundaries. *)
type snapshot = { height : int; state : string }
