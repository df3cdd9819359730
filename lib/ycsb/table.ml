(* The replicated YCSB table.

   The paper's evaluation: "Each client transaction queries a YCSB
   table with an active set of 600 k records. ... Prior to the
   experiments, each replica is initialized with an identical copy of
   the YCSB table."

   Since the storage redesign the authoritative execution path is
   {!Rdb_storage.Kv} (the App state machine over a pluggable backend);
   a [Table.t] is now a lightweight *view* over the same record
   storage — tests and examples read fingerprints and digests through
   it, and [of_records] wraps a live backend's record mirror without
   copying.  The transaction semantics here are kept bit-identical to
   the Kv so either path yields the same state. *)

module Txn = Rdb_types.Txn
module Sha256 = Rdb_crypto.Sha256
module Splitmix64 = Rdb_prng.Splitmix64
module Backend = Rdb_storage.Backend

(* Records live in a Bigarray: unboxed int64 storage that the OCaml GC
   does not scan.  A deployment holds one 600k-record table per replica
   (dozens of tables, hundreds of MB); with boxed int64 arrays the GC
   would re-mark millions of boxes on every major cycle and dominate
   the simulator's wall-clock time. *)
type records = Backend.records

type t = {
  records : records;
  mutable writes : int;           (* applied write operations *)
  mutable reads : int;
  mutable scans : int;
}

let default_records = 600_000

(* Identical initialization on every replica: record i starts at a
   value derived from i, so state digests agree without communication.
   The derivation lives in {!Rdb_storage.Backend.init_records} — the
   single definition shared with every storage backend. *)
let create ?(n_records = default_records) () =
  { records = Backend.init_records ~n_records; writes = 0; reads = 0; scans = 0 }

(* A zero-copy view over live backend records: reads see the backend's
   current state, writes would corrupt it — treat as read-only. *)
let of_records records = { records; writes = 0; reads = 0; scans = 0 }
let records t = t.records

let n_records t = Bigarray.Array1.dim t.records

let read t ~key = Bigarray.Array1.get t.records (key mod n_records t)

(* Apply one transaction; returns the result value (read result, scan
   fold, or the written value for writes, matching YCSB's update
   semantics).  Kept in lock-step with Rdb_storage.Kv.exec_into. *)
let apply t (txn : Txn.t) : int64 =
  let n = n_records t in
  let key = txn.Txn.key mod n in
  let key = if key < 0 then key + n else key in
  match txn.Txn.op with
  | Txn.Read ->
      t.reads <- t.reads + 1;
      Bigarray.Array1.get t.records key
  | Txn.Scan ->
      t.scans <- t.scans + 1;
      let len = Txn.scan_len txn in
      let acc = ref 0L in
      for j = 0 to len - 1 do
        let k = key + j in
        let k = if k >= n then k - n else k in
        acc := Splitmix64.mix (Int64.logxor !acc (Bigarray.Array1.get t.records k))
      done;
      !acc
  | Txn.Write ->
      t.writes <- t.writes + 1;
      (* YCSB write: replace the record; mix in the old value so state
         depends on execution order (ordering bugs corrupt digests). *)
      let nv = Int64.add (Splitmix64.mix (Bigarray.Array1.get t.records key)) txn.Txn.value in
      Bigarray.Array1.set t.records key nv;
      nv

let apply_batch t (txns : Txn.t array) = Array.map (apply t) txns

(* An identical, independent copy: one memcpy of the record store
   instead of re-deriving 600 k records per replica at deployment
   construction.  Counters start fresh, matching [create]. *)
let clone src =
  { records = Backend.copy_records src.records; writes = 0; reads = 0; scans = 0 }

let writes t = t.writes
let reads t = t.reads
let scans t = t.scans

(* Digest of the full state.  O(n); used by tests and checkpoints at
   coarse intervals, so the cost is acceptable (and the *modeled* cost
   of checkpointing is charged separately by the protocols). *)
let state_digest t : string = Backend.digest_records t.records

(* Cheap incremental fingerprint over the first [k] records, for tests
   that want frequent comparisons. *)
let quick_fingerprint ?(k = 4096) t : int64 =
  let acc = ref 0L in
  let m = min k (n_records t) in
  for i = 0 to m - 1 do
    acc := Splitmix64.mix (Int64.logxor !acc (Bigarray.Array1.get t.records i))
  done;
  !acc
