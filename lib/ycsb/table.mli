(** The replicated YCSB table (paper §4: "an active set of 600k
    records", identically initialized on every replica).  Deterministic
    execution of the same batch sequence yields identical state
    digests on all non-faulty replicas.

    Since the storage redesign the authoritative execution path is
    {!Rdb_storage.Kv}; a [Table.t] is a view over the same Bigarray
    record storage ({!of_records} wraps a live backend mirror without
    copying), with transaction semantics kept bit-identical to the Kv
    state machine. *)

module Txn = Rdb_types.Txn

type records = Rdb_storage.Backend.records

type t

val default_records : int
(** 600_000, as in the paper. *)

val create : ?n_records:int -> unit -> t

val of_records : records -> t
(** Zero-copy view over live backend records (counters start at 0).
    Reads observe the backend's current state; do not write through a
    view of records a Kv owns. *)

val records : t -> records

val n_records : t -> int

val read : t -> key:int -> int64

val apply : t -> Txn.t -> int64
(** Apply one transaction; returns the read result, the scan fold, or
    the written value.  Writes mix in the previous value, so execution
    {e order} is visible in the state (ordering bugs corrupt digests). *)

val apply_batch : t -> Txn.t array -> int64 array

val clone : t -> t
(** An identical, independent copy of the record store (one memcpy);
    read/write counters start fresh, as after {!create}. *)

val writes : t -> int
val reads : t -> int
val scans : t -> int

val state_digest : t -> string
(** SHA-256 over the full state (O(n); tests and checkpoint audits). *)

val quick_fingerprint : ?k:int -> t -> int64
(** Cheap fingerprint over the first [k] records (default 4096). *)
