(* The pluggable storage-backend signature under the KV state machine.

   A backend owns the durable representation of the replicated store.
   The deterministic execution logic itself lives in {!Kv}, which
   mutates the backend's [records] mirror directly — an unboxed int64
   Bigarray, so the write hot path stays allocation-free regardless of
   backend — and notifies the backend of each executed block so a
   persistent backend can log it.

   Two implementations:
   - {!Memory}: the records array is the whole story ([log_block] is a
     no-op) — the original in-memory YCSB table;
   - {!Blockstore}: an append-only file-backed log of executed blocks
     plus periodic full-state snapshots, with recovery-on-restart that
     loads the latest valid snapshot and replays the log suffix.

   Determinism contract: for the same applied block sequence, both
   backends hold byte-identical [records] (the Kv layer is the only
   writer), hence byte-identical state digests. *)

module Sha256 = Rdb_crypto.Sha256
module Splitmix64 = Rdb_prng.Splitmix64

type records = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Identical initialization on every replica (paper §4: "each replica
   is initialized with an identical copy of the YCSB table"): record i
   starts at a value derived from i.  The single definition shared by
   every backend and by {!Rdb_ycsb.Table}. *)
let init_records ~n_records : records =
  let records = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n_records in
  for i = 0 to n_records - 1 do
    Bigarray.Array1.unsafe_set records i (Splitmix64.mix (Int64.of_int i))
  done;
  records

let copy_records (src : records) : records =
  let dst =
    Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (Bigarray.Array1.dim src)
  in
  Bigarray.Array1.blit src dst;
  dst

(* Full-state serialization: n_records little-endian int64s.  The
   payload of {!Rdb_types.App.snapshot} and of on-disk snapshots. *)
let serialize_records (r : records) : string =
  let n = Bigarray.Array1.dim r in
  let b = Bytes.create (n * 8) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (i * 8) (Bigarray.Array1.unsafe_get r i)
  done;
  Bytes.unsafe_to_string b

let restore_records (r : records) (state : string) : unit =
  let n = Bigarray.Array1.dim r in
  if String.length state <> n * 8 then
    invalid_arg "Storage: snapshot state length does not match the record count";
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set r i (String.get_int64_le state (i * 8))
  done

(* Full-state passes that only read the encoding (the state digest,
   on-disk snapshots) stream it through one reused chunk of this many
   bytes instead of building the n_records * 8 byte image. *)
let chunk_bytes = 65_536

(* Digest of the full state: SHA-256 over the little-endian records.
   Kept bit-compatible with the historical Ycsb.Table.state_digest so
   pre-existing cross-replica state checks carry over. *)
let digest_records (r : records) : string =
  let ctx = Sha256.init () in
  let chunk = Bytes.create chunk_bytes in
  let n = Bigarray.Array1.dim r in
  let base = ref 0 in
  while !base < n do
    let b = !base in
    let m = min (chunk_bytes / 8) (n - b) in
    for k = 0 to m - 1 do
      Bytes.set_int64_le chunk (k * 8) (Bigarray.Array1.unsafe_get r (b + k))
    done;
    Sha256.feed_bytes ctx chunk 0 (m * 8);
    base := b + m
  done;
  Sha256.finalize ctx

(* The first-class backend signature. *)
module type S = sig
  type t

  val records : t -> records
  (* The live state mirror.  {!Kv} reads and writes it directly; the
     backend must never reallocate it after construction. *)

  val height : t -> int
  (* Blocks durably applied at construction time: 0 for a fresh store,
     the recovered height for a reopened persistent store. *)

  val wants_writes : t -> bool
  (* Whether [log_block] needs the per-block write set.  [false] lets
     the Kv skip write-set collection on the hot path entirely. *)

  val log_block :
    t -> height:int -> keys:int array -> values:int64 array -> count:int -> unit
  (* One executed block: the first [count] entries of [keys]/[values]
     are the post-write record values, in application order.  Called
     after the writes were applied to [records]. *)

  val note_restore : t -> height:int -> unit
  (* The Kv installed a full-state snapshot at [height], overwriting
     [records] wholesale; a persistent backend re-anchors (snapshot +
     log truncation) here. *)

  val close : t -> unit
end

(* Existential pack: one deployment mixes backends behind one type. *)
type packed = Packed : (module S with type t = 'a) * 'a -> packed
