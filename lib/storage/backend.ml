(* The record helpers shared by {!Kv} and the {!Blockstore} under it.

   The replicated store is an unboxed int64 Bigarray, one word per
   record: the OCaml GC does not scan it (a 600k table is 4.8 MB), and
   {!Kv} reads and writes it in place, so the write hot path allocates
   nothing.  This module initializes, copies, serializes and digests
   that array; the store's own format lives in {!Blockstore}. *)

module Sha256 = Rdb_crypto.Sha256
module Splitmix64 = Rdb_prng.Splitmix64

type records = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Identical initialization on every replica (paper §4: "each replica
   is initialized with an identical copy of the YCSB table"): record i
   starts at a value derived from i.  The single definition, used with
   and without a store. *)
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

(* [serialize_records r = state], decided in place: no allocation, and
   the scan stops at the first record that differs. *)
let records_match (r : records) (state : string) : bool =
  let n = Bigarray.Array1.dim r in
  String.length state = n * 8
  &&
  let i = ref 0 in
  while
    !i < n && Int64.equal (Bigarray.Array1.unsafe_get r !i) (String.get_int64_le state (!i * 8))
  do
    incr i
  done;
  !i = n

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

(* Digest of the full state: SHA-256 over the little-endian records,
   i.e. over [serialize_records r] without building it. *)
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
