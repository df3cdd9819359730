(* A block of the ledger.

   ResilientDB's ledger is "the immutable append-only blockchain
   representing the ordered sequence of accepted client requests"; the
   i-th block consists of the i-th executed client request (batch) and,
   to assure immutability, the commit certificate that proves the batch
   was agreed (paper §3).  Blocks are hash-chained: each block's hash
   covers its parent's hash, so tampering with any block invalidates
   every later block. *)

module Batch = Rdb_types.Batch
module Certificate = Rdb_types.Certificate
module Sha256 = Rdb_crypto.Sha256

type t = {
  height : int;                        (* position in the chain, 0-based *)
  round : int;                         (* consensus round that produced it *)
  cluster : int;                       (* cluster whose request this is *)
  batch : Batch.t;
  cert : Certificate.t option;         (* None only for the genesis block *)
  prev_hash : string;
  hash : string;
}

let genesis_hash = Sha256.digest "resilientdb-genesis"

let compute_hash ~height ~round ~cluster ~(batch : Batch.t) ~prev_hash =
  Sha256.digest_list
    [ "block"; string_of_int height; string_of_int round; string_of_int cluster;
      batch.Batch.digest; prev_hash ]

let create ~height ~round ~cluster ~batch ~cert ~prev_hash =
  let hash = compute_hash ~height ~round ~cluster ~batch ~prev_hash in
  { height; round; cluster; batch; cert; prev_hash; hash }

(* Recompute the hash from the block contents; false if tampered. *)
let hash_valid (b : t) =
  String.equal b.hash
    (compute_hash ~height:b.height ~round:b.round ~cluster:b.cluster ~batch:b.batch
       ~prev_hash:b.prev_hash)

let pp fmt b =
  Format.fprintf fmt "block@%d[round %d, %a]" b.height b.round Batch.pp b.batch
