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

(* Every honest replica appends the same block at the same height, so
   the simulator computes each block hash dozens of times with
   identical inputs.  A small per-domain direct-mapped cache (indexed
   by height) returns the previously computed hash when {e all} inputs
   match — a pure-function memo, so a hit can never change a hash, and
   divergent replicas (different prev_hash or batch) simply miss.
   Domain-local storage keeps parallel sweep workers race-free.
   [hash_valid] deliberately bypasses the memo and recomputes. *)
type memo_entry = {
  m_height : int;
  m_round : int;
  m_cluster : int;
  m_digest : string;
  m_prev : string;
  m_hash : string;
}

let memo_slots = 64

let memo_key : memo_entry option array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.make memo_slots None)

let memo_hash ~height ~round ~cluster ~(batch : Batch.t) ~prev_hash =
  let tab = Domain.DLS.get memo_key in
  let slot = height land (memo_slots - 1) in
  match tab.(slot) with
  | Some m
    when m.m_height = height && m.m_round = round && m.m_cluster = cluster
         && String.equal m.m_digest batch.Batch.digest
         && String.equal m.m_prev prev_hash ->
      m.m_hash
  | _ ->
      let hash = compute_hash ~height ~round ~cluster ~batch ~prev_hash in
      tab.(slot) <-
        Some
          { m_height = height; m_round = round; m_cluster = cluster;
            m_digest = batch.Batch.digest; m_prev = prev_hash; m_hash = hash };
      hash

let create ~height ~round ~cluster ~batch ~cert ~prev_hash =
  let hash = memo_hash ~height ~round ~cluster ~batch ~prev_hash in
  { height; round; cluster; batch; cert; prev_hash; hash }

(* Recompute the hash from the block contents; false if tampered. *)
let hash_valid (b : t) =
  String.equal b.hash
    (compute_hash ~height:b.height ~round:b.round ~cluster:b.cluster ~batch:b.batch
       ~prev_hash:b.prev_hash)

let pp fmt b =
  Format.fprintf fmt "block@%d[round %d, %a]" b.height b.round Batch.pp b.batch
