(** The append-only ledger held by every replica (paper §3): a
    hash-chained sequence of executed batches with their commit
    certificates.  Fully replicated — each replica owns a complete
    copy; tampering anywhere invalidates every later block. *)

module Batch = Rdb_types.Batch
module Certificate = Rdb_types.Certificate
module Keychain = Rdb_crypto.Keychain

type t

type pool
(** What the ledgers of one deployment share: the blocks last appended
    at each height, so that a replica appending a block equal by
    content to another replica's takes that block's objects (its
    stripped batch, its certificate, or the whole block) instead of
    keeping its own.  Equality is full content, so a differing commit
    set or a tampered copy is never merged, and no audit verdict or
    hash depends on which object a ledger holds. *)

val pool : retain_payloads:bool -> pool
(** An empty pool.  [retain_payloads:false] makes its ledgers store
    {!Batch.strip} copies (one per batch, shared by every ledger of
    the pool) instead of the batches appended. *)

val create : pool:pool -> unit -> t
(** An empty ledger sharing [pool].  A ledger alone in its pool
    shares nothing. *)

val length : t -> int
val txn_count : t -> int
val is_empty : t -> bool

val tip_hash : t -> string
(** Hash of the last block ({!Block.genesis_hash} when empty). *)

val get : t -> int -> Block.t
(** @raise Invalid_argument if the height is out of range. *)

val append :
  t -> round:int -> cluster:int -> batch:Batch.t -> cert:Certificate.t option -> Block.t
(** Append the next executed batch; returns the new block, possibly
    one another ledger of the pool holds too. *)

val verify : t -> bool
(** Structural integrity: heights, hash links, block hashes. *)

val verify_certified : t -> keychain:Keychain.t -> quorum:int -> bool
(** Full Byzantine audit: structure, client signatures, and every
    block's commit certificate at the given quorum. *)

val read_from : t -> height:int -> Block.t list
(** Suffix starting at [height] — what a recovering replica copies
    from a peer (and then verifies independently). *)

val tamper_for_test : t -> height:int -> batch:Batch.t -> unit
(** Rewrite a block in place without fixing hashes: simulates a
    malicious replica editing history so audits can be demonstrated. *)

val common_prefix : t -> t -> int
(** Length of the longest common prefix (by block hash). *)

val is_prefix_of : t -> t -> bool
(** The safety relation: non-faulty replicas' ledgers must always be
    prefixes of one another. *)

val agreement : t list -> bool
(** [agreement ledgers] iff every pair is prefix-compatible
    ({!is_prefix_of} one way or the other) — the cross-replica safety
    check of the failure drill and the chaos invariant monitor. *)
