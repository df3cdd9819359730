open Import

(** A batch of client transactions — the unit of consensus (paper §3,
    "Request batching").  Batches are signed by the issuing client
    group; the digest covers id, cluster, origin and every transaction,
    so any tampering is detectable. *)

type memo
(** Verification memo (see {!verify}).  Keyed on the exact fields it
    covered, so a record copy with any field changed misses it. *)

type t = {
  id : int;                      (** globally unique batch id (< 0 for no-ops) *)
  cluster : int;                 (** cluster whose clients issued it *)
  origin : int;                  (** node id of the issuing client group *)
  txns : Txn.t array;
  created : Time.t;              (** submission time, for latency metrics *)
  signature : Schnorr.signature; (** client signature over the digest *)
  digest : string;               (** SHA-256 of the canonical payload *)
  mutable vmemo : memo option;   (** cached verification verdict *)
}

val create :
  keychain:Keychain.t ->
  id:int ->
  cluster:int ->
  origin:int ->
  txns:Txn.t array ->
  created:Time.t ->
  t
(** Build and sign a batch ([origin] must hold a key in [keychain]). *)

val noop :
  keychain:Keychain.t -> cluster:int -> origin:int -> created:Time.t -> nonce:int -> t
(** A no-op batch (paper §2.5): fills a consensus round when a cluster
    has no client requests.  Distinct nonces give distinct digests. *)

val is_noop : t -> bool

val noop_id_of_nonce : int -> int
(** The (negative) id a no-op with this nonce carries. *)

val size : t -> int
(** Number of transactions. *)

val read_only : t -> bool
(** True iff the batch carries at least one transaction and none of
    them writes — eligible for the read-path consensus bypass.
    No-ops and payload-stripped ledger copies are excluded. *)

val stripped : t -> bool
(** True iff this is a non-noop batch whose payload was dropped for
    ledger compactness: replaying it cannot reproduce state. *)

val strip : t -> t
(** A copy without transactions and without the verification memo, so
    nothing in it keeps the original payload reachable.  For a non-noop
    batch, {!stripped} holds of the result.  A deployment's ledgers
    make it once per batch and share it ([Ledger.pool]). *)

val equal_stripped : t -> t -> bool
(** [equal_stripped s b] iff [s] has the content of [strip b] (every
    field but the memo), without building the copy.  Because ledgers
    share stripped batches, which physical record a block holds is an
    implementation detail: compare batches by content, never with
    [==]. *)

val digest_of : id:int -> cluster:int -> origin:int -> txns:Txn.t array -> string
(** The canonical digest (what {!create} signs). *)

val verify : keychain:Keychain.t -> t -> bool
(** Digest integrity plus the client signature; replicas discard
    batches failing this (§2.1).  Memoized per record: replicas verify
    the same immutable batch once per hop, so repeat verifications are
    O(1).  The memo is keyed on every verified field (physical identity
    for [txns]/[digest]/[signature]/keychain, value equality for the
    ids), so tampered copies are always re-verified from scratch. *)

val pp : Format.formatter -> t -> unit
