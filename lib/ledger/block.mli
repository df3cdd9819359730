(** A block of the ledger (§3): one executed batch, the commit
    certificate proving its agreement, and the hash chaining that makes
    history tamper-evident. *)

module Batch = Rdb_types.Batch
module Certificate = Rdb_types.Certificate

type t = {
  height : int;                 (** position in the chain, 0-based *)
  round : int;                  (** consensus round that produced it *)
  cluster : int;                (** cluster whose request this is *)
  batch : Batch.t;
  cert : Certificate.t option;  (** [None] only in testing contexts *)
  prev_hash : string;
  hash : string;
}

val genesis_hash : string

val create :
  height:int ->
  round:int ->
  cluster:int ->
  batch:Batch.t ->
  cert:Certificate.t option ->
  prev_hash:string ->
  t

val hash_valid : t -> bool
(** Recompute the hash from the contents; false if tampered. *)

val pp : Format.formatter -> t -> unit
