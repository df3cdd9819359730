(** Pbft wire messages, in the configuration the paper uses for
    GeoBFT's local replication (§2.2): digital signatures only on
    client requests and commit messages (the forwarded messages), MACs
    on everything else. *)

module Batch = Rdb_types.Batch
module Schnorr = Rdb_crypto.Schnorr

(** Proof that a replica prepared (seq, digest) in some view; carried
    by view-change messages.  Production Pbft attaches n − f prepare
    signatures; the simulator models that size and verification cost
    and trusts the structure. *)
type prepared_proof = {
  pp_seq : int;
  pp_view : int;
  pp_digest : string;
  pp_batch : Batch.t;
}

type msg =
  | Forward of Batch.t
      (** a backup forwarding a client request to the primary *)
  | Preprepare of { view : int; seq : int; batch : Batch.t }
  | Prepare of { view : int; seq : int; digest : string }
  | Commit of { view : int; seq : int; digest : string; signature : Schnorr.signature }
      (** signed: commits form the commit certificate (§2.2) *)
  | Checkpoint of { seq : int; state_digest : string }
  | ViewChange of { target : int; last_stable : int; prepared : prepared_proof list }
  | NewView of { target : int; preprepares : (int * Batch.t) list }


val classify : msg -> Rdb_types.Interpose.cls
(** The adversary's class of each engine message (DESIGN.md §14). *)

val wire : Rdb_types.Config.t -> msg -> Rdb_types.Wire.cost
(** Bytes and receiver signature checks of each engine message. *)

val conflict : keychain:Rdb_crypto.Keychain.t -> nonce:int -> msg -> msg option
(** A pre-prepare's equivocating twin: a validly signed no-op batch in
    the same (view, seq) slot; [None] for every other message. *)
