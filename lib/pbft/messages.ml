(* Pbft wire messages (Castro & Liskov, OSDI '99), in the configuration
   the paper uses for GeoBFT's local replication (§2.2): digital
   signatures only on client requests and commit messages (the messages
   that get forwarded), MACs on everything else.

   [Forward] carries a client request from a backup to the primary
   (clients talk to the primary; if they suspect it, they broadcast,
   and backups forward + start a view-change timer — the standard
   Pbft anti-censorship mechanism, which §2.5 relies on to rule out
   primaries indefinitely proposing no-ops). *)

module Batch = Rdb_types.Batch
module Config = Rdb_types.Config
module Wire = Rdb_types.Wire
module Schnorr = Rdb_crypto.Schnorr

(* Proof that a replica had prepared (seq, digest) in some view; part
   of a view-change message.  In production this carries n − f prepare
   signatures; the simulator models its size and verification cost and
   trusts the structure (Byzantine tests attack the protocol paths, not
   the signature encoding). *)
type prepared_proof = {
  pp_seq : int;
  pp_view : int;
  pp_digest : string;
  pp_batch : Batch.t;
}

type msg =
  | Forward of Batch.t
  | Preprepare of { view : int; seq : int; batch : Batch.t }
  | Prepare of { view : int; seq : int; digest : string }
  | Commit of { view : int; seq : int; digest : string; signature : Schnorr.signature }
  | Checkpoint of { seq : int; state_digest : string }
  | ViewChange of { target : int; last_stable : int; prepared : prepared_proof list }
  | NewView of { target : int; preprepares : (int * Batch.t) list }

let kind = function
  | Forward _ -> "forward"
  | Preprepare _ -> "preprepare"
  | Prepare _ -> "prepare"
  | Commit _ -> "commit"
  | Checkpoint _ -> "checkpoint"
  | ViewChange _ -> "view-change"
  | NewView _ -> "new-view"

(* The adversary's view of engine messages (lib/adversary), shared by
   every protocol that wraps this engine.  Equivocation is modelled on
   pre-prepares only: the forged payload is a validly signed no-op
   batch in the same (view, seq) slot, so it passes backup-side batch
   verification — the classic two-faced primary that prepare/commit
   vote counting must contain. *)
let classify : msg -> Rdb_types.Interpose.cls = function
  | Preprepare _ -> Proposal
  | Prepare _ | Commit _ -> Vote
  | Checkpoint _ -> Sync
  | ViewChange _ | NewView _ -> View_change
  | Forward _ -> Client

(* Engine messages' wire, shared by every protocol wrapping the engine.
   A forward is deduplicated before verification: its client signature
   is checked at pre-prepare time. *)
let wire (cfg : Config.t) m : Wire.cost =
  let batch_size = cfg.Config.batch_size in
  let batch = Wire.batch_bytes ~batch_size in
  match m with
  | Forward _ -> { bytes = batch; verifies = 0 }
  | Preprepare _ -> { bytes = batch; verifies = 1 }
  | Prepare _ | Checkpoint _ -> { bytes = Wire.small; verifies = 0 }
  | Commit _ -> { bytes = Wire.small; verifies = 1 }
  | ViewChange { prepared; _ } ->
      let k = List.length prepared in
      { bytes = Wire.view_change_bytes ~batch_size ~prepared:k; verifies = k }
  | NewView { preprepares; _ } ->
      let k = List.length preprepares in
      { bytes = Wire.small + (batch * k); verifies = k }

let conflict ~keychain ~nonce = function
  | Preprepare { view; seq; batch } ->
      let forged =
        Batch.noop ~keychain ~cluster:batch.Batch.cluster ~origin:batch.Batch.origin
          ~created:batch.Batch.created ~nonce
      in
      Some (Preprepare { view; seq; batch = forged })
  | _ -> None
