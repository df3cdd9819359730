open Import

(** Commit certificates: the proof [⟨T⟩c, ρ]_C that cluster [C]
    committed a batch in round [ρ] — n − f signed commit messages from
    distinct replicas (paper §2.2).  The only consensus artifact that
    crosses cluster boundaries in GeoBFT, and what makes ledger blocks
    tamper-proof (§3).

    {b Layout.}  Every ledger block holds one certificate, so its
    commits are one flat, immutable string ({!commits}) with 24 bytes
    per commit, in ascending signer order: the signer's global node id
    as a little-endian int64, then the signature in its 16-byte
    {!Schnorr.signature_to_string} encoding.  A 19-signer certificate
    is 66 words (a 7-word record and a 59-word string) besides its
    digest, against 292 for a [commit_sig list].  Every word is
    stored whole: no value is clamped and no sentinel is reserved, so
    forged signers and signature words (out of range, sign bit set)
    read back exactly and are rejected by {!verify}, not by the
    encoding.  Build certificates with {!make} or {!collect}; read
    them with {!n_signatures}, {!distinct_signers} or {!commits}. *)

type commit_sig = { replica : int; signature : Schnorr.signature }

type commits
(** The flat commit block described above. *)

type memo
(** Verification memo (see {!verify}); names the record it was
    computed for, so altered copies miss it. *)

type t = {
  cluster : int;
  view : int;
  seq : int;              (** local Pbft sequence = GeoBFT round *)
  digest : string;        (** batch digest the commits endorse *)
  commits : commits;
  mutable vmemo : memo;   (** cached verification verdict *)
}

val commit_payload : cluster:int -> view:int -> seq:int -> digest:string -> string
(** The signed payload of one commit message: binds cluster, view,
    sequence number and batch digest, preventing replays. *)

val make :
  cluster:int -> view:int -> seq:int -> digest:string -> commits:commit_sig list -> t
(** A certificate holding exactly [commits], sorted by signer
    (duplicates kept, so {!verify} rejects them). *)

val collect :
  cluster:int ->
  view:int ->
  seq:int ->
  digest:string ->
  max:int ->
  ((replica:int -> Schnorr.signature -> unit) -> unit) ->
  t
(** [collect ... ~max iter] keeps the first [max] commits that [iter]
    passes to its argument, written straight into the flat block.
    @raise Invalid_argument if a kept signer is not above the one
    before. *)

val n_signatures : t -> int
(** Signatures a verifier must check (drives the modeled CPU cost).
    O(1). *)

val commits : t -> commit_sig list
(** Every commit, in signer order. *)

val distinct_signers : t -> bool
(** No signer appears twice. *)

val verify : keychain:Keychain.t -> quorum:int -> t -> bool
(** At least [quorum] distinct signers, no duplicates, every signature
    valid over the same payload.  Memoized per record (certificates are
    re-verified by every receiving replica): the memo holds the record,
    keychain and quorum it was computed for, so altered copies or a
    different quorum requirement trigger full re-verification. *)

val pp : Format.formatter -> t -> unit
