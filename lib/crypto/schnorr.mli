(** Schnorr signatures over the multiplicative group of Z_p, p = 2^61-1.

    Structurally the textbook scheme (ED25519 is a Schnorr variant);
    deterministic nonces make signatures reproducible.  The field is
    far too small for real security — see DESIGN.md: signing and
    verification {e logic} (including rejection of tampered messages
    and forged signers) is real and exercised by the protocols, while
    the {e performance} of production ED25519 is modeled by the
    simulator's CPU cost model. *)

type public_key
type secret_key
type signature = { e : int64; s : int64 }

val keygen : seed:string -> key_id:int -> secret_key
(** Deterministic key generation: all parties can derive each other's
    public keys from the shared deployment seed (permissioned setting). *)

val public_key : secret_key -> public_key

val sign : secret_key -> string -> signature
(** Deterministic (RFC 6979-style nonce) signature over a message. *)

val verify : public_key -> string -> signature -> bool

val signature_bytes : int
(** Length of the wire encoding: 16. *)

val signature_to_string : signature -> string
(** 16-byte wire encoding: [e] then [s], each a little-endian int64.
    Every word round-trips exactly, including out-of-range words and
    words with the sign bit set. *)

val signature_of_string : string -> signature option
(** [None] unless the string is exactly {!signature_bytes} long. *)

val write_signature : Bytes.t -> int -> signature -> unit
(** [write_signature b off sg] writes the wire encoding of [sg] at
    [b.[off]] .. [b.[off + 15]]. *)

val read_signature : string -> int -> signature
(** [read_signature s off] decodes the wire encoding at [s.[off]].
    @raise Invalid_argument if fewer than 16 bytes remain. *)
