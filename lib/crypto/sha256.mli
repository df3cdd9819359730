(** SHA-256 (FIPS 180-4) — the repo-wide collision-resistant digest
    (block hashes, request digests, checkpoint digests), implemented
    from scratch and verified against the NIST test vectors.

    Block compression runs on the x86-64 SHA extensions when the CPU
    has them and in OCaml otherwise; both give the same bytes. *)

val native : bool
(** Whether {!init} contexts compress on the SHA extensions.  Fixed at
    initialisation from a CPUID probe. *)

type ctx
(** Streaming digest context. *)

val init : unit -> ctx

val init_reference : unit -> ctx
(** A context that always compresses in OCaml, whatever {!native}
    says: the reference the kernel is tested against. *)

val feed_bytes : ctx -> Bytes.t -> int -> int -> unit
(** [feed_bytes ctx b off len] absorbs [len] bytes of [b] at [off].
    @raise Invalid_argument if [off] and [len] do not name a valid
    range of [b]. *)

val feed_string : ctx -> string -> unit

val finalize : ctx -> string
(** Pad, finish, and return the raw 32-byte digest.  The context must
    not be reused afterwards. *)

val digest : string -> string
(** One-shot raw 32-byte digest. *)

val digest_hex : string -> string
(** One-shot digest, hex-encoded (64 characters). *)

val digest_list : string list -> string
(** Digest of the concatenation, without materializing it. *)
