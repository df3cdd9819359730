(** Key directory for a deployment: per-node Schnorr key pairs and
    pairwise AES-CMAC channel keys, all derived deterministically from
    the deployment seed (the permissioned setting of §2.1 provisions
    keys statically). *)

type t

val create : seed:string -> n_nodes:int -> t

val n_nodes : t -> int

val secret_key : t -> int -> Schnorr.secret_key
val public_key : t -> int -> Schnorr.public_key

val channel_key : t -> a:int -> b:int -> Cmac.key
(** Symmetric CMAC key of the unordered channel [{a, b}]; cached.
    @raise Invalid_argument if an id is out of range. *)

val sign : t -> signer:int -> string -> Schnorr.signature

val verify : t -> signer:int -> string -> Schnorr.signature -> bool
(** False (rather than an exception) for out-of-range signer ids.
    Recent verdicts are kept in a fixed-size table and replayed only
    for the same signer, signature and payload bytes; a replay
    allocates nothing. *)

val mac : t -> src:int -> dst:int -> string -> string
val verify_mac : t -> src:int -> dst:int -> string -> tag:string -> bool
