(** Key directory for a deployment: per-node Schnorr key pairs derived
    deterministically from the deployment seed (the permissioned setting
    of §2.1 provisions keys statically).  Only signatures are computed:
    the MACs of §3 are modelled by the network, which delivers the true
    sender, and by the receive cost it charges. *)

type t

val create : seed:string -> n_nodes:int -> t

val sign : t -> signer:int -> string -> Schnorr.signature

val verify : t -> signer:int -> string -> Schnorr.signature -> bool
(** False (rather than an exception) for out-of-range signer ids.
    Recent verdicts are kept in a fixed-size table and replayed only
    for the same signer, signature and payload bytes; a replay
    allocates nothing. *)
