(** Adversarial send/receive interposition (DESIGN.md §14).

    Protocols export a {!view} (message classification + conflicting
    payload forgery); the adversary runtime compiles Byzantine strategy
    programs against it and installs the resulting hook pair {!t} at
    the deployment's network edge.  Uninstalled hooks cost one option
    match per send — the zero-overhead-when-off contract shared with
    tracing and the schedule-exploration hook. *)

open Import

type cls =
  | Proposal  (** leader/primary proposals: pre-prepares, order-reqs *)
  | Vote  (** per-replica agreement votes: prepares, commits, accepts *)
  | Share
      (** certificate or certificate-share traffic: global shares, QCs,
          threshold-signature partials *)
  | View_change  (** local and remote view-change machinery *)
  | Sync  (** checkpointing, state transfer, catch-up fetches *)
  | Client  (** client requests, forwards and replies *)
  | Other

val cls_to_string : cls -> string
val cls_of_string : string -> cls option

type 'm view = {
  classify : 'm -> cls;
  conflict : keychain:Keychain.t -> nonce:int -> 'm -> 'm option;
      (** A validly-signed payload conflicting with the argument (same
          slot, different content), for protocols where modelling
          equivocation is sound; [None] where it is not.  [nonce]
          differentiates forgeries across proposals deterministically. *)
}

type 'm emission = { after : Time.t; emit : 'm }
(** One adversarial emission: payload plus extra sender-side delay
    applied before the bandwidth/latency model. *)

val pass : 'm -> 'm emission list
(** The identity emission list: the message, undelayed. *)

type 'm t = {
  obtrude : src:int -> dst:int -> 'm -> 'm emission list;
      (** Send side: [[]] silences, [after > 0] delays, a tampered
          payload equivocates, extra elements replay. *)
  admit : src:int -> dst:int -> 'm -> bool;
      (** Receive side: [false] = the corrupted receiver ignores [src]. *)
}
