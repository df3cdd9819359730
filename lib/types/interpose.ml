open Import

(* Adversarial send/receive interposition (DESIGN.md §14).

   A Byzantine strategy needs two things from a protocol: a coarse
   *classification* of its wire messages (so a generic primitive like
   "withhold certificate shares" can name a phase without knowing the
   concrete constructors), and — for equivocation — a way to forge a
   *conflicting* payload that is well-formed enough to pass receiver
   validation.  Each protocol exports both as a [view] value; the
   adversary runtime (lib/adversary) compiles strategy programs against
   it and installs the resulting [t] at the deployment's network edge.

   The hooks are pure with respect to the simulation: silencing,
   delaying, tampering and replaying all happen *before* the bandwidth
   and latency models, exactly as if the corrupted sender had behaved
   that way.  An uninstalled hook costs one option match per send. *)

(* Message classes, the phase vocabulary of strategy primitives.  The
   mapping is the protocol's own judgement call (documented at each
   [adversary] value); [Other] is the explicit "none of the above". *)
type cls =
  | Proposal  (** leader/primary proposals: pre-prepares, order-reqs *)
  | Vote  (** per-replica agreement votes: prepares, commits, accepts *)
  | Share  (** certificate or certificate-share traffic: global shares, QCs, partial signatures *)
  | View_change  (** local and remote view-change machinery *)
  | Sync  (** checkpointing, state transfer, catch-up fetches *)
  | Client  (** client requests, forwards and replies *)
  | Other

let cls_to_string = function
  | Proposal -> "prop"
  | Vote -> "vote"
  | Share -> "share"
  | View_change -> "vc"
  | Sync -> "sync"
  | Client -> "client"
  | Other -> "other"

let cls_of_string = function
  | "prop" -> Some Proposal
  | "vote" -> Some Vote
  | "share" -> Some Share
  | "vc" -> Some View_change
  | "sync" -> Some Sync
  | "client" -> Some Client
  | "other" -> Some Other
  | _ -> None

(* The per-protocol adversarial view.  [conflict] returns a payload
   that *conflicts* with [m] (same slot, different content, validly
   signed via [keychain]) for protocols where the equivocation
   primitive is sound to model, and [None] otherwise; [nonce] makes
   distinct forgeries for distinct proposals while keeping the forgery
   deterministic. *)
type 'm view = {
  classify : 'm -> cls;
  conflict : keychain:Keychain.t -> nonce:int -> 'm -> 'm option;
}

(* One adversarial emission: the (possibly tampered) payload and an
   extra sender-side delay before it enters the network model. *)
type 'm emission = { after : Time.t; emit : 'm }

let pass m = [ { after = Time.zero; emit = m } ]

(* The installed hook pair.  [obtrude] maps every outgoing message of a
   corrupted sender to the list of emissions that actually happen: []
   is targeted silence, a singleton with [after > 0] is delayed or
   slow-drip sending, a tampered payload is equivocation, and extra
   elements are replays.  [admit] is the receive side: [false] means
   the (corrupted) receiver pretends not to have heard [src]. *)
type 'm t = {
  obtrude : src:int -> dst:int -> 'm -> 'm emission list;
  admit : src:int -> dst:int -> 'm -> bool;
}
