(** The simulated wide-area network (see DESIGN.md §5).

    A message of [size] bytes from [src] to [dst]:
    + if cross-region, first serializes through [src]'s aggregate WAN
      egress pipe (if enabled);
    + then serializes through the [src]->[region dst] uplink at the
      Table 1 bandwidth of the region pair;
    + then travels for one-way latency (+ jitter) and is delivered.

    Fault injection: crashed nodes neither send nor receive; drop rules
    silently discard matching traffic (Byzantine senders/receivers,
    Example 2.4); partitions sever region pairs; per-directed-link loss
    and duplication rates model degraded links.  Every fault has an
    inverse ([recover], [heal_regions], [restore_link], a rate of 0),
    so the chaos subsystem can schedule bounded fault windows. *)

type 'm t
(** A network carrying payloads of type ['m]. *)

type delivery_hook =
  src:int ->
  dst:int ->
  nth:int ->
  floor:Time.t ->
  arrive:Time.t ->
  last:Time.t option ->
  Time.t
(** Schedule-exploration hook: called once per admitted send with the
    0-based send counter [nth], the earliest legal arrival [floor]
    (departure + base one-way latency; jitter only ever adds), the
    model-computed [arrive], and the latest arrival already scheduled
    on this directed link ([last]).  The returned time replaces
    [arrive], clamped up to [floor] — so every perturbed schedule is
    one the latency model could itself have produced. *)

val create :
  ?wan_egress_mbps:float ->
  ?trace:Rdb_trace.Trace.t ->
  ?shard_of:(int -> int) ->
  engine:Engine.t ->
  topo:Topology.t ->
  jitter_ms:float ->
  deliver:(src:int -> dst:int -> 'm -> unit) ->
  unit ->
  'm t
(** [wan_egress_mbps] caps one node's total cross-region egress
    (0 = uncapped); [jitter_ms] adds uniform random delay in
    [0, jitter_ms).  [trace] records the message lifecycle (queue/tx
    spans, deliver/drop instants) of every message; omitting it makes
    tracing cost a single match per send.  [shard_of] maps a node to
    its engine shard (default: everything on shard 0): deliveries are
    scheduled onto the destination's shard, which is legal under
    conservative sharding because cross-shard links are cross-region
    and the WAN one-way latency floor is the engine's lookahead. *)

val multicast : 'm t -> src:int -> dsts:int list -> size:int -> 'm -> unit
(** The send path: one message from [src] to each of [dsts], in order.
    Each destination gets every decision the wire makes, in order —
    crashed sender, interposer emissions, drop rules, loss, the wire
    model, the delivery hook, duplication — exactly as a send per
    recipient would, and the survivors reach the engine as one pooled
    {!Engine.fanout}: one heap record per destination shard and one
    shared delivery closure, with the executed schedule of individual
    sends (DESIGN.md §17). *)

val send : 'm t -> src:int -> dst:int -> size:int -> 'm -> unit
(** [multicast] to one recipient. *)

val crash : 'm t -> int -> unit
val recover : 'm t -> int -> unit
val is_crashed : 'm t -> int -> bool

val add_drop_rule : 'm t -> (src:int -> dst:int -> bool) -> unit
(** Install a rule that silently discards matching traffic. *)

val clear_drop_rules : 'm t -> unit

val partition_regions : 'm t -> ra:int -> rb:int -> unit
(** Sever all traffic between two regions (both directions). *)

val heal_regions : 'm t -> ra:int -> rb:int -> unit
(** Inverse of {!partition_regions} on the same region pair. *)

val sever_link : 'm t -> src:int -> dst:int -> unit
(** Drop all traffic on one directed node pair (a link flap's down
    edge); other rules and the reverse direction are unaffected. *)

val restore_link : 'm t -> src:int -> dst:int -> unit
(** Inverse of {!sever_link} on the same directed pair. *)

val set_link_loss : 'm t -> src:int -> dst:int -> p:float -> unit
(** Drop each message on the directed link with probability [p]
    (clamped to 1); [p <= 0] heals the link.  Draws from the engine
    RNG only while a rate is installed. *)

val set_link_dup : 'm t -> src:int -> dst:int -> p:float -> unit
(** Deliver a duplicate copy with probability [p]; [p <= 0] heals. *)

type 'm interposer = {
  on_send : src:int -> dst:int -> 'm -> ('m * Time.t) list;
      (** Rewrites one outgoing message into the emissions the
          corrupted sender actually produces, each with an extra
          sender-side delay: [[]] silences, a tampered payload
          equivocates, extra elements replay.  Emissions re-enter the
          normal wire model (bandwidth, latency, drop rules) when
          their hold expires. *)
  on_recv : src:int -> dst:int -> 'm -> bool;
      (** [false] = the corrupted receiver ignores this peer; judged
          at delivery time. *)
}
(** Adversarial interposition (lib/adversary).  Installed only while a
    Byzantine strategy is active; [None] costs one match per send and
    one per delivery. *)

val set_interposer : 'm t -> 'm interposer option -> unit

val set_delivery_hook : 'm t -> delivery_hook option -> unit
(** Install (or remove, with [None]) the exploration hook; resets the
    send counter and the per-link last-arrival table.  Off in every
    normal run. *)

val stats : 'm t -> Stats.t
val topology : 'm t -> Topology.t
