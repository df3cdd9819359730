(** Structured consensus-path tracing.

    A [Trace.t] collects three families of events from a simulation run:

    - network message lifecycle ([net] category): per-message [queue],
      [tx] (serialization) spans and [deliver] / [drop] instants emitted
      by {!Sim.Network};
    - CPU charge spans ([cpu] category) emitted by {!Sim.Cpu}, one per
      [charge] with the pipeline stage as the event name;
    - protocol-phase spans ([phase] category): propose / prepare /
      commit / certify-share / execute marks emitted by the replicas,
      chained per consensus slot (see {!phase_mark}).

    The tracer is *zero overhead when off*: subsystems hold a
    [Trace.t option] and skip all event construction when it is [None].

    Every event is folded into a streaming SHA-256 over a canonical
    textual encoding, so two runs with the same seed produce the same
    digest — the determinism contract of the DES extended to the full
    event stream.  Events themselves are only retained in memory when
    [keep_events] is set (required by {!write_chrome_json}); the
    aggregate summary and digest never need retention. *)

type t

val create : ?keep_events:bool -> unit -> t
(** [keep_events] (default [false]) retains the raw event list for
    {!write_chrome_json}; aggregation and the digest work either way. *)

val set_shards : t -> n:int -> shard_of_now:(unit -> int) -> unit
(** Split the tracer into [n] per-shard sub-streams; every subsequent
    event is routed to sub-stream [shard_of_now ()].  Per-shard content
    is independent of the order an epoch runs its shards in.  With
    [n = 1] (the default at creation) the digest is
    exactly the pre-sharding single-stream digest; with [n > 1] it is a
    SHA-256 over the concatenated per-shard digests, in shard order.
    Must be called before any event is emitted. *)

(** {1 Event emission (called by the instrumented subsystems)} *)

val span :
  t -> cat:string -> name:string -> node:int -> ts:int -> dur:int -> ?arg:string -> unit -> unit
(** Complete span: [ts] start and [dur] duration in simulated ns. *)

val instant : t -> cat:string -> name:string -> node:int -> ts:int -> ?arg:string -> unit -> unit

val net_send :
  t -> src:int -> dst:int -> size:int -> local:bool -> now:int -> start:int -> depart:int -> unit
(** Message admitted to the network at [now], starts transmitting at
    [start] (uplink/WAN queueing before that), fully serialized at
    [depart].  Emits a [queue] span ([now, start)) when there was any
    queueing and a [tx] span ([start, depart)), both on the sender's
    track, and bumps the local/global counters. *)

val net_deliver : t -> src:int -> dst:int -> size:int -> at:int -> unit
val net_drop : t -> src:int -> dst:int -> size:int -> at:int -> reason:string -> unit

val cpu_span : t -> node:int -> stage:string -> start:int -> dur:int -> unit

val phase_mark : t -> node:int -> key:int -> name:string -> now:int -> unit
(** Protocol-phase chaining, per (node, consensus-slot [key]) pair.
    The first mark for a key opens a chain with an instant; each
    subsequent mark emits a span from the previous mark's timestamp to
    [now], attributed to the {e new} phase name (i.e. the span measures
    how long it took to {e reach} that phase).  ["execute"] is terminal:
    it closes and forgets the chain, bounding memory. *)

val note_decision : t -> unit
(** Called once per consensus decision (by the deployment, on the
    observer node) so per-decision message counts can be derived. *)

val set_track_name : t -> node:int -> string -> unit
(** Human-readable track label for Chrome/Perfetto output. *)

(** {1 Results} *)

type phase_row = {
  phase : string;
  count : int;  (** number of spans attributed to this phase *)
  total_ms : float;
  avg_ms : float;
  max_ms : float;
}

type summary = {
  phases : phase_row list;  (** sorted by phase name, deterministic *)
  net_local : int;  (** intra-region messages traced *)
  net_global : int;  (** inter-region messages traced *)
  net_dropped : int;
  decisions : int;
  events : int;  (** total events folded into the digest *)
  digest_hex : string;  (** SHA-256 over the canonical event stream *)
}

val summary : t -> summary
(** Finalizes the digest; call once, at end of run.  Subsequent event
    emission on this tracer is a programming error. *)

val pp_summary : Format.formatter -> summary -> unit

val write_chrome_json : t -> out_channel -> unit
(** Chrome trace-event JSON (one [tid] track per node, [ph:"X"]
    complete spans with microsecond timestamps, [ph:"i"] instants,
    thread-name metadata from {!set_track_name}).  Loadable in
    Perfetto / [chrome://tracing].  Requires [keep_events]; raises
    [Invalid_argument] otherwise. *)

val events_kept : t -> int
(** Number of retained events (0 unless [keep_events]). *)
