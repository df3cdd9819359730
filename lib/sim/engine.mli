(** The discrete-event engine: a clock plus an ordered queue of pending
    events (closures), partitioned into shards that run in conservative
    epochs.  A shard is a heap, an RNG stream and its outboxes; the
    clock, the sequence counter, the executed-event count and the
    freelist of event records are one per engine.

    Determinism contract: with the same seed and the same sequence of
    [schedule] calls, two runs execute identical event sequences — ties
    in time break by scheduling order.  With [shards > 1], every epoch
    runs its shards in shard order on the calling domain; the partition
    fixes the event order (see DESIGN.md §15). *)

type t

type timer
(** Handle to a scheduled event, for cancellation.  Event records are
    pooled and recycled after execution; a generation counter makes
    cancelling an already-fired (recycled) handle a safe no-op. *)

val create : ?seed:int -> ?shards:int -> ?lookahead:Time.t -> unit -> t
(** [shards] (default 1) partitions the event queue; cross-shard events
    must respect [lookahead] (the conservative-DES horizon: a
    cross-shard event scheduled during an epoch starting at T0 may not
    be earlier than T0 + lookahead).  Single-shard engines behave
    exactly like the pre-sharding engine. *)

val current_shard_id : t -> int
(** Shard whose events are executing (0 outside event execution and in
    control actions).  Lets per-shard sinks (the tracer) route
    records. *)

val lookahead : t -> Time.t

val now : t -> Time.t
(** Inside event execution: the executing event's time.  Outside: the
    time the engine has run to, which every shard has reached. *)

val rng : t -> Rdb_prng.Rng.t
(** The engine's deterministic randomness source: the executing shard's
    stream inside event execution, the root stream outside.  On a
    single-shard engine both are the same stream. *)

val rng_of_shard : t -> shard:int -> Rdb_prng.Rng.t

val executed_events : t -> int
(** Events executed so far (diagnostics). *)

val pooled_events : t -> int
(** Recycled event records currently in the freelist (diagnostics). *)

val set_defer_hook : t -> (int -> bool) option -> unit
(** Schedule-exploration hook: when installed, each [schedule_at] call
    (and each cross-shard event, when the barrier lands it) asks the
    hook (with a 0-based call counter, reset by this setter) whether
    the event should be pushed {e behind} its equal-timestamp group.
    Deferred events keep their relative order.  This permutes only
    ties in simulated time — a legal reordering of simultaneous
    events — and is off ([None]) in every normal run.  Any shard count:
    shards run one after another, so the calls are globally ordered,
    and with no perturbation an explored run executes the schedule of
    the same run without the hook. *)

val schedule_calls : t -> int
(** Schedule calls observed since the defer hook was installed. *)

val schedule_at : t -> at:Time.t -> (unit -> unit) -> timer
(** Schedule at an absolute time on the current shard (shard 0 when
    called from outside event execution); times in the past run at
    [now] (causality is preserved, never reordered). *)

val schedule_after : t -> delay:Time.t -> (unit -> unit) -> timer

val schedule_at_shard : t -> shard:int -> at:Time.t -> (unit -> unit) -> timer
(** Schedule onto an explicit shard.  From inside an epoch this stages
    the event in the sending shard's outbox (drained at the next
    barrier in canonical order); the caller must respect the engine's
    lookahead for cross-shard times. *)

val fanout :
  t -> shards:int array -> times:Time.t array -> deliver:(int -> unit) -> unit
(** Pooled fan-out: behave exactly like
    [Array.iteri (fun i sh -> schedule_at_shard t ~shard:sh ~at:times.(i)
       (fun () -> deliver i)) shards]
    — same seq reservations (through the defer hook when one is
    installed), same heap pop order, same cross-shard staging slots —
    but occupy one heap record per destination shard instead of one
    per entry.  Inside or outside event execution, with or without a
    defer hook; the pop-order proof is in DESIGN.md §17.  Fan-outs are
    not cancellable (network deliveries never are). *)

val schedule_control : t -> at:Time.t -> (unit -> unit) -> unit
(** A global action (fault injection, chaos step, monitor probe) that
    must see every shard stopped: runs at an epoch barrier at exactly
    its scheduled time, before same-time ordinary events; equal-time
    controls keep their scheduling order. *)

val cancel : timer -> unit
(** Cancelled events never run; cancelling twice (or after the event
    fired) is harmless. *)

val step : t -> bool
(** Execute the next pending event; false when drained.  Single-shard
    engines only. *)

val run_until : t -> until:Time.t -> unit
(** Run events and controls with timestamp <= [until]; afterwards
    [now t = until] even if the queue drained early. *)

val run : t -> unit
(** Run to quiescence (no pending events or controls).  Beware
    protocols with self-rearming timers: prefer {!run_until}. *)
