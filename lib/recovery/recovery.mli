(** Per-replica recovery handle (DESIGN.md §9): the recovery counters
    plus one stall-watch task with exponential backoff and jitter.

    The protocols build their catch-up paths on it:
    - Pbft, GeoBFT, Steward and Zyzzyva through {!Catchup}, the one
      ledger catch-up loop, which adds the ledger cursor, the message
      pair and the peer rotation on top of one handle;
    - HotStuff directly: one path for every stalled instance, chunked
      transfers of the instance's log from the replica's frontier;
    - Steward also directly: timeout retransmission of the
      representative channel.

    The task watches a progress token and fires a recovery action only
    while progress is stalled:
    - [needed ()] false: the task retires (caught up / nothing to do);
    - progress token changed since the last tick: reset the backoff and
      keep watching without firing (the protocol is healing on its own;
      don't inject extra traffic);
    - token unchanged: [fire ~attempt], then re-arm after
      [min (8 × local_timeout) (local_timeout × 2^attempt)], stretched by
      up to 25% jitter.

    Determinism discipline: jitter is drawn from the node's own RNG
    stream only after an actual stalled fire, and protocols arm the task
    only when they detect lag or recover from a crash — a fault-free
    run never touches the RNG.

    Timers die silently while a node is crashed (the fabric drops the
    callback), so a pending tick can be lost: {!start} bumps a
    generation counter, orphaning any zombie tick, and arms a fresh
    timer.  Protocols call {!ensure} whenever they notice lag and
    {!start} from their [on_recover] hook. *)

type t

val create : _ Rdb_types.Ctx.t -> t
(** An idle handle on the node's timers and RNG, with backoff base
    [config.local_timeout_ms].  Until {!watch} installs the callbacks
    the task is never needed. *)

val watch :
  t -> needed:(unit -> bool) -> progress:(unit -> int) -> fire:(attempt:int -> unit) -> unit
(** Install the task's callbacks, once the replica record exists. *)

val start : t -> unit
(** (Re)start from scratch — orphans any pending tick. *)

val ensure : t -> unit
(** Arm only if not already watching. *)

val note_retransmit : t -> unit
(** One timeout- or lag-driven resend. *)

val note_installed : t -> filled:int -> unit
(** One state transfer that filled [filled] batches; nothing when
    [filled = 0]. *)

val stats : t -> Rdb_types.Protocol.recovery_stats
