(** The Pbft replication engine (Castro & Liskov) for one cluster —
    both GeoBFT's local-replication step (§2.2) and, over all z·n
    replicas at once, the standalone Pbft baseline.

    Beyond the three-phase normal case: commit certificates (n − f
    signed commits), checkpointing with quorum-stable garbage
    collection, full local view changes (censorship timers with
    exponential back-off, prepared-certificate carry-over, the f+1 join
    rule, immediate view change on provable equivocation), request
    forwarding, no-op proposals, an external view-change trigger (the
    hook GeoBFT's remote view-change protocol fires, Figure 7 line 17),
    and Byzantine test hooks.

    [on_committed] fires in strictly increasing sequence order. *)

module Batch = Rdb_types.Batch
module Certificate = Rdb_types.Certificate
module Ctx = Rdb_types.Ctx

type t

val create :
  ctx:Messages.msg Ctx.t ->
  members:int array ->
  cluster:int ->
  on_committed:(seq:int -> Batch.t -> Certificate.t -> unit) ->
  on_view_change:(view:int -> unit) ->
  unit ->
  t
(** [members] are the global node ids of this cluster (index = local
    id): contiguous ids [m, m+1, ...] that include [ctx.id], else
    [Invalid_argument].  In-flight sequence numbers are bounded by the
    config's pipeline depth, and a checkpoint is taken every
    checkpoint_interval / batch_size sequence numbers.  [on_view_change]
    fires at every replica when it enters a new view. *)

(** {1 Operation} *)

val submit_batch : t -> Batch.t -> unit
(** At the primary: queue and propose.  At a backup: forward to the
    primary and arm the anti-censorship timer. *)

val propose_noop : t -> unit
(** Propose a no-op if primary with an empty queue (GeoBFT §2.5). *)

val on_message : t -> src:int -> Messages.msg -> unit
(** Feed a protocol message; non-member senders are ignored. *)

val force_view_change : t -> unit
(** External failure detection: treat the current primary as faulty
    (GeoBFT remote view change, Figure 7 line 17). *)

(** {1 Inspection} *)

val view : t -> int
val n_view_changes : t -> int
val primary : t -> int
(** Global node id of the current primary. *)

val is_primary : t -> bool
val in_flight : t -> int
val next_emit : t -> int
(** Next sequence number to be delivered (all below are committed). *)

val next_seq : t -> int
(** Primary: next sequence number to assign. *)

val pending_count : t -> int

(** {1 Checkpoint / recovery} *)

val low_water : t -> int
(** Sequence number of the last stable checkpoint (-1 before any). *)

val stable_digest : t -> string
(** Chain digest at [low_water] — the state-transfer anchor. *)

val checkpoint_every : t -> int
val retained_slots : t -> int
val min_retained_slot : t -> int
(** [max_int] when no slots are retained. *)

val note_external_commit : t -> seq:int -> Batch.t -> bool
(** A batch learned via checkpoint state transfer: advance the emit
    cursor past it (true iff [seq] was exactly the frontier). *)

val install_checkpoint : t -> seq:int -> digest:string -> unit
(** Adopt a transferred stable checkpoint: advance the watermark and
    garbage-collect at or below it. *)

val adopt_view : t -> view:int -> unit
(** Adopt the view learned from f+1 matching state-transfer replies. *)

val on_recover : t -> unit
(** After a crash-recover: revive the (silently dropped) progress
    timer and reset the censorship back-off. *)

val set_on_behind : t -> (seq:int -> unit) option -> unit
(** [set_on_behind t (Some f)] — call [f ~seq] whenever a commit
    message arrives for a sequence number so far past this replica's
    execution frontier that the acceptance window already discards it.
    Nobody retransmits normal-path messages, so without intervention a
    replica in that state is starved forever; the hook lets the owner
    start the same state transfer a crash-rejoin uses. *)
