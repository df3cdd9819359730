(** HotStuff (Yin et al.) in the exact configuration the paper
    implemented (§3): the four-phase basic protocol, no threshold
    signatures, and every replica acting as a primary in parallel
    without pacemaker synchronization — replica i orders the batches
    submitted to it in instance i (a pipeline four heights deep, as
    in chained HotStuff).  Clients submit round-robin to their local
    region's replicas and rotate away from a crashed leader on
    retransmission.
    Satisfies {!Rdb_types.Protocol.S}. *)

module Batch = Rdb_types.Batch
module Ctx = Rdb_types.Ctx

val name : string

type phase = Prepare | Precommit | Commit

type msg =
  | Request of Batch.t
  | Propose of { inst : int; height : int; batch : Batch.t }
  | Vote of { inst : int; height : int; phase : phase; digest : string }
  | Qc of { inst : int; height : int; phase : phase; digest : string }
  | Reply of { batch_id : int; result_digest : string }
  | Fetch_log of { inst : int; from : int }
      (** Ledger state transfer, the one catch-up path of a stalled
          instance: request the contiguous executed suffix of an
          instance's log starting at [from]. *)
  | Log_suffix of { inst : int; from : int; batches : Batch.t list }

type replica
type client = msg Rdb_types.Client_core.t

val create_replica : msg Ctx.t -> replica
val on_message : replica -> src:int -> msg -> unit
val view_changes : replica -> int

val decided_total : replica -> int
(** Batches this replica has decided-and-executed, over all instances. *)

val on_recover : replica -> unit
(** Crash-recover hook: re-arm the stall task that fetches a stalled
    instance's log. *)

val recovery : replica -> Rdb_types.Protocol.recovery_stats


val create_client : msg Ctx.t -> cluster:int -> client
val submit : client -> Batch.t -> unit
val on_client_message : client -> src:int -> msg -> unit

val wire : Rdb_types.Config.t -> msg -> Rdb_types.Wire.cost
(** Bytes and receiver signature checks of each message. *)

val adversary : msg Rdb_types.Interpose.view
(** Adversarial message classification ([Share] = the leader's phase
    certificates); content equivocation is not modelled, so
    [conflict] is always [None]. *)
