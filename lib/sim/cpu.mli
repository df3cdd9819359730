(** Per-node CPU model, shaped after ResilientDB's multi-threaded
    pipeline (paper §3, Figure 9): each node runs a fixed set of
    single-threaded stages; work on a stage serializes, work on
    different stages (or nodes) proceeds in parallel.  Stage throughput
    ceilings are how the simulator reproduces the paper's compute-bound
    behaviours. *)

type stage =
  | Input0      (** first of the two input threads (message verification) *)
  | Input1      (** second input thread *)
  | Batching    (** the primary's batch-assembly thread *)
  | Worker      (** consensus message processing *)
  | Certify     (** certificate construction/verification, global sharing *)
  | Execute     (** strictly-sequential transaction execution *)
  | Misc        (** clients, output threads, everything else *)

type t

val create :
  ?sync_threshold:Time.t ->
  ?trace:Rdb_trace.Trace.t ->
  ?shard_of:(int -> int) ->
  engine:Engine.t ->
  n_nodes:int ->
  unit ->
  t
(** [sync_threshold] (default 5 us): work cheaper than this on an idle
    stage runs its continuation synchronously — an optimization that
    keeps all-to-all message floods tractable without observable
    reordering.  [trace] records one span per [charge] (stage name,
    start, cost); omitting it keeps tracing free.  [shard_of] maps a
    node to its engine shard (default: everything on shard 0) so
    completion events land on the node's own heap. *)

val charge : t -> node:int -> stage:stage -> cost:Time.t -> (unit -> unit) -> unit
(** [charge t ~node ~stage ~cost k] runs [k] when the work completes. *)
