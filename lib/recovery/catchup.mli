(** Ledger catch-up shared by pbft and GeoBFT (DESIGN.md §9): the
    append cursor, starting a catch-up on one {!Recovery} task that
    refetches with backoff while [issued] stalls, and the ledger suffix
    a peer serves and the requester replays.  Which peers to ask, the
    messages, pbft's f+1 anchor vote, GeoBFT's round alignment and the
    per-block action stay in the protocols.  HotStuff and Steward catch
    up in other shapes and use {!Recovery} directly. *)

type t = {
  recovery : Recovery.t;
  mutable issued : int;
      (** Ledger appends issued (execute calls): the height the next
          fetch asks from, and the task's progress token. *)
  mutable appended : int;  (** Ledger appends completed ([on_done]). *)
  mutable recovering : bool;  (** Cleared by the protocol at the live frontier. *)
  mutable fetch : attempt:int -> unit;
  mutable on_start : unit -> unit;
}

val create : _ Rdb_types.Ctx.t -> t

val watch : t -> ?on_start:(unit -> unit) -> fetch:(attempt:int -> unit) -> unit -> unit
(** Install the protocol's [fetch] once the replica exists: the task is
    needed while [recovering], and each stalled fire counts a
    retransmission and calls [fetch ~attempt].  [on_start] runs as a
    catch-up starts, before its first fetch. *)

val start : t -> unit
(** Unless recovering: set [recovering], [on_start], count a
    retransmission, [fetch ~attempt:0], {!Recovery.start}. *)

val recover : t -> unit
(** Crash rejoin: resync [issued] to [appended] (in-flight executes
    were dropped), then start as {!start} does without counting a
    retransmission. *)

type suffix = {
  blocks : (Rdb_types.Batch.t * Rdb_types.Certificate.t option) list;
  state : Rdb_types.App.snapshot option;
      (** Only on a final chunk, and only when ledger payloads are
          stripped so replay cannot rebuild state. *)
}

val read : ?limit:int -> _ Rdb_types.Ctx.t -> from:int -> suffix
(** At most [limit] blocks (default: all) from height [from]; a chunk
    shorter than [limit] carries [state_snapshot ()]. *)

val bytes : Rdb_types.Config.t -> suffix -> int
(** {!Rdb_types.Wire.snapshot_bytes} plus the state's length. *)

val verifies : suffix -> int
(** Signature checks its receiver performs: one certificate per block,
    at least one. *)

val install :
  ?count:int ->
  t ->
  _ Rdb_types.Ctx.t ->
  from:int ->
  suffix ->
  apply:(h:int -> Rdb_types.Batch.t -> Rdb_types.Certificate.t option -> unit) ->
  unit
(** Restore the state, then for each of the first [count] blocks
    (default: all) at the frontier ([from + i = issued]) advance
    [issued] and [apply ~h]; count one state transfer. *)
