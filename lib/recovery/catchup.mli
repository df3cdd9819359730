(** The one ledger catch-up loop (DESIGN.md §9).  Pbft, GeoBFT,
    Steward and Zyzzyva rejoin through it: a replica back from a crash
    ([recover]), behind its engine's window ([start]) or seeing a gap in
    live traffic ([suspect]) pulls its ledger suffix one peer and one
    {!chunk} at a time.  A full chunk chains a fetch to the same peer; a
    short one ends catch-up once the protocol is [settled].  Each
    protocol wraps [msg] in one [Sync]-classed constructor and supplies
    the per-block [apply].  HotStuff keeps per-instance logs and uses
    {!Recovery} directly. *)

type suffix = {
  blocks : (Rdb_types.Batch.t * Rdb_types.Certificate.t option) list;
  state : Rdb_types.App.snapshot option;
      (** Only on a short chunk, when ledger payloads are stripped. *)
}

type msg =
  | Fetch of { from : int }
  | Chunk of { from : int; view : int; suffix : suffix }
      (** Always sent, even empty: the server's blocks from [from] and
          its view. *)

val chunk : int
(** Blocks per chunk (96). *)

val wire : Rdb_types.Config.t -> msg -> Rdb_types.Wire.cost
(** A chunk pays the receive floor only: its certificates, one per
    block and at least one, are verified on the execute thread. *)

type t = {
  recovery : Recovery.t;
  mutable issued : int;
      (** Ledger appends issued: the height the next fetch asks from. *)
  mutable appended : int;  (** Ledger appends completed. *)
  mutable recovering : bool;
  loop : loop;
}

and loop

val create : msg Rdb_types.Ctx.t -> peers:int list -> t
(** [ctx] sends through the protocol's [Sync] constructor; [peers] are
    the replicas holding this replica's ledger order and view.  They
    are asked own cluster first, a fresh fetch going to the next. *)

val watch :
  t ->
  ?align:int ->
  ?view:(unit -> int) ->
  ?adopt:(view:int -> unit) ->
  ?settled:(unit -> bool) ->
  ?resume:(unit -> unit) ->
  apply:(h:int -> Rdb_types.Batch.t -> Rdb_types.Certificate.t option -> unit) ->
  unit ->
  unit
(** [apply ~h] appends block [h] after [issued] passed it (it may
    advance [issued] further).  A chunk installs whole multiples of
    [align] heights (default 1); [view] is what a server reports,
    [adopt] takes the server's view after each chunk, and [resume] runs
    once catch-up is done. *)

val start : t -> unit
val recover : t -> unit
(** [start] unless recovering; [recover] first resyncs [issued] to
    [appended] (the crash dropped in-flight executes). *)

val suspect : t -> unit
(** Start unless the frontier moves within one stall-task period. *)

val on_message : t -> src:int -> msg -> unit
val read : ?limit:int -> _ Rdb_types.Ctx.t -> from:int -> suffix

val install :
  ?count:int ->
  t ->
  from:int ->
  suffix ->
  apply:(h:int -> Rdb_types.Batch.t -> Rdb_types.Certificate.t option -> unit) ->
  unit
(** Restore the state, then apply the first [count] blocks that land at
    the frontier; count one state transfer. *)
