open Import

(** The capability record handed to every replica and client agent.

    Protocols never touch the engine, network or CPU model directly:
    everything flows through this record, built per node by the fabric.
    This keeps protocol code substrate-independent and makes the
    charging of CPU/network costs uniform and auditable.

    Conventions:
    - [send] delivers one message to a list of recipients and declares
      the wire [size] (for the bandwidth model) and the receiver-side
      verification cost [vcost] (charged to the receiver's input
      threads before its handler runs);
    - sender-side CPU (signing, certificate construction, batch
      assembly) is charged explicitly with [charge];
    - [execute] is the single "this batch is ordered" entry point: the
      fabric charges the execute thread, applies the transactions to
      the node's state machine, appends a ledger block, then
      calls [on_done] with the execution result so the protocol can put
      the result digest in its client reply ([None]: appended but not
      applied — snapshot already past this height, or payload
      stripped; skip the reply);
    - [read_execute] serves a read-only batch from current replica
      state, bypassing consensus and the ledger;
    - [state_snapshot]/[app_restore] move real state during recovery
      when ledger payloads are stripped; restores only ratchet forward;
    - [complete] is used by client agents to signal a finished batch. *)

type timer = Engine.timer

type 'm t = {
  id : int;                        (** this node's global id *)
  config : Config.t;
  keychain : Keychain.t;
  rng : Rng.t;
  now : unit -> Time.t;
  send : dsts:int list -> size:int -> vcost:Time.t -> 'm -> unit;
      (** One message to many recipients (in list order), each getting
          exactly what a separate send would.  The fabric binds it to
          the network's pooled fan-out, so an n-recipient message costs
          one event-queue record per destination shard instead of n.
          Call through {!send} and {!multicast}. *)
  charge : stage:Cpu.stage -> cost:Time.t -> (unit -> unit) -> unit;
  set_timer : delay:Time.t -> (unit -> unit) -> timer;
  cancel_timer : timer -> unit;
  execute :
    Batch.t -> cert:Certificate.t option -> on_done:(App.result option -> unit) -> unit;
  read_execute : Batch.t -> on_done:(App.result -> unit) -> unit;
  state_snapshot : unit -> App.snapshot option;
      (** [Some] only when ledger payloads are stripped; [None] when
          the served ledger suffix alone can rebuild state. *)
  app_restore : App.snapshot -> unit;
  ledger_read : height:int -> (Batch.t * Certificate.t option) list;
      (** This node's own ledger suffix from [height] upward — what a
          peer serves during checkpoint state transfer.  [] at client
          agents. *)
  complete : Batch.t -> unit;
  phase : key:int -> name:string -> unit;
      (** Structured phase probe: replicas mark consensus-phase
          transitions (propose / prepare / commit / certify-share /
          execute) for slot [key].  Bound by the fabric to the run's
          tracer ({!Rdb_trace.Trace.phase_mark}) or to a no-op when
          tracing is off — marking must stay cheap enough to leave in
          the hot path unconditionally. *)
}

val send : 'm t -> dst:int -> size:int -> vcost:Time.t -> 'm -> unit
(** One message to one recipient. *)

val multicast : 'm t -> dsts:int list -> size:int -> vcost:Time.t -> 'm -> unit

val map_send : ('a -> 'b) -> 'b t -> 'a t
(** Restrict a context to an embedded sub-protocol speaking its own
    message type (e.g. the Pbft engine inside GeoBFT): sends are mapped
    through the injection into the outer wire type. *)
