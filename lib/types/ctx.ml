open Import

(* The capability record handed to every replica and client agent.

   Protocol implementations never touch the engine, the network or the
   CPU model directly: everything flows through this record, which the
   fabric constructs per node.  That keeps protocol code independent of
   the substrate (the test suite also instantiates protocols over a
   loopback harness) and makes the charging of CPU/network costs
   uniform and auditable.

   Conventions:
   - [send] delivers one message to a list of recipients (in list
     order); it declares the wire [size] (bandwidth model) and the
     receiver-side verification cost [vcost] (charged to the receiver's
     worker thread before its handler runs).  The fabric binds it to
     the network's pooled fan-out, so an n-recipient message costs one
     event-queue record per destination shard instead of n.  Protocols
     call it through [send] (one recipient) and [multicast].
   - Sender-side CPU (signing, certificate construction, batch
     assembly) is charged explicitly with [charge]; continuations fire
     when the stage completes.
   - [execute] is the single entry point for "this batch is ordered":
     the fabric charges the execute thread, applies the transactions to
     the node's state machine, appends a ledger block, and then
     calls [on_done] with the execution result so the protocol can put
     the result digest in its client reply.  [on_done None] means the
     batch was appended to the ledger but not applied to state — the
     state machine was already past this height (a state snapshot was installed)
     or the payload was stripped; the protocol then skips its reply and
     lets up-to-date replicas answer.
   - [read_execute] serves a read-only batch from current replica state
     without consensus and without touching the ledger.
   - [state_snapshot]/[app_restore] are the recovery seam: a serving
     replica attaches its state snapshot to state-transfer messages
     when ledger payloads are stripped (replay alone cannot rebuild
     state), and the recovering replica installs it.  Restores only
     ratchet forward (Kv.restore ignores a snapshot at or below the
     current height), so any interleaving with in-flight executes is
     safe. *)

type timer = Engine.timer

type 'm t = {
  id : int;                                  (* this node's global id *)
  config : Config.t;
  keychain : Keychain.t;
  rng : Rng.t;
  now : unit -> Time.t;
  send : dsts:int list -> size:int -> vcost:Time.t -> 'm -> unit;
  charge : stage:Cpu.stage -> cost:Time.t -> (unit -> unit) -> unit;
  set_timer : delay:Time.t -> (unit -> unit) -> timer;
  cancel_timer : timer -> unit;
  execute :
    Batch.t -> cert:Certificate.t option -> on_done:(App.result option -> unit) -> unit;
  read_execute : Batch.t -> on_done:(App.result -> unit) -> unit;
  state_snapshot : unit -> App.snapshot option;
  (* [Some] only when ledger payloads are stripped (replay cannot
     rebuild state); [None] when the ledger suffix alone suffices. *)
  app_restore : App.snapshot -> unit;
  (* Read this node's own ledger suffix from [height] upward: the
     source material a peer serves during checkpoint state transfer.
     Client agents have no ledger and always read []. *)
  ledger_read : height:int -> (Batch.t * Certificate.t option) list;
  complete : Batch.t -> unit;                (* client agents: batch done *)
  (* Structured phase probe: replicas mark consensus-phase transitions
     (propose / prepare / commit / certify-share / execute) per slot
     [key]; the fabric binds it to the run's tracer, or to a no-op when
     tracing is off.  See Rdb_trace.Trace.phase_mark. *)
  phase : key:int -> name:string -> unit;
}

let send t ~dst ~size ~vcost msg = t.send ~dsts:[ dst ] ~size ~vcost msg
let multicast t ~dsts ~size ~vcost msg = t.send ~dsts ~size ~vcost msg

(* Restrict a context to an embedded sub-protocol speaking its own
   message type (e.g. the Pbft engine inside GeoBFT): sends are mapped
   through [inject] into the outer wire type. *)
let map_send (inject : 'a -> 'b) (t : 'b t) : 'a t =
  {
    id = t.id;
    config = t.config;
    keychain = t.keychain;
    rng = t.rng;
    now = t.now;
    send = (fun ~dsts ~size ~vcost m -> t.send ~dsts ~size ~vcost (inject m));
    charge = t.charge;
    set_timer = t.set_timer;
    cancel_timer = t.cancel_timer;
    execute = t.execute;
    read_execute = t.read_execute;
    state_snapshot = t.state_snapshot;
    app_restore = t.app_restore;
    ledger_read = t.ledger_read;
    complete = t.complete;
    phase = t.phase;
  }
