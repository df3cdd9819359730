(* The interface every consensus protocol implements.

   A protocol provides two state machines:
   - the *replica* machine, instantiated at every replica node;
   - the *client agent* machine, instantiated at each cluster's client
     group node.  It submits batches, counts replies, and signals
     completion via [Ctx.complete].  pbft, GeoBFT, Steward and HotStuff
     build it from {!Client_core} by handing over their request and
     read constructors and destinations ([type client = msg
     Client_core.t]); Zyzzyva's agent additionally drives the
     commit-certificate recovery path, which is why the agent is
     protocol-owned rather than fabric-owned.

   Replicas and clients exchange values of the protocol's [msg] type,
   whose bytes and receiver signature checks [wire] declares once; the
   fabric prices every send from it ([Config.recv_cost]) and delivers
   with [on_message] / [on_client_message] after charging that cost. *)

(* Counters for the recovery subsystem (lib/recovery): checkpoint
   state transfers installed, execution holes filled by catch-up
   fetches, and timeout-driven protocol retransmissions.  Protocols
   without a given mechanism report 0. *)
type recovery_stats = {
  state_transfers : int;
  holes_filled : int;
  retransmissions : int;
}

let no_recovery = { state_transfers = 0; holes_filled = 0; retransmissions = 0 }

let add_recovery a b =
  {
    state_transfers = a.state_transfers + b.state_transfers;
    holes_filled = a.holes_filled + b.holes_filled;
    retransmissions = a.retransmissions + b.retransmissions;
  }

module type S = sig
  val name : string

  type msg
  type replica
  type client

  (* The adversarial view of the wire format: a coarse message
     classification plus (where sound) a conflicting-payload forgery,
     consumed by the Byzantine-strategy subsystem (lib/adversary). *)
  val adversary : msg Interpose.view

  val wire : Config.t -> msg -> Wire.cost

  val create_replica : msg Ctx.t -> replica
  val on_message : replica -> src:int -> msg -> unit

  (* View changes this replica has completed (0 for protocols without
     a view-change notion); used by the failure experiments. *)
  val view_changes : replica -> int

  (* Crash-recovery hook: the fabric calls this after un-crashing a
     replica.  Timers armed before the crash were dropped while the
     node was down, so protocols restart their self-rearming tasks
     here and kick off state transfer / catch-up as needed. *)
  val on_recover : replica -> unit

  val recovery : replica -> recovery_stats

  val create_client : msg Ctx.t -> cluster:int -> client
  val submit : client -> Batch.t -> unit
  val on_client_message : client -> src:int -> msg -> unit
end
