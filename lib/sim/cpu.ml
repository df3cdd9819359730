(* Per-node CPU model, shaped after ResilientDB's multi-threaded
   pipeline (paper §3, Figure 9).

   Each replica runs a fixed set of single-threaded stages:

     input0/1 — the two input threads: parse, MAC-check and verify
                incoming messages (the fabric alternates between them)
     batching — the primary's batch-assembly thread
     worker   — consensus message processing (Pbft phases, votes)
     certify  — certificate construction/verification, global sharing
     execute  — transaction execution (strictly sequential)
     misc     — everything else (clients, timers needing CPU)

   A unit of work of cost c requested at time t on stage s starts at
   max(t, stage_free), occupies the stage until start + c, and its
   continuation fires then.  Because stages are serialized exactly like
   the paper's threads, each stage imposes a throughput ceiling
   (1/cost), which is how the simulator reproduces the compute-bound
   behaviours in §4 (e.g. the execute thread capping every protocol at
   the same per-replica execution rate, or signature-heavy Steward
   saturating its worker).

   Fast path: when the stage is idle and the cost is tiny (a MAC check),
   the continuation runs synchronously; this keeps the event count of
   all-to-all Pbft floods manageable without changing any ordering that
   protocols can observe. *)

type stage = Input0 | Input1 | Batching | Worker | Certify | Execute | Misc

let n_stages = 7

let stage_index = function
  | Input0 -> 0
  | Input1 -> 1
  | Batching -> 2
  | Worker -> 3
  | Certify -> 4
  | Execute -> 5
  | Misc -> 6

let stage_name = function
  | Input0 -> "input0"
  | Input1 -> "input1"
  | Batching -> "batching"
  | Worker -> "worker"
  | Certify -> "certify"
  | Execute -> "execute"
  | Misc -> "misc"

type t = {
  engine : Engine.t;
  busy : Time.t array array;        (* busy.(node).(stage) = busy-until *)
  sync_threshold : Time.t;          (* run continuations inline below this cost *)
  trace : Rdb_trace.Trace.t option; (* per-charge spans; None = no overhead *)
  shard_of : int -> int;            (* engine shard owning each node *)
}

let create ?(sync_threshold = Time.us 5) ?trace ?(shard_of = fun _ -> 0) ~engine ~n_nodes () =
  {
    engine;
    busy = Array.init n_nodes (fun _ -> Array.make n_stages Time.zero);
    sync_threshold;
    trace;
    shard_of;
  }

(* Charge [cost] of CPU work on [stage] of [node]; run [k] on completion.
   The completion event goes to the node's own shard: charges are almost
   always made from there already (the fast path), but control-context
   charges (fault injection poking a node) must not leak onto shard 0. *)
let charge t ~node ~stage ~cost k =
  let s = stage_index stage in
  let now = Engine.now t.engine in
  let start = Time.max now t.busy.(node).(s) in
  let finish = Time.add start cost in
  t.busy.(node).(s) <- finish;
  (match t.trace with
  | None -> ()
  | Some tr -> Rdb_trace.Trace.cpu_span tr ~node ~stage:(stage_name stage) ~start ~dur:cost);
  if Time.( <= ) finish (Time.add now t.sync_threshold) && Time.compare start now = 0 then k ()
  else ignore (Engine.schedule_at_shard t.engine ~shard:(t.shard_of node) ~at:finish k)
