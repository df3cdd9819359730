(** Uniform experiment driver: build one {!Scenario.t}, call {!run},
    get the deployment's {!Report.t}.

    The scenario vocabulary (protocols, faults, windows) lives in
    {!Scenario}.  Its types are re-exported here with type equations
    because perfbench/bench.ml, which is frozen with the benchmark,
    matches [Runner.Geobft] and [Runner.No_fault] and reads
    [Runner.warmup]. *)

module Config = Rdb_types.Config
module Time = Rdb_sim.Time
module Report = Rdb_fabric.Report
module Chaos = Rdb_chaos.Chaos

type proto = Scenario.proto = Geobft | Pbft | Zyzzyva | Hotstuff | Steward

(** The §4.3 failure scenarios, plus seeded chaos injection (see
    {!Scenario.fault}). *)
type fault = Scenario.fault =
  | No_fault
  | One_nonprimary
  | F_nonprimary
  | Primary_failure
  | Chaos of int

type windows = Scenario.windows = { warmup : Time.t; measure : Time.t }

type instrument = {
  inst_surface : Chaos.surface;
  inst_engine : Rdb_sim.Engine.t;
  inst_set_delivery_hook : Rdb_sim.Network.delivery_hook option -> unit;
  inst_liveness_window_ms : float;
}
(** What the schedule-exploration checker sees of a deployment it is
    about to run: the chaos-monitor surface (ledgers, clock, deferred
    actions), the engine, the network delivery-hook installer, and the
    protocol's liveness envelope (ms). *)

val timeline : Scenario.t -> Chaos.timeline
(** The scenario's fault as fault windows, planned without a
    deployment: [No_fault] is empty; [One_nonprimary] crashes replica
    n−1 and [F_nonprimary] replicas n−1 … n−f of every cluster at time
    0; [Primary_failure] crashes replica 0 at warmup + 2 s; each of
    these windows closes 1 s after warmup + measure, so its recovery
    never runs.  [Chaos seed] is the planner's draw for the protocol's
    {!chaos_profile}. *)

val run :
  ?tracer:Rdb_trace.Trace.t -> ?install:(instrument -> unit) -> Scenario.t -> Report.t
(** Build the deployment (compact-ledger mode), install the scenario's
    {!timeline} through [Chaos.install] (and arm the invariant monitor
    for [Chaos _]), run warm-up + measurement, return the report.  The
    one entry point of the figures, the checker and the attack search: a
    search's unperturbed run is the figure run, byte for byte.

    When the scenario has [trace = true], a summary-only tracer is
    created internally and the report carries the per-phase breakdown
    plus the deterministic digest.  [tracer] overrides that with an
    externally owned tracer (e.g. one created with [~keep_events:true]
    for Chrome trace-event output).  [install] is called after the
    deployment is built and before the first simulated event, so
    perturbation hooks and extra monitors can be armed on the very
    deployment about to run.

    @raise Chaos.Violation under [Chaos _] if an invariant breaks. *)

val chaos_profile : proto -> Config.t -> Chaos.caps * Chaos.agreement_mode * float
(** What the chaos scheduler may throw at each protocol (capabilities,
    agreement mode, liveness window in ms) — the faults it is
    {e required} to survive, so a violation is always a bug. *)

val adversary_profile : proto -> Config.t -> Rdb_adversary.Adversary.caps
(** The Byzantine-strategy menu each protocol is required to absorb —
    what the attack sampler (lib/check's [attack] search) may draw.
    Mirrors {!chaos_profile}: any violation found inside this envelope
    is a bug, not an expected failure. *)

val chaos_timeline : proto -> ?windows:windows -> seed:int -> Config.t -> Chaos.timeline
(** The exact fault timeline a [Chaos seed] scenario would execute,
    without running it: {!timeline} of that scenario — reproducibility
    made checkable. *)

val chaos_surface :
  (module Rdb_fabric.Deployment.S with type t = 'a) -> 'a -> proto -> Config.t -> Chaos.surface
(** The chaos surface {!run} builds over a deployment of the protocol:
    its faults, ledgers and clock, with the protocol's
    {!chaos_profile} capabilities and agreement mode.  Equivocation
    goes through an adversary runtime of its own, so do not combine it
    with an attack on the same deployment. *)
