(** Uniform experiment driver: build one {!Scenario.t}, call {!run},
    get the deployment's {!Report.t}.

    The scenario vocabulary (protocols, faults, windows) lives in
    {!Scenario} and is re-exported here with type equations, so
    [Runner.Geobft], [Runner.Chaos 3] and [{ Runner.warmup; measure }]
    keep working. *)

module Config = Rdb_types.Config
module Time = Rdb_sim.Time
module Report = Rdb_fabric.Report
module Chaos = Rdb_chaos.Chaos

type proto = Scenario.proto = Geobft | Pbft | Zyzzyva | Hotstuff | Steward

val all_protocols : proto list
val proto_name : proto -> string
val proto_of_string : string -> proto option

(** The §4.3 failure scenarios, plus seeded chaos injection (see
    {!Scenario.fault}). *)
type fault = Scenario.fault =
  | No_fault
  | One_nonprimary
  | F_nonprimary
  | Primary_failure
  | Chaos of int

val fault_name : fault -> string

type windows = Scenario.windows = { warmup : Time.t; measure : Time.t }

val default_windows : windows
val full_windows : windows

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

val run :
  ?tracer:Rdb_trace.Trace.t -> ?install:(instrument -> unit) -> Scenario.t -> Report.t
(** Build the deployment (compact-ledger mode), inject the scenario's
    fault, run warm-up + measurement, return the report.  The one entry
    point of the figures, the checker and the attack search: a search's
    unperturbed run is the figure run, byte for byte.

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
    without running it: same deployment construction, same RNG split —
    reproducibility made checkable. *)
