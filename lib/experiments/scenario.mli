(** A first-class experiment scenario — protocol, configuration, fault
    and measurement windows as one value with a stable human-readable
    id and a JSON round-trip.

    Scenarios are what the whole evaluation stack exchanges:
    {!Matrices} enumerates the paper's grids of them (and renders each
    artifact from their reports), {!Runner.run} executes one, the
    sweep engine schedules lists of them across domains, and bench
    baselines and perfbench workloads are keyed by {!to_string} ids. *)

module Config = Rdb_types.Config
module Time = Rdb_sim.Time
module Json = Rdb_fabric.Json
module Adversary = Rdb_adversary.Adversary

type proto = Geobft | Pbft | Zyzzyva | Hotstuff | Steward

val all_protocols : proto list
val proto_name : proto -> string
val proto_of_string : string -> proto option

(** The §4.3 failure scenarios, plus seeded chaos injection. *)
type fault =
  | No_fault
  | One_nonprimary   (** one backup crashed from the start *)
  | F_nonprimary     (** f backups per cluster crashed from the start *)
  | Primary_failure  (** the initial primary crashes mid-measurement *)
  | Chaos of int
      (** sample a fault timeline from this seed (negative: use
          [cfg.seed]) and run it under the continuous invariant
          monitor *)

val fault_id : fault -> string
(** Compact id spelling ("one", "chaos:3"), as in [fault=] tokens. *)

val fault_of_id : string -> fault option

type windows = { warmup : Time.t; measure : Time.t }

val default_windows : windows
(** 1 s + 4 s of simulated time: enough for a deterministic simulator
    whose pipelines fill within a second. *)

val full_windows : windows
(** 15 s + 45 s, approaching the paper's 60 s + 120 s methodology. *)

type t = {
  proto : proto;
  cfg : Config.t;
  fault : fault;
  windows : windows;
  trace : bool;
      (** aggregate a consensus-path trace during the run; the report
          then carries the per-phase breakdown and the deterministic
          digest (the sweep engine's determinism witness) *)
  attack : Adversary.Attack.t option;
      (** a Byzantine strategy program (lib/adversary) installed at the
          deployment's send/receive interposition hook; [None] runs
          with the hook disabled (zero overhead).  Spelled
          [attack=<id>] in the scenario id and carried as the versioned
          ["attack"] object in JSON (absent when [None]). *)
}

val make :
  ?windows:windows ->
  ?fault:fault ->
  ?trace:bool ->
  ?attack:Adversary.Attack.t ->
  proto ->
  Config.t ->
  t
(** Defaults: {!default_windows}, [No_fault], no tracing, no attack. *)

val equal : t -> t -> bool

(** {1 Stable id}

    [to_string] spells the swept knobs ([geobft z4 n7 b100 i64 seed1
    w1000+4000]) and appends every [Config] field that differs from
    [Config.default] ([fanout=1], [tcerts], [cost.mac=120], ...), so
    distinct scenarios have distinct ids.  [of_string] inverts it
    exactly; token order is free on input, and an omitted token takes
    its default ([geobft] alone is a valid id).  One table of [Config]
    knobs drives the id and the JSON [config] object. *)

val to_string : t -> string
val of_string : string -> t option

(** {1 JSON} (every field, for the documents that embed a scenario;
    decode a scenario from its id with {!of_string}) *)

val schema_version : int

val to_json : t -> Json.t
val to_json_string : t -> string

val cost_estimate : t -> float
(** Relative single-domain simulation cost (~ z·n²·seconds): the sweep
    engine dispatches expensive scenarios first.  Heuristic only;
    never affects results or their order. *)
