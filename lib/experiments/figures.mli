(** The paper's Figures 10-13 as runnable experiments.

    Every figure exposes the same shape: [scenarios] is the single
    source of truth for its parameter grid (bench, the sweep engine
    and the CLI all enumerate through it), [rows_of_reports] folds
    ordered (scenario, report) pairs back into plot rows, and [print]
    renders the series the paper plots (EXPERIMENTS.md compares the
    values). *)

module Config = Rdb_types.Config
module Report = Rdb_fabric.Report
open Runner

type row = { proto : proto; x : int; report : Report.t }

(** Figure 10: throughput & latency vs number of clusters; zn = 60. *)
module Fig10 : sig
  val zs : int list
  val cfg_of : ?base:Config.t -> int -> Config.t

  val scenarios :
    ?protocols:proto list -> ?windows:windows -> ?base:Config.t -> unit -> Scenario.t list

  val rows_of_reports : (Scenario.t * Report.t) list -> row list
  val print : row list -> unit
end

(** Figure 11: throughput & latency vs replicas per cluster; z = 4.
    The [scale_*] values extend both axes past the paper's hardware:
    n to 100+ replicas per cluster, and z to 32 tiled regions with
    aggregated client groups representing 1.6M clients (10x the
    paper's 160k). *)
module Fig11 : sig
  val ns : int list
  val cfg_of : ?base:Config.t -> int -> Config.t

  val scenarios :
    ?protocols:proto list -> ?windows:windows -> ?base:Config.t -> unit -> Scenario.t list

  val scale_ns : int list
  val scale_zs : int list
  val scale_clients : int
  val scale_cfg_of_n : ?base:Config.t -> int -> Config.t
  val scale_cfg_of_z : ?base:Config.t -> int -> Config.t

  val scale_scenarios :
    ?protocols:proto list -> ?windows:windows -> ?base:Config.t -> unit -> Scenario.t list
  (** Defaults to GeoBFT only — the protocol whose scaling the paper
      claims; pass [~protocols] to widen. *)

  val rows_of_reports : (Scenario.t * Report.t) list -> row list
  val print : row list -> unit
end

(** Figure 12: throughput under failures; z = 4.  Left: one non-primary
    crash; middle: f crashes per cluster; right: a mid-run primary
    crash (GeoBFT and Pbft only, as in the paper). *)
module Fig12 : sig
  val ns : int list
  val cfg_of : ?base:Config.t -> int -> Config.t

  val scenarios_one_failure :
    ?protocols:proto list -> ?windows:windows -> ?base:Config.t -> unit -> Scenario.t list

  val scenarios_f_failures :
    ?protocols:proto list -> ?windows:windows -> ?base:Config.t -> unit -> Scenario.t list

  val scenarios_primary_failure :
    ?protocols:proto list -> ?windows:windows -> ?base:Config.t -> unit -> Scenario.t list

  val scale_ns : int list
  val scale_cfg_of : ?base:Config.t -> int -> Config.t

  val scale_scenarios :
    ?protocols:proto list -> ?windows:windows -> ?base:Config.t -> unit -> Scenario.t list
  (** Failure experiments at large topologies: z = 8, n in
      [scale_ns], 1.6M aggregated clients, one-non-primary and
      f-non-primary faults; GeoBFT and Pbft by default. *)

  val rows_of_reports : (Scenario.t * Report.t) list -> row list

  val print : one:row list -> ff:row list -> pf:row list -> unit
end

(** Figure 13: throughput vs batch size; z = 4, n = 7. *)
module Fig13 : sig
  val batches : int list
  val cfg_of : ?base:Config.t -> int -> Config.t

  val scenarios :
    ?protocols:proto list -> ?windows:windows -> ?base:Config.t -> unit -> Scenario.t list

  val rows_of_reports : (Scenario.t * Report.t) list -> row list
  val print : row list -> unit
end
