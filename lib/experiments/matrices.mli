(** The named scenario matrices of the evaluation: what
    [rdb_cli sweep NAME] runs, and the paper table it prints from the
    results.  Also the two small fixed deployments several drivers
    share: the z2 n4 smoke and the chaos validation deployment. *)

module Config = Rdb_types.Config
module Report = Rdb_fabric.Report
open Runner

(** {1 Shared deployments} *)

val smoke_windows : windows
(** 0.5 s + 1.5 s. *)

val smoke_cfg : Config.t
(** z2 n4, batch 50, 16 batches in flight per client group, seed 1. *)

val smoke : Scenario.t list
(** One untraced run of {!smoke_cfg} per protocol, in
    {!Runner.all_protocols} order.  The ["smoke"] matrix runs it
    traced; the bench regression gate runs it followed by four entries
    of its own. *)

val chaos : seeds:(proto -> int list) -> Scenario.t list
(** Every protocol under each of its chaos planner seeds on the chaos
    validation deployment (z2 n4, batch 20, 8 in flight, seed 1,
    1 s + 11 s); protocols outermost, seeds in the given order. *)

val seed_range : string -> int list option
(** ["LO-HI"] as the seeds LO..HI, or ["N"] as the one seed N; [None]
    for anything else. *)

(** {1 Named matrices} *)

type t = {
  scenarios : Scenario.t list;
  print : ((Scenario.t * Report.t) list -> unit) option;
      (** Print the paper table from the ordered results of exactly
          [scenarios]; [None] for a matrix without one (the smoke,
          chaos and scale matrices). *)
}

val names : string list
(** Every name {!expand} accepts. *)

val expand : windows:windows -> seeds:int list -> string -> t list option
(** The matrices a name stands for: the one of that name, or for
    ["all"] the eight evaluation matrices fig10, fig11, fig11-scale,
    fig12, fig12-scale, fig13, ablations and table2, in that order.
    [seeds] are the chaos matrix's planner seeds.  [None] for an
    unknown name. *)
