(** The paper's evaluation (§4): each artifact — Figures 10-13, the
    ablations and Table 2 — is one named matrix, its scenario grid plus
    the renderer that prints its paper table from the grid's results
    ([rdb_cli sweep NAME]); Table 1 is {!table1} ([rdb_cli matrix]).
    Also the chaos validation deployment the chaos sweeps share. *)

module Config = Rdb_types.Config
module Report = Rdb_fabric.Report
open Runner

(** {1 The chaos validation deployment} *)

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
  render : ((Scenario.t * Report.t) list -> string) option;
      (** The paper table, from the results of [scenarios] in any
          order: each cell is found by its scenario's protocol, fault
          and configuration.  [None] for a matrix without one (the
          smoke, chaos and scale matrices).
          @raise Invalid_argument if a cell has no result. *)
}

val names : string list
(** Every name {!expand} accepts. *)

val expand : windows:windows -> seeds:int list -> string -> t list option
(** The matrices a name stands for: the one of that name, or for
    ["all"] the eight evaluation matrices fig10, fig11, fig11-scale,
    fig12, fig12-scale, fig13, ablations and table2, in that order.
    [seeds] are the chaos matrix's planner seeds.  [None] for an
    unknown name. *)

(** {1 Table 1} *)

val table1_configured : unit -> string
(** The inter-region RTT and bandwidth matrices the simulator is
    configured with (the paper's values). *)

val table1 : unit -> string
(** {!table1_configured}, then the same two matrices measured inside
    the simulator (ping echo and a 64 MB bulk transfer per region
    pair), confirming the network model reproduces its calibration. *)
