(** The paper's Tables 1 and 2 as runnable experiments. *)

module Config = Rdb_types.Config
module Report = Rdb_fabric.Report
open Runner

(** Table 1: inter-region RTT and bandwidth — both the configured
    calibration matrix and an in-simulator probe (ping echo + 64 MB
    bulk transfer per region pair) confirming the network model
    reproduces it. *)
module Table1 : sig
  val print_configured : unit -> unit
  val measure : unit -> float array array * float array array
  (** (rtt_ms, bulk_mbps) measured inside the simulator. *)

  val print_measured : unit -> unit
  val print : unit -> unit
end

(** Table 2: messages per consensus decision, measured in a fault-free
    run and printed next to the paper's asymptotic formulas. *)
module Table2 : sig
  val formula : z:int -> n:int -> f:int -> proto -> string * string
  val scenarios : ?windows:windows -> ?cfg:Config.t -> unit -> Scenario.t list
  val rows_of_reports : (Scenario.t * Report.t) list -> (proto * Report.t) list
  val print : ?cfg:Config.t -> (proto * Report.t) list -> unit
end
