(** Ablation studies for the design decisions DESIGN.md calls out —
    beyond the paper's own figures, each isolates one choice and
    measures its contribution.

    Like {!Figures}, every ablation exposes [scenarios] (its canonical
    parameter grid) and [rows_of_reports] (fold the ordered results —
    serial or from the sweep engine — back into rows; positional, so
    pass exactly the (scenario, report) list for [scenarios]'s
    output). *)

module Config = Rdb_types.Config
module Report = Rdb_fabric.Report
open Runner

(** A. GeoBFT's global-sharing fan-out (paper: f+1, Figure 5):
    s = 1 is cheap but fragile, s = n is naive broadcast. *)
module Fanout : sig
  type row = { fanout : int; label : string; healthy : Report.t; one_receiver_down : Report.t }

  val scenarios : ?windows:windows -> ?z:int -> ?n:int -> unit -> Scenario.t list
  val rows_of_reports : (Scenario.t * Report.t) list -> row list
  val print : row list -> unit
end

(** B. Consensus pipelining depth (§2.5): lock-step rounds vs an
    overlapped pipeline. *)
module Pipeline : sig
  type row = { depth : int; report : Report.t }

  val depths : int list
  val scenarios : ?windows:windows -> ?z:int -> ?n:int -> unit -> Scenario.t list
  val rows_of_reports : (Scenario.t * Report.t) list -> row list
  val print : row list -> unit
end

(** C. MACs vs signatures everywhere (§2.1): why ResilientDB signs
    only forwarded messages. *)
module Crypto_split : sig
  type row = { label : string; report : Report.t }

  val scenarios : ?windows:windows -> ?z:int -> ?n:int -> unit -> Scenario.t list
  val rows_of_reports : (Scenario.t * Report.t) list -> row list
  val print : row list -> unit
end

(** D. Threshold-signature certificates (§2.2, optional): one
    constant-size aggregate instead of n − f signatures. *)
module Threshold_certs : sig
  type row = { n : int; plain : Report.t; threshold : Report.t }

  val ns : int list
  val scenarios : ?windows:windows -> ?z:int -> unit -> Scenario.t list
  val rows_of_reports : (Scenario.t * Report.t) list -> row list
  val print : row list -> unit
end

(** {1 The whole ablation grid as one sweep} *)

val scenarios : ?windows:windows -> unit -> Scenario.t list
(** All four ablations' scenarios, concatenated in canonical order. *)

type rows = {
  fanout : Fanout.row list;
  pipeline : Pipeline.row list;
  crypto_split : Crypto_split.row list;
  threshold_certs : Threshold_certs.row list;
}

val rows_of_reports : ?windows:windows -> (Scenario.t * Report.t) list -> rows
(** Split ordered results for {!scenarios} back into per-ablation rows.
    [windows] must match the value passed to {!scenarios}. *)

val print : rows -> unit
