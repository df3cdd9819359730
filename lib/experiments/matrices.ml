(* The named scenario matrices: each pairs a grid from Figures, Tables
   or Ablations with the printer that renders its paper table, so the
   one experiment driver (`rdb_cli sweep`) both runs and prints every
   artifact of §4. *)

module Config = Rdb_types.Config
module Report = Rdb_fabric.Report
module Time = Rdb_sim.Time
open Runner

(* -- shared deployments ---------------------------------------------------- *)

let smoke_windows = { warmup = Time.ms 500; measure = Time.ms 1500 }
let smoke_cfg = Config.make ~z:2 ~n:4 ~batch_size:50 ~client_inflight:16 ~seed:1 ()
let smoke = List.map (fun p -> Scenario.make ~windows:smoke_windows p smoke_cfg) all_protocols

let chaos ~seeds =
  let windows = { warmup = Time.sec 1; measure = Time.sec 11 } in
  let cfg = Config.make ~z:2 ~n:4 ~batch_size:20 ~client_inflight:8 ~seed:1 () in
  List.concat_map
    (fun p -> List.map (fun seed -> Scenario.make ~windows ~fault:(Chaos seed) p cfg) (seeds p))
    all_protocols

let seed_range s =
  match List.map int_of_string_opt (String.split_on_char '-' (String.trim s)) with
  | [ Some one ] -> Some [ one ]
  | [ Some lo; Some hi ] when lo <= hi -> Some (List.init (hi - lo + 1) (fun i -> lo + i))
  | _ -> None

(* -- named matrices -------------------------------------------------------- *)

type t = {
  scenarios : Scenario.t list;
  print : ((Scenario.t * Report.t) list -> unit) option;
}

let all =
  [ "fig10"; "fig11"; "fig11-scale"; "fig12"; "fig12-scale"; "fig13"; "ablations"; "table2" ]

let names = ("smoke" :: all) @ [ "chaos"; "all" ]

let matrix ~windows ~seeds name =
  let table scenarios print = Some { scenarios; print = Some print } in
  let plain scenarios = Some { scenarios; print = None } in
  match name with
  | "smoke" -> plain (List.map (fun s -> { s with Scenario.trace = true }) smoke)
  | "fig10" ->
      table (Figures.Fig10.scenarios ~windows ()) (fun r ->
          Figures.Fig10.print (Figures.Fig10.rows_of_reports r))
  | "fig11" ->
      table (Figures.Fig11.scenarios ~windows ()) (fun r ->
          Figures.Fig11.print (Figures.Fig11.rows_of_reports r))
  | "fig11-scale" -> plain (Figures.Fig11.scale_scenarios ~windows ())
  | "fig12" ->
      let open Figures.Fig12 in
      table
        (scenarios_one_failure ~windows ()
        @ scenarios_f_failures ~windows ()
        @ scenarios_primary_failure ~windows ())
        (fun r ->
          (* Each panel is the grid of one fault. *)
          let panel fault =
            rows_of_reports (List.filter (fun ((s : Scenario.t), _) -> s.fault = fault) r)
          in
          print ~one:(panel One_nonprimary) ~ff:(panel F_nonprimary)
            ~pf:(panel Primary_failure))
  | "fig12-scale" -> plain (Figures.Fig12.scale_scenarios ~windows ())
  | "fig13" ->
      table (Figures.Fig13.scenarios ~windows ()) (fun r ->
          Figures.Fig13.print (Figures.Fig13.rows_of_reports r))
  | "ablations" ->
      table (Ablations.scenarios ~windows ()) (fun r ->
          Ablations.print (Ablations.rows_of_reports ~windows r))
  | "table2" ->
      table (Tables.Table2.scenarios ~windows ()) (fun r ->
          Tables.Table2.print (Tables.Table2.rows_of_reports r))
  | "chaos" -> plain (chaos ~seeds:(fun _ -> seeds))
  | _ -> None

let expand ~windows ~seeds = function
  | "all" -> Some (List.filter_map (matrix ~windows ~seeds) all)
  | name -> Option.map (fun m -> [ m ]) (matrix ~windows ~seeds name)
