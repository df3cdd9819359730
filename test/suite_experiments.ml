(* Experiment-harness tests: configuration generators, the runner's
   protocol/fault dispatch, and measured-vs-formula consistency for the
   Table 2 message counts at small scale. *)

module Config = Rdb_types.Config
module Time = Rdb_sim.Time
module Report = Rdb_fabric.Report
module Runner = Rdb_experiments.Runner
module Scenario = Rdb_experiments.Scenario
module Figures = Rdb_experiments.Figures

let tiny = { Runner.warmup = Time.sec 1; measure = Time.sec 2 }

let test_proto_parsing () =
  List.iter
    (fun (s, expect) ->
      match Runner.proto_of_string s with
      | Some p -> Alcotest.(check string) s expect (Runner.proto_name p)
      | None -> Alcotest.failf "failed to parse %s" s)
    [ ("geobft", "GeoBFT"); ("PBFT", "Pbft"); ("Zyzzyva", "Zyzzyva"); ("hotstuff", "HotStuff");
      ("STEWARD", "Steward") ];
  Alcotest.(check bool) "garbage rejected" true (Runner.proto_of_string "paxos" = None)

let test_fig10_configs () =
  (* zn = 60 for every point. *)
  List.iter
    (fun z ->
      let cfg = Figures.Fig10.cfg_of z in
      Alcotest.(check int) (Printf.sprintf "z=%d" z) 60 (cfg.Config.z * cfg.Config.n))
    Figures.Fig10.zs

let test_fig11_configs () =
  List.iter
    (fun n ->
      let cfg = Figures.Fig11.cfg_of n in
      Alcotest.(check int) "z fixed" 4 cfg.Config.z;
      Alcotest.(check int) "n set" n cfg.Config.n)
    Figures.Fig11.ns

let test_fig13_configs () =
  List.iter
    (fun b ->
      let cfg = Figures.Fig13.cfg_of b in
      Alcotest.(check int) "batch" b cfg.Config.batch_size;
      Alcotest.(check int) "n" 7 cfg.Config.n)
    Figures.Fig13.batches

let test_runner_fault_dispatch () =
  (* A primary-failure run must report view changes for Pbft; a
     fault-free run must not. *)
  let cfg = Itest.small_cfg ~z:1 ~n:4 ~inflight:2 () in
  let healthy = Runner.run (Scenario.make ~windows:tiny Runner.Pbft cfg) in
  Alcotest.(check int) "no view changes" 0 healthy.Report.view_changes;
  let windows = { Runner.warmup = Time.sec 1; measure = Time.sec 6 } in
  let failed = Runner.run (Scenario.make ~windows ~fault:Runner.Primary_failure Runner.Pbft cfg) in
  Alcotest.(check bool) "view change after primary failure" true (failed.Report.view_changes > 0)

let test_geobft_vs_pbft_at_small_scale () =
  (* Even at toy scale the headline relation should hold: GeoBFT
     commits at least as much as Pbft on a 2-region deployment. *)
  let cfg = Config.make ~z:2 ~n:4 ~batch_size:20 ~client_inflight:8 () in
  let geo = Runner.run (Scenario.make ~windows:tiny Runner.Geobft cfg) in
  let pbft = Runner.run (Scenario.make ~windows:tiny Runner.Pbft cfg) in
  Alcotest.(check bool)
    (Printf.sprintf "geobft (%.0f) >= pbft (%.0f)" geo.Report.throughput_txn_s
       pbft.Report.throughput_txn_s)
    true
    (geo.Report.throughput_txn_s >= pbft.Report.throughput_txn_s)

let test_geobft_global_traffic_scales_with_fanout () =
  (* Ablation A's mechanism: fan-out n sends more global messages per
     decision than fan-out f+1. *)
  let base = Itest.small_cfg ~z:2 ~n:4 () in
  let run fanout =
    Runner.run (Scenario.make ~windows:tiny Runner.Geobft { base with Config.geobft_fanout = fanout })
  in
  let paper = run 0 and broadcast = run 4 in
  Alcotest.(check bool) "broadcast fan-out costs more global traffic" true
    (Report.global_msgs_per_decision broadcast > Report.global_msgs_per_decision paper +. 0.5)

(* The matrix registry behind `rdb_cli sweep`: every listed name
   expands, "all" is exactly its eight evaluation matrices in order
   (the nightly and EXPERIMENTS.md rely on that order), and the paper
   grids carry no scale rows. *)
let test_named_matrices () =
  let module M = Rdb_experiments.Matrices in
  let expand name =
    match M.expand ~windows:tiny ~seeds:[ 1; 2 ] name with
    | Some ms -> ms
    | None -> Alcotest.failf "matrix %s does not expand" name
  in
  let ids ms =
    List.concat_map (fun (m : M.t) -> List.map Scenario.to_string m.M.scenarios) ms
  in
  List.iter
    (fun name ->
      if ids (expand name) = [] then Alcotest.failf "matrix %s is empty" name)
    M.names;
  let members =
    [ "fig10"; "fig11"; "fig11-scale"; "fig12"; "fig12-scale"; "fig13"; "ablations"; "table2" ]
  in
  Alcotest.(check (list string)) "all = their scenarios in order"
    (ids (List.concat_map expand members)) (ids (expand "all"));
  Alcotest.(check (list string)) "fig11 is the paper grid"
    (List.map Scenario.to_string (Figures.Fig11.scenarios ~windows:tiny ()))
    (ids (expand "fig11"));
  Alcotest.(check bool) "unknown matrix" true (M.expand ~windows:tiny ~seeds:[] "fig9" = None);
  Alcotest.(check int) "chaos = protocols x seeds" 10 (List.length (ids (expand "chaos")));
  Alcotest.(check (option (list int))) "seed range" (Some [ 3; 4; 5 ]) (M.seed_range "3-5");
  Alcotest.(check (option (list int))) "bad seed range" None (M.seed_range "5-3")

let suite =
  [
    ("protocol parsing", `Quick, test_proto_parsing);
    ("fig10 configs (zn = 60)", `Quick, test_fig10_configs);
    ("fig11 configs", `Quick, test_fig11_configs);
    ("fig13 configs", `Quick, test_fig13_configs);
    ("runner fault dispatch", `Slow, test_runner_fault_dispatch);
    ("geobft >= pbft at small scale", `Quick, test_geobft_vs_pbft_at_small_scale);
    ("fan-out ablation mechanism", `Quick, test_geobft_global_traffic_scales_with_fanout);
    ("named matrices", `Quick, test_named_matrices);
  ]
