(* Experiment-harness tests: configuration generators, the runner's
   protocol/fault dispatch, and measured-vs-formula consistency for the
   Table 2 message counts at small scale, and golden renderings of
   every paper table. *)

module Config = Rdb_types.Config
module Time = Rdb_sim.Time
module Report = Rdb_fabric.Report
module Runner = Rdb_experiments.Runner
module Scenario = Rdb_experiments.Scenario
module Matrices = Rdb_experiments.Matrices

let tiny = { Runner.warmup = Time.sec 1; measure = Time.sec 2 }

let test_proto_parsing () =
  List.iter
    (fun (s, expect) ->
      match Scenario.proto_of_string s with
      | Some p -> Alcotest.(check string) s expect (Scenario.proto_name p)
      | None -> Alcotest.failf "failed to parse %s" s)
    [ ("geobft", "GeoBFT"); ("PBFT", "Pbft"); ("Zyzzyva", "Zyzzyva"); ("hotstuff", "HotStuff");
      ("STEWARD", "Steward") ];
  Alcotest.(check bool) "garbage rejected" true (Scenario.proto_of_string "paxos" = None)

let paper_matrix name =
  match Matrices.expand ~windows:tiny ~seeds:[] name with
  | Some [ m ] -> m
  | _ -> Alcotest.failf "matrix %s does not expand to one matrix" name

let cfgs name = List.map (fun (s : Scenario.t) -> s.Scenario.cfg) (paper_matrix name).scenarios

let test_fig10_configs () =
  (* zn = 60 for every point. *)
  List.iter
    (fun cfg ->
      Alcotest.(check int) (Printf.sprintf "z=%d" cfg.Config.z) 60 (cfg.Config.z * cfg.Config.n))
    (cfgs "fig10")

let fig11_ns = [ 4; 7; 10; 12; 15 ]

(* The paper's Figure 11 grid: z = 4, n over the paper's five values,
   the default closed-loop clients (no scale rows). *)
let check_fig11_configs cfgs =
  List.iter
    (fun cfg ->
      Alcotest.(check int) "z fixed" 4 cfg.Config.z;
      Alcotest.(check bool) (Printf.sprintf "n=%d is a paper value" cfg.Config.n) true
        (List.mem cfg.Config.n fig11_ns);
      Alcotest.(check int) "no clients=" 0 cfg.Config.clients)
    cfgs

let test_fig11_configs () = check_fig11_configs (cfgs "fig11")

let test_fig13_configs () =
  let cfgs = cfgs "fig13" in
  List.iter (fun cfg -> Alcotest.(check int) "n" 7 cfg.Config.n) cfgs;
  Alcotest.(check (list int)) "batch sizes" [ 10; 50; 100; 200; 300 ]
    (List.sort_uniq compare (List.map (fun cfg -> cfg.Config.batch_size) cfgs))

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
  (match expand "fig11" with
  | [ m ] ->
      check_fig11_configs (List.map (fun (s : Scenario.t) -> s.Scenario.cfg) m.M.scenarios);
      Alcotest.(check (list (pair string int))) "fig11 is the paper grid: every protocol x n"
        (List.concat_map
           (fun p -> List.map (fun n -> (Scenario.proto_name p, n)) fig11_ns)
           Scenario.all_protocols)
        (List.map
           (fun (s : Scenario.t) -> (Scenario.proto_name s.Scenario.proto, s.Scenario.cfg.Config.n))
           m.M.scenarios)
  | _ -> Alcotest.fail "fig11 is one matrix");
  Alcotest.(check bool) "unknown matrix" true (M.expand ~windows:tiny ~seeds:[] "fig9" = None);
  Alcotest.(check int) "chaos = protocols x seeds" 10 (List.length (ids (expand "chaos")));
  Alcotest.(check (option (list int))) "seed range" (Some [ 3; 4; 5 ]) (M.seed_range "3-5");
  Alcotest.(check (option (list int))) "bad seed range" None (M.seed_range "5-3")

(* Golden renderings: every paper table rendered from fabricated
   reports, one per scenario of its own matrix, with fields derived
   from the scenario's index (identical scenarios share the first
   one's index, as identical runs share one report).  The expected
   text pins every byte of each table, and rendering the results
   reversed must not change it: cells are found by scenario, not by
   position.  No simulation runs. *)
let fake_report i =
  let f = float_of_int i in
  {
    Report.protocol = "fake"; z = 0; n = 0; batch_size = 0;
    throughput_txn_s = 1000.3 +. (137.1 *. f);
    avg_latency_ms = 250.7 +. (41.3 *. f);
    p50_latency_ms = 0.; p95_latency_ms = 0.; p99_latency_ms = 0.;
    completed_batches = 0; completed_txns = 0;
    decisions = 97 + i;
    local_msgs = 7001 + (131 * i);
    global_msgs = 301 + (17 * i);
    local_mb = 0.;
    global_mb = 10.3 +. (1.7 *. f);
    view_changes = i;
    state_transfers = 0; holes_filled = 0; retransmissions = 0;
    storage = "mem"; read_txns = 0; scan_txns = 0; write_txns = 0;
    read_p50_latency_ms = 0.; read_p95_latency_ms = 0.; read_p99_latency_ms = 0.;
    window_sec = 0.; trace = None;
  }

let fabricate scenarios =
  let ids = List.map Scenario.to_string scenarios in
  let rec first i id = function
    | x :: _ when x = id -> i
    | _ :: rest -> first (i + 1) id rest
    | [] -> assert false
  in
  List.map (fun s -> (s, fake_report (first 0 (Scenario.to_string s) ids))) scenarios

let golden =
  [
    ("fig10",
     {|
Figure 10 (left): throughput (txn/s) vs #clusters, zn = 60
clusters          GeoBFT          Pbft       Zyzzyva      HotStuff       Steward
1                   1000          1823          2646          3468          4291
2                   1137          1960          2783          3605          4428
3                   1274          2097          2920          3742          4565
4                   1412          2234          3057          3879          4702
5                   1549          2371          3194          4016          4839
6                   1686          2508          3331          4154          4976

Figure 10 (right): latency (s) vs #clusters, zn = 60
clusters          GeoBFT          Pbft       Zyzzyva      HotStuff       Steward
1                   0.25          0.50          0.75          0.99          1.24
2                   0.29          0.54          0.79          1.04          1.28
3                   0.33          0.58          0.83          1.08          1.32
4                   0.37          0.62          0.87          1.12          1.37
5                   0.42          0.66          0.91          1.16          1.41
6                   0.46          0.70          0.95          1.20          1.45
|});
    ("fig11",
     {|
Figure 11 (left): throughput (txn/s) vs replicas per cluster, z = 4
replicas          GeoBFT          Pbft       Zyzzyva      HotStuff       Steward
4                   1000          1686          2371          3057          3742
7                   1137          1823          2508          3194          3879
10                  1274          1960          2646          3331          4016
12                  1412          2097          2783          3468          4154
15                  1549          2234          2920          3605          4291

Figure 11 (right): latency (s) vs replicas per cluster, z = 4
replicas          GeoBFT          Pbft       Zyzzyva      HotStuff       Steward
4                   0.25          0.46          0.66          0.87          1.08
7                   0.29          0.50          0.70          0.91          1.12
10                  0.33          0.54          0.75          0.95          1.16
12                  0.37          0.58          0.79          0.99          1.20
15                  0.42          0.62          0.83          1.04          1.24
|});
    ("fig12",
     {|
Figure 12 (left): throughput (txn/s), one non-primary failure, z = 4
replicas          GeoBFT          Pbft       Zyzzyva      HotStuff       Steward
4                   1000          1549          2097          2646          3194
7                   1137          1686          2234          2783          3331
10                  1274          1823          2371          2920          3468
12                  1412          1960          2508          3057          3605

Figure 12 (middle): throughput (txn/s), f failures per cluster, z = 4
replicas          GeoBFT          Pbft       Zyzzyva      HotStuff       Steward
4                   3742          4291          4839          5388          5936
7                   3879          4428          4976          5525          6073
10                  4016          4565          5113          5662          6210
12                  4154          4702          5250          5799          6347

Figure 12 (right): throughput (txn/s), single primary failure, z = 4
replicas          GeoBFT          Pbft
4                   6484          7033
7                   6621          7170
10                  6758          7307
12                  6896          7444
|});
    ("fig13",
     {|
Figure 13: throughput (txn/s) vs batch size, z = 4, n = 7
batch             GeoBFT          Pbft       Zyzzyva      HotStuff       Steward
10                  1000          1686          2371          3057          3742
50                  1137          1823          2508          3194          3879
100                 1274          1960          2646          3331          4016
200                 1412          2097          2783          3468          4154
300                 1549          2234          2920          3605          4291
|});
    ("ablations",
     {|
Ablation A: GeoBFT global-sharing fan-out (z=4, n=7)
fan-out                     txn/s global msgs/dec    txn/s (1 crash)   view changes
s=1 (minimal)                1000            3.1               1137              1
s=f+1=3 (paper)              1274            3.4               1412              3
s=n (broadcast)              1549            3.7               1686              5

Ablation B: GeoBFT consensus pipelining depth (z=4, n=7)
depth             txn/s   latency (ms)
1                  1823          498.5
2                  1960          539.8
4                  2097          581.1
8                  2234          622.4
32                 1274          333.3

Ablation C: authenticators in Pbft (z=4, n=7)
scheme                                txn/s   latency (ms)
MACs + sigs (ResilientDB)              2508          705.0
signatures everywhere                  2646          746.3

Ablation D: GeoBFT certificates: n-f signatures vs one threshold signature (z=4)
n             plain txn/s      threshold txn/s    global MB (plain/thr)
7                    1274                 2920           13.7 / 34.1    
15                   3057                 3194           35.8 / 37.5    
|});
    ("table2",
     {|
Table 2: measured messages per consensus decision (z=4, n=7, f=2)
protocol    local/decision global/decision   paper (local)          paper (global)
GeoBFT                72.2             3.1   O(2n^2) = 98           O(f(z-1)) = 9
Pbft                  72.8             3.2   O(2(zn)^2) = 1568      (all-to-all crosses regions)
Zyzzyva               73.4             3.4   O(zn) = 28             (primary to all)
HotStuff              73.9             3.5   O(8zn) = 224           (4 leader phases)
Steward               74.5             3.7   O(2zn^2)               O(z^2)
|});
  ]

let table1_configured_golden =
  {|
Table 1: ping round-trip times (ms) [configured from the paper]
                O        I        M        B        T        S
Oregon        0.5     38.0     65.0    136.0    118.0    161.0
Iowa         38.0      0.5     33.0     98.0    153.0    172.0
Montreal     65.0     33.0      0.5     82.0    186.0    202.0
Belgium     136.0     98.0     82.0      0.5    252.0    270.0
Taiwan      118.0    153.0    186.0    252.0      0.5    137.0
Sydney      161.0    172.0    202.0    270.0    137.0      0.5

Table 1: bandwidth (Mbit/s) [configured from the paper]
                O        I        M        B        T        S
Oregon       7998      669      371      194      188      136
Iowa          669    10004      752      243      144      120
Montreal      371      752     7977      283      111      102
Belgium       194      243      283     9728       79       66
Taiwan        188      144      111       79     7998      160
Sydney        136      120      102       66      160     7977
|}

let test_golden_renderings () =
  List.iter
    (fun (name, expected) ->
      let m = paper_matrix name in
      match m.Matrices.render with
      | Some render ->
          let results = fabricate m.Matrices.scenarios in
          Alcotest.(check string) name expected (render results);
          Alcotest.(check string) (name ^ " in reverse order") expected (render (List.rev results))
      | None -> Alcotest.failf "%s has no renderer" name)
    golden;
  Alcotest.(check string) "table1 configured" table1_configured_golden
    (Matrices.table1_configured ())

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
    ("golden renderings", `Quick, test_golden_renderings);
  ]
