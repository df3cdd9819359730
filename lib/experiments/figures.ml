(* One module per evaluation artifact of the paper (§4).

   Every figure exposes the same shape:
   - [scenarios ... ()] — the exact grid of Scenario.t the paper
     sweeps, in canonical order (this is the single source of truth:
     bench, the sweep engine and the CLI all enumerate through here);
   - [rows_of_reports] — fold ordered (scenario, report) pairs (from
     Runner.run or the sweep engine) back into plot rows;
   - [print] — render the series the paper plots (EXPERIMENTS.md
     records the paper's values next to ours). *)

module Config = Rdb_types.Config
module Report = Rdb_fabric.Report
open Runner

type row = { proto : proto; x : int; report : Report.t }

(* Grid enumeration: protocols outermost, swept parameter inner —
   the canonical order every consumer sees. *)
let grid ~protocols ~xs ~cfg_of ?(fault = No_fault) ~windows () =
  List.concat_map
    (fun p -> List.map (fun x -> Scenario.make ~windows ~fault p (cfg_of x)) xs)
    protocols

let rows_of_reports ~x_of results =
  List.map
    (fun ((s : Scenario.t), report) -> { proto = s.Scenario.proto; x = x_of s; report })
    results

let print_series ~title ~x_label ~rows ~value ~fmt_value =
  Printf.printf "\n%s\n" title;
  Printf.printf "%-10s" x_label;
  let xs = List.sort_uniq compare (List.map (fun r -> r.x) rows) in
  let protos = List.sort_uniq compare (List.map (fun r -> r.proto) rows) in
  List.iter (fun p -> Printf.printf "%14s" (proto_name p)) protos;
  print_newline ();
  List.iter
    (fun x ->
      Printf.printf "%-10d" x;
      List.iter
        (fun p ->
          match List.find_opt (fun r -> r.x = x && r.proto = p) rows with
          | Some r -> Printf.printf "%14s" (fmt_value (value r.report))
          | None -> Printf.printf "%14s" "-")
        protos;
      print_newline ())
    xs

let fmt_tput v = Printf.sprintf "%.0f" v
let fmt_lat v = Printf.sprintf "%.2f" (v /. 1000.) (* ms -> s, as the paper plots *)

(* -- Figure 10: throughput & latency vs number of clusters; zn = 60 ---- *)
module Fig10 = struct
  let zs = [ 1; 2; 3; 4; 5; 6 ]

  let cfg_of ?(base = Config.default) z = Config.make ~base ~z ~n:(60 / z) ()

  let scenarios ?(protocols = all_protocols) ?(windows = default_windows) ?base () =
    grid ~protocols ~xs:zs ~cfg_of:(fun z -> cfg_of ?base z) ~windows ()

  let rows_of_reports results = rows_of_reports ~x_of:(fun s -> s.Scenario.cfg.Config.z) results

  let print rows =
    print_series ~title:"Figure 10 (left): throughput (txn/s) vs #clusters, zn = 60"
      ~x_label:"clusters" ~rows
      ~value:(fun r -> r.Report.throughput_txn_s)
      ~fmt_value:fmt_tput;
    print_series ~title:"Figure 10 (right): latency (s) vs #clusters, zn = 60" ~x_label:"clusters"
      ~rows
      ~value:(fun r -> r.Report.avg_latency_ms)
      ~fmt_value:fmt_lat
end

(* -- Figure 11: throughput & latency vs replicas per cluster; z = 4 ----- *)
module Fig11 = struct
  let ns = [ 4; 7; 10; 12; 15 ]

  let cfg_of ?(base = Config.default) n = Config.make ~base ~z:4 ~n ()

  let scenarios ?(protocols = all_protocols) ?(windows = default_windows) ?base () =
    grid ~protocols ~xs:ns ~cfg_of:(fun n -> cfg_of ?base n) ~windows ()

  (* Scale extension: the same two axes pushed past the paper's
     hardware reach.  The n-axis grows to 100+ replicas per cluster at
     the paper's 160k clients (now one aggregated group per cluster);
     the cluster axis grows to z = 32 tiled regions with groups
     representing 1.6M clients — 10x the paper.  GeoBFT only by
     default: the hierarchical design is what the paper claims scales,
     and the flat protocols' quadratic message complexity makes the
     largest rows disproportionately expensive to simulate. *)
  let scale_ns = [ 31; 61; 101 ]
  let scale_zs = [ 8; 16; 32 ]
  let scale_clients = 1_600_000

  let scale_cfg_of_n ?(base = Config.default) n =
    Config.make ~base ~z:4 ~n ~clients:160_000 ()

  let scale_cfg_of_z ?(base = Config.default) z =
    Config.make ~base ~z ~n:31 ~clients:scale_clients ()

  let scale_scenarios ?(protocols = [ Geobft ]) ?(windows = default_windows) ?base () =
    grid ~protocols ~xs:scale_ns ~cfg_of:(fun n -> scale_cfg_of_n ?base n) ~windows ()
    @ grid ~protocols ~xs:scale_zs ~cfg_of:(fun z -> scale_cfg_of_z ?base z) ~windows ()

  let rows_of_reports results = rows_of_reports ~x_of:(fun s -> s.Scenario.cfg.Config.n) results

  let print rows =
    print_series ~title:"Figure 11 (left): throughput (txn/s) vs replicas per cluster, z = 4"
      ~x_label:"replicas" ~rows
      ~value:(fun r -> r.Report.throughput_txn_s)
      ~fmt_value:fmt_tput;
    print_series ~title:"Figure 11 (right): latency (s) vs replicas per cluster, z = 4"
      ~x_label:"replicas" ~rows
      ~value:(fun r -> r.Report.avg_latency_ms)
      ~fmt_value:fmt_lat
end

(* -- Figure 12: throughput under failures; z = 4 -------------------------- *)
module Fig12 = struct
  let ns = [ 4; 7; 10; 12 ]

  let cfg_of ?(base = Config.default) n = Config.make ~base ~z:4 ~n ()

  (* Left: one non-primary failure.  Every protocol. *)
  let scenarios_one_failure ?(protocols = all_protocols) ?(windows = default_windows) ?base () =
    grid ~protocols ~xs:ns ~cfg_of:(fun n -> cfg_of ?base n) ~fault:One_nonprimary ~windows ()

  (* Middle: f non-primary failures per cluster. *)
  let scenarios_f_failures ?(protocols = all_protocols) ?(windows = default_windows) ?base () =
    grid ~protocols ~xs:ns ~cfg_of:(fun n -> cfg_of ?base n) ~fault:F_nonprimary ~windows ()

  (* Right: single primary failure mid-run.  The paper runs only
     GeoBFT and Pbft here (Zyzzyva cannot survive it, HotStuff has no
     fixed primary, Steward has no usable view-change). *)
  let scenarios_primary_failure ?(protocols = [ Geobft; Pbft ]) ?(windows = default_windows)
      ?base () =
    grid ~protocols ~xs:ns ~cfg_of:(fun n -> cfg_of ?base n) ~fault:Primary_failure ~windows ()

  (* Scale extension: the failure experiments at large topologies —
     z = 8 tiled regions, 31 and 61 replicas per cluster, aggregated
     groups representing 1.6M clients.  GeoBFT and Pbft (the two
     protocols whose recovery paths the paper exercises at scale). *)
  let scale_ns = [ 31; 61 ]

  let scale_cfg_of ?(base = Config.default) n =
    Config.make ~base ~z:8 ~n ~clients:1_600_000 ()

  let scale_scenarios ?(protocols = [ Geobft; Pbft ]) ?(windows = default_windows) ?base () =
    grid ~protocols ~xs:scale_ns ~cfg_of:(fun n -> scale_cfg_of ?base n) ~fault:One_nonprimary
      ~windows ()
    @ grid ~protocols ~xs:scale_ns ~cfg_of:(fun n -> scale_cfg_of ?base n) ~fault:F_nonprimary
        ~windows ()

  let rows_of_reports results = rows_of_reports ~x_of:(fun s -> s.Scenario.cfg.Config.n) results

  let print ~one ~ff ~pf =
    print_series ~title:"Figure 12 (left): throughput (txn/s), one non-primary failure, z = 4"
      ~x_label:"replicas" ~rows:one
      ~value:(fun r -> r.Report.throughput_txn_s)
      ~fmt_value:fmt_tput;
    print_series ~title:"Figure 12 (middle): throughput (txn/s), f failures per cluster, z = 4"
      ~x_label:"replicas" ~rows:ff
      ~value:(fun r -> r.Report.throughput_txn_s)
      ~fmt_value:fmt_tput;
    print_series ~title:"Figure 12 (right): throughput (txn/s), single primary failure, z = 4"
      ~x_label:"replicas" ~rows:pf
      ~value:(fun r -> r.Report.throughput_txn_s)
      ~fmt_value:fmt_tput
end

(* -- Figure 13: throughput vs batch size; z = 4, n = 7 --------------------- *)
module Fig13 = struct
  let batches = [ 10; 50; 100; 200; 300 ]

  let cfg_of ?(base = Config.default) b = Config.make ~base ~z:4 ~n:7 ~batch_size:b ()

  let scenarios ?(protocols = all_protocols) ?(windows = default_windows) ?base () =
    grid ~protocols ~xs:batches ~cfg_of:(fun b -> cfg_of ?base b) ~windows ()

  let rows_of_reports results =
    rows_of_reports ~x_of:(fun s -> s.Scenario.cfg.Config.batch_size) results

  let print rows =
    print_series ~title:"Figure 13: throughput (txn/s) vs batch size, z = 4, n = 7"
      ~x_label:"batch" ~rows
      ~value:(fun r -> r.Report.throughput_txn_s)
      ~fmt_value:fmt_tput
end
