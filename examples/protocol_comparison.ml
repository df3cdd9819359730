(* Protocol comparison: the paper's headline experiment in miniature.

   Runs all five consensus protocols — GeoBFT and the four baselines —
   on the same four-region deployment and workload, and prints a
   side-by-side comparison (a small-scale version of Figure 11's n = 7
   column).  Expect GeoBFT on top, HotStuff second, the single-primary
   protocols (Pbft, Zyzzyva) WAN-bound in the middle, and Steward
   compute-bound at the bottom.

     dune exec examples/protocol_comparison.exe *)

open Resilientdb
module Runner = Experiments.Runner

let () =
  print_endline "== Five consensus protocols, one geo-scale deployment ==";
  print_endline "   (z = 4 regions: Oregon, Iowa, Montreal, Belgium; n = 7 replicas each)\n";
  let cfg = Config.make ~z:4 ~n:7 ~batch_size:100 () in
  Printf.printf "%-10s %12s %12s %10s %16s %16s\n" "protocol" "txn/s" "latency" "p99" "local msgs/dec"
    "global msgs/dec";
  let results =
    List.map
      (fun p ->
        let r = Runner.run (Scenario.make p cfg) in
        Printf.printf "%-10s %12.0f %9.0f ms %7.0f ms %16.1f %16.1f\n%!" (Scenario.proto_name p)
          r.Report.throughput_txn_s r.Report.avg_latency_ms r.Report.p99_latency_ms
          (Report.local_msgs_per_decision r)
          (Report.global_msgs_per_decision r);
        (p, r))
      Scenario.all_protocols
  in
  let find p = List.assoc p results in
  let geo = (find Runner.Geobft).Report.throughput_txn_s in
  Printf.printf "\nGeoBFT speedup: %.1fx over Pbft, %.1fx over Zyzzyva, %.1fx over HotStuff, %.1fx over Steward\n"
    (geo /. (find Runner.Pbft).Report.throughput_txn_s)
    (geo /. (find Runner.Zyzzyva).Report.throughput_txn_s)
    (geo /. (find Runner.Hotstuff).Report.throughput_txn_s)
    (geo /. (find Runner.Steward).Report.throughput_txn_s);
  print_endline "(cf. paper §4: GeoBFT outperforms Pbft by up to 6x and HotStuff by up to 1.6x)"
