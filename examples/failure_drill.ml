(* Failure drill: watch GeoBFT absorb failures in real (simulated) time.

   A two-region GeoBFT deployment runs while we inject the §4.3 failure
   scenarios on a timeline:

     t =  4 s   one backup in Oregon crashes          (small dip)
     t =  8 s   Oregon's primary crashes              (local view change)
     t = 14 s   the new Oregon primary is cut off
                from Iowa (Byzantine-style silence) (remote view change)

   The drill samples throughput every second, so you can watch the dips
   and recoveries, and prints the view-change evidence at the end.

     dune exec examples/failure_drill.exe *)

open Resilientdb
module Dep = Deployment.Make (Geobft)

let () =
  print_endline "== GeoBFT failure drill: Oregon + Iowa, n = 7 per cluster (f = 2) ==\n";
  let base =
    { Config.default with Config.local_timeout_ms = 1_000.; remote_timeout_ms = 2_000.;
      client_timeout_ms = 2_500. }
  in
  (* n = 7 tolerates f = 2 faults per cluster: the drill uses both. *)
  let cfg = Config.make ~base ~z:2 ~n:7 ~batch_size:50 ~client_inflight:8 () in
  let d = Dep.create cfg in
  let engine = Dep.engine d in
  let metrics = Dep.metrics d in

  (* Failure timeline.  Node ids: Oregon replicas are 0-6 (0 is the
     initial primary), Iowa replicas are 7-13. *)
  Dep.at d ~time:(Time.sec 4) (fun () ->
      print_endline "  t=4s   !! crash of one Oregon backup (replica 6)";
      Dep.crash_replica d 6);
  Dep.at d ~time:(Time.sec 8) (fun () ->
      print_endline "  t=8s   !! crash of Oregon's primary (replica 0)";
      Dep.crash_replica d (Config.replica_id cfg ~cluster:0 ~index:0));
  Dep.at d ~time:(Time.sec 14) (fun () ->
      print_endline "  t=14s  !! Oregon's new primary stops talking to Iowa";
      (* Replica 1 is the view-1 primary; drop only its cross-cluster
         traffic: Example 2.4 case (1), the Byzantine sender-primary. *)
      Dep.add_drop_rule d (fun ~src ~dst -> src = 1 && dst >= 7 && dst < 14));

  (* Sample throughput every simulated second. *)
  Dep.start_clients d;
  Metrics.open_window metrics ~now:(Engine.now engine);
  let last = ref 0 in
  print_endline "  time   throughput (txn/s over the last second)";
  for sec = 1 to 22 do
    Engine.run_until engine ~until:(Time.sec sec);
    let total = Metrics.completed_txns metrics in
    Printf.printf "  t=%-2ds  %6d %s\n%!" sec (total - !last)
      (String.make (min 60 ((total - !last) / 60)) '#');
    last := total
  done;

  let vcs = Dep.view_changes d in
  let remote = ref 0 in
  for i = 0 to Config.n_replicas cfg - 1 do
    remote := !remote + Geobft.remote_vcs_triggered (Dep.replica d i)
  done;
  Printf.printf "\nlocal view changes completed: %d (crash at t=8s, remote request at t=14s)\n" vcs;
  Printf.printf "remote view-change requests honored by Oregon: %d\n" !remote;

  (* Despite everything, all live replicas agree. *)
  let live = [ 1; 2; 3; 4; 5; 7; 8; 9; 10; 11; 12; 13 ] in
  let agree = Ledger.agreement (List.map (fun i -> Dep.ledger d ~replica:i) live) in
  Printf.printf "surviving replicas agree on the executed sequence: %b\n" agree
