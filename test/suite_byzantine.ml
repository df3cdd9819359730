(* Cross-cutting Byzantine and partition scenarios, exercising the
   liveness machinery end to end:

   - a full inter-cluster partition stalls GeoBFT's round execution
     (safety over liveness) and recovery is immediate once the
     partition heals — CAP in action (§2.1's bounded-delay caveat);
   - a primary that equivocates (conflicting pre-prepares) in the
     *first* cluster of a GeoBFT deployment is deposed locally without
     remote help;
   - Pbft survives cascading primary failures (two crashes in a row);
   - message floods from a Byzantine replica (duplicate prepares) do
     not corrupt Pbft's vote counting. *)

module Config = Rdb_types.Config
module Time = Rdb_sim.Time
module Ledger = Rdb_ledger.Ledger
module PbftMsg = Rdb_pbft.Messages
module GeoDep = Rdb_fabric.Deployment.Make (Rdb_geobft.Replica)
module PbftDep = Rdb_fabric.Deployment.Make (Rdb_pbft.Replica)

let test_partition_stalls_then_heals () =
  let cfg = Itest.small_cfg ~z:2 ~n:4 ~inflight:2 () in
  let d = GeoDep.create ~n_records:Itest.records cfg in
  (* Partition the two clusters from 1 s to 6 s. *)
  GeoDep.at d ~time:(Time.sec 1) (fun () -> GeoDep.partition_clusters d ~ca:0 ~cb:1);
  GeoDep.at d ~time:(Time.sec 6) (fun () -> GeoDep.clear_drop_rules d);
  GeoDep.start_clients d;
  let engine = GeoDep.engine d in
  Rdb_sim.Engine.run_until engine ~until:(Time.ms 900);
  let before = Ledger.length (GeoDep.ledger d ~replica:0) in
  Alcotest.(check bool) "progress before partition" true (before > 0);
  (* During the partition, execution cannot cross the frontier (rounds
     need both clusters); allow the in-flight pipeline to drain, then
     expect a full stall. *)
  Rdb_sim.Engine.run_until engine ~until:(Time.sec 3);
  let drained = Ledger.length (GeoDep.ledger d ~replica:0) in
  Rdb_sim.Engine.run_until engine ~until:(Time.sec 5);
  let during = Ledger.length (GeoDep.ledger d ~replica:0) in
  Alcotest.(check bool)
    (Printf.sprintf "fully stalled after drain (%d -> %d)" drained during)
    true
    (during - drained <= 2);
  (* After healing, rounds resume (remote view changes + re-shares pull
     the missing rounds across). *)
  Rdb_sim.Engine.run_until engine ~until:(Time.sec 14);
  let after = Ledger.length (GeoDep.ledger d ~replica:0) in
  Alcotest.(check bool)
    (Printf.sprintf "resumed after heal (%d -> %d)" during after)
    true
    (after > during + 8);
  (* Safety held throughout. *)
  let ledgers = Array.init 8 (fun i -> GeoDep.ledger d ~replica:i) in
  Itest.check_ledger_prefixes ~min_len:1 ~ledgers ()

let test_geobft_local_equivocation_deposed () =
  (* The primary of cluster 0 equivocates *locally*; its own cluster
     must depose it without any remote involvement, and GeoBFT rounds
     continue. *)
  let cfg = Itest.small_cfg ~z:2 ~n:4 ~inflight:2 () in
  let d = GeoDep.create ~n_records:Itest.records cfg in
  Itest.corrupt (module GeoDep) d ~actor:0 Rdb_adversary.Adversary.Equivocate;
  let report = GeoDep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 8) d in
  Alcotest.(check bool) "equivocator deposed" true (GeoDep.view_changes d > 0);
  Alcotest.(check bool) "rounds continue" true (report.Rdb_fabric.Report.completed_txns > 0);
  let ledgers = Array.init 8 (fun i -> GeoDep.ledger d ~replica:i) in
  Itest.check_ledger_prefixes ~min_len:1 ~ledgers ()

let test_pbft_cascading_primary_failures () =
  (* Primary of view 0 crashes, then the primary of view 1 crashes too:
     two view changes, still live (n = 8, f = 2). *)
  let cfg = Itest.small_cfg ~z:2 ~n:4 ~inflight:2 () in
  let d = PbftDep.create ~n_records:Itest.records cfg in
  PbftDep.at d ~time:(Time.ms 1500) (fun () -> PbftDep.crash_replica d 0);
  PbftDep.at d ~time:(Time.ms 4000) (fun () -> PbftDep.crash_replica d 1);
  let report = PbftDep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 9) d in
  Alcotest.(check bool)
    (Printf.sprintf "two view changes (%d)" (PbftDep.view_changes d))
    true
    (PbftDep.view_changes d >= 2);
  Alcotest.(check bool) "still live" true (report.Rdb_fabric.Report.completed_txns > 0);
  let live = [ 2; 3; 4; 5; 6; 7 ] in
  let ledgers = Array.of_list (List.map (fun i -> PbftDep.ledger d ~replica:i) live) in
  Itest.check_ledger_prefixes ~min_len:1 ~ledgers ()

let test_pbft_byzantine_prepare_flood () =
  (* A Byzantine backup rewrites every prepare it sends to a bogus
     digest: its single vote per slot is wasted but can never be
     counted twice, so the remaining 7 replicas (quorum 6) commit
     normally. *)
  let cfg = Itest.small_cfg ~z:1 ~n:8 () in
  let d = PbftDep.create ~n_records:Itest.records cfg in
  (* No adversary primitive rewrites a vote, so the test installs its
     own interposer: replica 7's prepares leave with a bogus digest. *)
  let bogus = function
    | Rdb_pbft.Replica.Engine_msg (PbftMsg.Prepare { view; seq; digest = _ }) ->
        Rdb_pbft.Replica.Engine_msg
          (PbftMsg.Prepare { view; seq; digest = "bogus-digest-of-32-bytes........" })
    | m -> m
  in
  PbftDep.set_interposer d
    (Some
       {
         Rdb_types.Interpose.obtrude =
           (fun ~src ~dst:_ m -> Rdb_types.Interpose.pass (if src = 7 then bogus m else m));
         admit = (fun ~src:_ ~dst:_ _ -> true);
       });
  let report = PbftDep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 3) d in
  Alcotest.(check bool) "commits despite bogus votes" true
    (report.Rdb_fabric.Report.completed_txns > 0);
  Alcotest.(check int) "no view change needed" 0 (PbftDep.view_changes d);
  Itest.check_ledger_prefixes ~min_len:5
    ~ledgers:(Array.init 8 (fun i -> PbftDep.ledger d ~replica:i))
    ()

let suite =
  [
    ("partition stalls then heals (GeoBFT)", `Slow, test_partition_stalls_then_heals);
    ("local equivocation deposed (GeoBFT)", `Slow, test_geobft_local_equivocation_deposed);
    ("cascading primary failures (Pbft)", `Slow, test_pbft_cascading_primary_failures);
    ("byzantine prepare flood (Pbft)", `Quick, test_pbft_byzantine_prepare_flood);
  ]
