(* Steward integration tests: hierarchical ordering through the primary
   site, global-sequence safety across all sites, threshold-round
   behaviour, and the protocol's known liveness limits. *)

module Config = Rdb_types.Config
module Time = Rdb_sim.Time
module Ledger = Rdb_ledger.Ledger
module Stw = Rdb_steward.Replica
module Dep = Rdb_fabric.Deployment.Make (Stw)

(* Steward's threshold crypto is slow by design; use a cheaper cost
   model in unit tests so small runs converge quickly. *)
let fast_cfg ?(z = 2) ?(n = 4) ?(inflight = 2) ?(seed = 1) () =
  let cfg = Itest.small_cfg ~z ~n ~inflight ~seed () in
  {
    cfg with
    Config.costs =
      { cfg.Config.costs with Config.threshold_partial_us = 100.; threshold_combine_us = 200. };
  }

let run_small ?(cfg = fast_cfg ()) ?(sim_sec = 5) ?(prepare = fun _ -> ()) () =
  let d = Dep.create ~n_records:Itest.records cfg in
  prepare d;
  let report = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec (sim_sec - 1)) d in
  (d, report)

let ledgers_of d cfg = Array.init (Config.n_replicas cfg) (fun i -> Dep.ledger d ~replica:i)
let kvs_of d cfg = Array.init (Config.n_replicas cfg) (fun i -> Dep.kv d ~replica:i)

let test_normal_case () =
  let cfg = fast_cfg () in
  let d, report = run_small ~cfg () in
  Alcotest.(check bool) "progress" true (report.Rdb_fabric.Report.completed_txns > 0);
  Itest.check_ledger_prefixes ~min_len:5 ~ledgers:(ledgers_of d cfg) ();
  Itest.check_state_agreement ~ledgers:(ledgers_of d cfg) ~kvs:(kvs_of d cfg) ()

let test_both_sites_served () =
  (* Requests from the non-primary site must flow through the primary
     site and execute everywhere. *)
  let cfg = fast_cfg () in
  let d, _ = run_small ~cfg () in
  let l = Dep.ledger d ~replica:0 in
  let clusters = Array.make 2 0 in
  for h = 0 to Ledger.length l - 1 do
    let b = (Ledger.get l h).Rdb_ledger.Block.batch in
    clusters.(b.Rdb_types.Batch.cluster) <- clusters.(b.Rdb_types.Batch.cluster) + 1
  done;
  Alcotest.(check bool) "primary-site requests executed" true (clusters.(0) > 0);
  Alcotest.(check bool) "remote-site requests executed" true (clusters.(1) > 0)

let test_three_sites_majority () =
  let cfg = fast_cfg ~z:3 () in
  let d, report = run_small ~cfg () in
  Alcotest.(check bool) "progress with 3 sites" true (report.Rdb_fabric.Report.completed_txns > 0);
  Itest.check_ledger_prefixes ~min_len:3 ~ledgers:(ledgers_of d cfg) ()

let test_backup_failures_tolerated () =
  (* f = 1 per site: one non-representative crash per site leaves the
     threshold rounds with n − f = 3 of 4 partials — still live. *)
  let cfg = fast_cfg () in
  let crash_backups d =
    for cluster = 0 to cfg.Config.z - 1 do
      Dep.crash_replica d (Config.replica_id cfg ~cluster ~index:(cfg.Config.n - 1))
    done
  in
  let d, report = run_small ~cfg ~prepare:crash_backups () in
  Alcotest.(check bool) "progress with f backups down per site" true
    (report.Rdb_fabric.Report.completed_txns > 0);
  ignore d

let test_leader_site_rep_failure_halts () =
  (* The primary site's representative is a single point of
     coordination and Steward (as implemented, matching the paper) has
     no view change: crashing it halts global ordering. *)
  let cfg = fast_cfg () in
  let d = Dep.create ~n_records:Itest.records cfg in
  Dep.crash_replica d 0;
  let report = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 3) d in
  Alcotest.(check int) "no progress" 0 report.Rdb_fabric.Report.completed_txns

let test_threshold_cost_gates_throughput () =
  (* The RSA-class threshold costs must visibly gate throughput: the
     same deployment with the real (slow) cost model commits fewer
     transactions than with the fast test model. *)
  let fast = fast_cfg ~inflight:4 () in
  let slow = Itest.small_cfg ~z:2 ~n:4 ~inflight:4 () in
  let _, rf = run_small ~cfg:fast ~sim_sec:6 () in
  let _, rs = run_small ~cfg:slow ~sim_sec:6 () in
  Alcotest.(check bool)
    (Printf.sprintf "threshold crypto gates throughput (%.0f vs %.0f)"
       rf.Rdb_fabric.Report.throughput_txn_s rs.Rdb_fabric.Report.throughput_txn_s)
    true
    (rs.Rdb_fabric.Report.throughput_txn_s < 0.7 *. rf.Rdb_fabric.Report.throughput_txn_s)

let test_determinism () =
  let cfg = fast_cfg () in
  let r1 = snd (run_small ~cfg ()) in
  let r2 = snd (run_small ~cfg ()) in
  Alcotest.(check int) "identical txns" r1.Rdb_fabric.Report.completed_txns
    r2.Rdb_fabric.Report.completed_txns

let suite =
  [
    ("normal case", `Quick, test_normal_case);
    ("both sites served", `Quick, test_both_sites_served);
    ("three sites (majority)", `Quick, test_three_sites_majority);
    ("backup failures tolerated", `Quick, test_backup_failures_tolerated);
    ("leader-site representative failure halts", `Quick, test_leader_site_rep_failure_halts);
    ("threshold cost gates throughput", `Slow, test_threshold_cost_gates_throughput);
    ("determinism", `Quick, test_determinism);
  ]
