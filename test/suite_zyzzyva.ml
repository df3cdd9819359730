(* Zyzzyva integration tests: the fast path (all n replicas), the
   client-driven commit-certificate slow path under failures, and the
   failure-induced collapse the paper documents in §4.3. *)

module Config = Rdb_types.Config
module Time = Rdb_sim.Time
module Zyz = Rdb_zyzzyva.Replica
module Dep = Rdb_fabric.Deployment.Make (Zyz)

let run_small ?(cfg = Itest.small_cfg ()) ?(sim_sec = 4) ?(prepare = fun _ -> ()) () =
  let d = Dep.create ~n_records:Itest.records cfg in
  prepare d;
  let report = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec (sim_sec - 1)) d in
  (d, report)

let total_fast d cfg =
  let acc = ref 0 in
  for c = 0 to cfg.Config.z - 1 do
    acc := !acc + Zyz.fast_completions (Dep.client d ~cluster:c)
  done;
  !acc

let total_slow d cfg =
  let acc = ref 0 in
  for c = 0 to cfg.Config.z - 1 do
    acc := !acc + Zyz.slow_completions (Dep.client d ~cluster:c)
  done;
  !acc

let test_fast_path () =
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let d, report = run_small ~cfg () in
  Alcotest.(check bool) "progress" true (report.Rdb_fabric.Report.completed_txns > 0);
  Alcotest.(check bool) "fast-path completions" true (total_fast d cfg > 0);
  Alcotest.(check int) "no slow-path completions without failures" 0 (total_slow d cfg);
  Itest.check_ledger_prefixes ~min_len:10
    ~ledgers:(Array.init 8 (fun i -> Dep.ledger d ~replica:i))
    ()

let test_speculative_state_agreement () =
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let d, _ = run_small ~cfg () in
  Itest.check_state_agreement
    ~ledgers:(Array.init 8 (fun i -> Dep.ledger d ~replica:i))
    ~kvs:(Array.init 8 (fun i -> Dep.kv d ~replica:i))
    ()

let test_slow_path_under_failure () =
  (* One crashed backup: the fast path (all n matching replies) is
     impossible; every request must take the commit-certificate path,
     yet requests still complete. *)
  let cfg = Itest.small_cfg ~z:2 ~n:4 ~inflight:2 () in
  let d, report =
    run_small ~cfg ~sim_sec:14 ~prepare:(fun d -> Dep.crash_replica d 7) ()
  in
  Alcotest.(check bool) "slow-path completions" true (total_slow d cfg > 0);
  Alcotest.(check bool) "still makes progress" true
    (report.Rdb_fabric.Report.completed_txns > 0)

let test_throughput_collapse_under_failure () =
  (* §4.3: "the throughput of Zyzzyva plummets to zero" with even one
     failure.  The commit timer gates every request, so throughput must
     drop by a large factor. *)
  let cfg = Itest.small_cfg ~z:2 ~n:4 ~inflight:4 () in
  let _, healthy = run_small ~cfg ~sim_sec:8 () in
  let _, failed = run_small ~cfg ~sim_sec:8 ~prepare:(fun d -> Dep.crash_replica d 7) () in
  let ratio =
    failed.Rdb_fabric.Report.throughput_txn_s /. healthy.Rdb_fabric.Report.throughput_txn_s
  in
  Alcotest.(check bool)
    (Printf.sprintf "collapse (ratio %.3f)" ratio)
    true (ratio < 0.25)

let test_primary_failure_halts () =
  (* No view change is implemented (matching the paper's exclusion of
     Zyzzyva from the primary-failure experiment): a crashed primary
     halts the protocol. *)
  let cfg = Itest.small_cfg ~z:2 ~n:4 ~inflight:2 () in
  let d = Dep.create ~n_records:Itest.records cfg in
  Dep.crash_replica d 0;
  let report = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 3) d in
  Alcotest.(check int) "no progress without primary" 0 report.Rdb_fabric.Report.completed_txns

let test_determinism () =
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let r1 = snd (run_small ~cfg ()) in
  let r2 = snd (run_small ~cfg ()) in
  Alcotest.(check int) "identical txns" r1.Rdb_fabric.Report.completed_txns
    r2.Rdb_fabric.Report.completed_txns

let suite =
  [
    ("fast path", `Quick, test_fast_path);
    ("speculative state agreement", `Quick, test_speculative_state_agreement);
    ("slow path under failure", `Slow, test_slow_path_under_failure);
    ("throughput collapse under failure", `Slow, test_throughput_collapse_under_failure);
    ("primary failure halts", `Quick, test_primary_failure_halts);
    ("determinism", `Quick, test_determinism);
  ]
