(* HotStuff integration tests: parallel-primary instances, per-instance
   ordering consistency, resilience to a crashed instance leader
   (clients rotate away), and progress accounting. *)

module Config = Rdb_types.Config
module Time = Rdb_sim.Time
module Ledger = Rdb_ledger.Ledger
module Block = Rdb_ledger.Block
module Hs = Rdb_hotstuff.Replica
module Dep = Rdb_fabric.Deployment.Make (Hs)

let run_small ?(cfg = Itest.small_cfg ()) ?(sim_sec = 4) ?(prepare = fun _ -> ()) () =
  let d = Dep.create ~n_records:Itest.records cfg in
  prepare d;
  let report = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec (sim_sec - 1)) d in
  (d, report)

let test_normal_case () =
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let d, report = run_small ~cfg () in
  Alcotest.(check bool) "progress" true (report.Rdb_fabric.Report.completed_txns > 0);
  (* All replicas decide the same total number of batches, eventually:
     compare the two most advanced ones. *)
  let totals = Array.init 8 (fun i -> Hs.decided_total (Dep.replica d i)) in
  Array.iter (fun t -> Alcotest.(check bool) "every replica decided" true (t > 0)) totals

let test_per_client_order_consistent () =
  (* Instances are independent logs, so full ledgers interleave
     differently across replicas; but the *per-origin-cluster*
     subsequence (equivalently, per-instance) must agree.  Check that
     the multiset of executed batch ids agrees on a common prefix:
     every batch id executed by replica j was executed by replica k or
     is still in flight. *)
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let d, _ = run_small ~cfg () in
  let ids_of r =
    let l = Dep.ledger d ~replica:r in
    let tbl = Hashtbl.create 64 in
    for h = 0 to Ledger.length l - 1 do
      let b = (Ledger.get l h).Block.batch in
      Hashtbl.replace tbl b.Rdb_types.Batch.id ()
    done;
    tbl
  in
  let a = ids_of 0 and b = ids_of 1 in
  let missing = ref 0 and common = ref 0 in
  Hashtbl.iter (fun id () -> if Hashtbl.mem b id then incr common else incr missing) a;
  Alcotest.(check bool)
    (Printf.sprintf "replicas executed mostly the same batches (%d common, %d in flight)" !common !missing)
    true
    (!common > 0 && !missing < 64)

let test_leader_crash_degrades_gracefully () =
  (* Crashing one replica stalls only its instance; clients rotate to
     other leaders on retransmission, so throughput drops moderately
     rather than to zero (Figure 12's HotStuff behaviour). *)
  let cfg = Itest.small_cfg ~z:2 ~n:4 ~inflight:4 () in
  let _, healthy = run_small ~cfg ~sim_sec:8 () in
  let _, failed = run_small ~cfg ~sim_sec:8 ~prepare:(fun d -> Dep.crash_replica d 7) () in
  let ratio =
    failed.Rdb_fabric.Report.throughput_txn_s /. healthy.Rdb_fabric.Report.throughput_txn_s
  in
  Alcotest.(check bool)
    (Printf.sprintf "graceful degradation (ratio %.2f)" ratio)
    true
    (ratio > 0.3)

let test_state_agreement_per_length () =
  (* Replicas with equally-long ledgers need not have identical state
     under instance interleaving, so check the weaker but still
     meaningful property: every replica's ledger verifies. *)
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let d, _ = run_small ~cfg () in
  for i = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "replica %d ledger verifies" i)
      true
      (Ledger.verify (Dep.ledger d ~replica:i))
  done

let test_deep_outage_state_transfer () =
  (* The state-transfer gap (DESIGN.md §17): a replica that sleeps
     through thousands of decisions must catch back up via
     [Fetch_log]/[Log_suffix] ledger transfer — served from the
     unbounded archive, chained chunk-to-chunk without timer backoff.
     The crash window is sized so the hole far exceeds the 64 heights
     at which the first delivery after the outage triggers the fetch
     at once. *)
  let cfg = Itest.small_cfg ~z:2 ~n:4 ~batch:5 ~inflight:8 () in
  let d = Dep.create ~n_records:Itest.records cfg in
  Dep.at d ~time:(Time.sec 2) (fun () -> Dep.crash_replica d 7);
  Dep.at d ~time:(Time.sec 5) (fun () -> Dep.recover_replica d 7);
  let report = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 9) d in
  Alcotest.(check bool) "bulk ledger transfer used" true
    (report.Rdb_fabric.Report.state_transfers > 0);
  let totals = Array.init 8 (fun i -> Hs.decided_total (Dep.replica d i)) in
  let best = Array.fold_left max 0 totals in
  Alcotest.(check bool)
    (Printf.sprintf "recovered replica caught up (%d of %d)" totals.(7) best)
    true
    (best > 200 && totals.(7) >= best - 64)

let test_determinism () =
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let r1 = snd (run_small ~cfg ()) in
  let r2 = snd (run_small ~cfg ()) in
  Alcotest.(check int) "identical txns" r1.Rdb_fabric.Report.completed_txns
    r2.Rdb_fabric.Report.completed_txns

let suite =
  [
    ("normal case", `Quick, test_normal_case);
    ("per-client order consistent", `Quick, test_per_client_order_consistent);
    ("leader crash degrades gracefully", `Slow, test_leader_crash_degrades_gracefully);
    ("ledgers verify", `Quick, test_state_agreement_per_length);
    ("deep outage triggers bulk state transfer", `Slow, test_deep_outage_state_transfer);
    ("determinism", `Quick, test_determinism);
  ]

(* Loss on the links into one replica leaves it holes a few heights
   deep, well under the 64 that trigger an immediate fetch.  The stall
   task heals them the one way deep outages heal: by fetching the
   instance's log from the frontier, so the run counts state
   transfers, and the lossy replica ends within one pipeline window
   (4 heights) of the best. *)
let test_shallow_holes_heal () =
  let cfg = Itest.small_cfg ~z:2 ~n:4 ~batch:5 ~inflight:8 () in
  let d = Dep.create ~n_records:Itest.records cfg in
  let lossy p () =
    for src = 0 to 6 do
      Dep.set_link_loss d ~src ~dst:7 ~p
    done
  in
  Dep.at d ~time:(Time.sec 2) (lossy 0.3);
  Dep.at d ~time:(Time.sec 3) (lossy 0.);
  let report = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 3) d in
  Alcotest.(check bool) "holes healed by log transfer" true
    (report.Rdb_fabric.Report.state_transfers > 0);
  let totals = Array.init 8 (fun i -> Hs.decided_total (Dep.replica d i)) in
  let best = Array.fold_left max 0 totals in
  Array.iteri
    (fun i t ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d within a pipeline window (%d of %d)" i t best)
        true (t >= best - 4))
    totals

let suite = suite @ [ ("shallow holes heal", `Quick, test_shallow_holes_heal) ]
