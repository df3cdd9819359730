(* GeoBFT integration tests (paper §2): normal-case rounds across
   clusters, cross-cluster safety (identical executed sequences),
   no-op rounds for idle clusters, the remote view-change protocol
   (Example 2.4's Byzantine sender-primary), local primary failure,
   and f-failures-per-cluster resilience. *)

module Config = Rdb_types.Config
module Time = Rdb_sim.Time
module Ledger = Rdb_ledger.Ledger
module Block = Rdb_ledger.Block
module Batch = Rdb_types.Batch
module Engine = Rdb_pbft.Engine
module Geo = Rdb_geobft.Replica
module Messages = Rdb_geobft.Messages
module Dep = Rdb_fabric.Deployment.Make (Geo)

let run_small ?(cfg = Itest.small_cfg ()) ?(sim_sec = 4) ?(prepare = fun _ -> ()) () =
  let d = Dep.create ~n_records:Itest.records cfg in
  prepare d;
  let report = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec (sim_sec - 1)) d in
  (d, report)

let ledgers_of d cfg = Array.init (Config.n_replicas cfg) (fun i -> Dep.ledger d ~replica:i)
let kvs_of d cfg = Array.init (Config.n_replicas cfg) (fun i -> Dep.kv d ~replica:i)

let test_normal_case () =
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let d, report = run_small ~cfg () in
  Alcotest.(check bool) "progress" true (report.Rdb_fabric.Report.completed_txns > 0);
  Alcotest.(check int) "no view changes" 0 (Dep.view_changes d);
  Itest.check_ledger_prefixes ~min_len:10 ~ledgers:(ledgers_of d cfg) ();
  Itest.check_state_agreement ~ledgers:(ledgers_of d cfg) ~kvs:(kvs_of d cfg) ()

let test_round_structure () =
  (* §2.4: each round executes one batch per cluster, in cluster order:
     block heights h with h mod z = c must all belong to cluster c. *)
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let d, _ = run_small ~cfg () in
  let l = Dep.ledger d ~replica:0 in
  Alcotest.(check bool) "several rounds" true (Ledger.length l >= 2 * 4);
  for h = 0 to Ledger.length l - 1 do
    let b = Ledger.get l h in
    Alcotest.(check int)
      (Printf.sprintf "block %d cluster order" h)
      (h mod 2) b.Block.cluster
  done

let test_three_clusters () =
  let cfg = Itest.small_cfg ~z:3 ~n:4 () in
  let d, report = run_small ~cfg () in
  Alcotest.(check bool) "progress" true (report.Rdb_fabric.Report.completed_txns > 0);
  Itest.check_ledger_prefixes ~min_len:9 ~ledgers:(ledgers_of d cfg) ();
  Itest.check_state_agreement ~ledgers:(ledgers_of d cfg) ~kvs:(kvs_of d cfg) ()

let test_certified_ledger () =
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let d, _ = run_small ~cfg () in
  (* Every block carries a commit certificate of its producing cluster:
     quorum is the per-cluster n − f. *)
  Alcotest.(check bool) "certified audit" true
    (Ledger.verify_certified (Dep.ledger d ~replica:0) ~keychain:(Dep.keychain d)
       ~quorum:(Config.quorum cfg))

let test_noop_rounds_for_idle_cluster () =
  (* §2.5: a cluster with no client requests must not stall the other
     clusters — its primary fills rounds with no-ops. *)
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let d = Dep.create ~n_records:Itest.records cfg in
  Dep.pause_client d ~cluster:1;
  let report = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 3) d in
  Alcotest.(check bool) "cluster 0 progressed" true (report.Rdb_fabric.Report.completed_txns > 0);
  let l = Dep.ledger d ~replica:0 in
  let noops = ref 0 and real = ref 0 in
  for h = 0 to Ledger.length l - 1 do
    if Batch.is_noop (Ledger.get l h).Block.batch then incr noops else incr real
  done;
  Alcotest.(check bool) "no-op rounds filled cluster 1 slots" true (!noops > 0);
  Alcotest.(check bool) "real batches executed" true (!real > 0);
  Itest.check_ledger_prefixes ~min_len:4 ~ledgers:(ledgers_of d cfg) ()

let test_remote_view_change_on_byzantine_sender () =
  (* Example 2.4, case (1): the primary of cluster 0 behaves correctly
     locally but never sends its certified batches to cluster 1.
     Cluster 1 must detect the silence, run DRVC agreement, send RVCs,
     and force a local view change in cluster 0; the new primary
     resumes sharing and every replica recovers. *)
  let cfg = Itest.small_cfg ~z:2 ~n:4 ~inflight:2 () in
  let d = Dep.create ~n_records:Itest.records cfg in
  (* Drop exactly the cross-cluster traffic of replica 0 (cluster 0's
     initial primary). *)
  Dep.add_drop_rule d (fun ~src ~dst -> src = 0 && dst >= 4 && dst < 8);
  let report = Dep.run ~warmup:(Time.sec 2) ~measure:(Time.sec 8) d in
  Alcotest.(check bool) "local view change forced in cluster 0" true (Dep.view_changes d > 0);
  (* Replicas in cluster 1 observed the remote view change being
     honored in cluster 0. *)
  let honored = ref 0 in
  for i = 0 to 3 do
    honored := !honored + Geo.remote_vcs_triggered (Dep.replica d i)
  done;
  Alcotest.(check bool) "cluster 0 honored a remote vc request" true (!honored > 0);
  Alcotest.(check bool) "progress after recovery" true
    (report.Rdb_fabric.Report.completed_txns > 0);
  let cfg' = cfg in
  Itest.check_ledger_prefixes ~min_len:2 ~ledgers:(ledgers_of d cfg') ()

let test_receiving_replica_drops_are_harmless () =
  (* Example 2.4, case (2) adapted: one replica of cluster 1 drops all
     incoming cross-cluster traffic.  The optimistic protocol sends to
     f+1 replicas, so at least one non-faulty receiver forwards m
     locally — no view change should be needed anywhere. *)
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let d = Dep.create ~n_records:Itest.records cfg in
  Dep.add_drop_rule d (fun ~src ~dst -> dst = 5 && src < 4);
  let report = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 3) d in
  Alcotest.(check bool) "progress" true (report.Rdb_fabric.Report.completed_txns > 0);
  Alcotest.(check int) "no view changes" 0 (Dep.view_changes d)

let test_local_primary_failure () =
  (* Crash cluster 0's primary mid-run: the local Pbft view change
     replaces it, GeoBFT resumes; remote clusters may also trigger the
     remote view-change path concurrently — either way rounds resume. *)
  let cfg = Itest.small_cfg ~z:2 ~n:4 ~inflight:2 () in
  let d, report =
    run_small ~cfg ~sim_sec:10
      ~prepare:(fun d -> Dep.at d ~time:(Time.ms 2000) (fun () -> Dep.crash_primary d ~cluster:0))
      ()
  in
  Alcotest.(check bool) "view change" true (Dep.view_changes d > 0);
  Alcotest.(check bool) "progress after primary failure" true
    (report.Rdb_fabric.Report.completed_txns > 0);
  (* Exclude the crashed node from safety checks. *)
  let ledgers = Array.of_list (List.filteri (fun i _ -> i <> 0) (Array.to_list (ledgers_of d cfg))) in
  Itest.check_ledger_prefixes ~min_len:2 ~ledgers ()

let test_f_failures_per_cluster () =
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let d, report = run_small ~cfg ~prepare:(fun d -> Dep.crash_f_per_cluster d) () in
  Alcotest.(check bool) "progress with f failures per cluster" true
    (report.Rdb_fabric.Report.completed_txns > 0);
  let live =
    Array.of_list
      (List.filteri (fun i _ -> i <> 3 && i <> 7) (Array.to_list (ledgers_of d cfg)))
  in
  Itest.check_ledger_prefixes ~min_len:5 ~ledgers:live ()

let test_sharing_targets_are_weak_quorum () =
  (* The global phase sends each certified batch to exactly f+1
     replicas per remote cluster (Figure 5, line 1). *)
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let d, report = run_small ~cfg () in
  ignore d;
  (* Global messages per decision: shares (f+1 per remote cluster per
     round = 2 per round = 1 per decision at z=2) plus nothing else in
     the fault-free case.  Allow slack for client requests crossing
     regions (none here: clients are local) and round boundaries. *)
  let gpd = Rdb_fabric.Report.global_msgs_per_decision report in
  Alcotest.(check bool)
    (Printf.sprintf "global msgs/decision ~ (f+1)(z-1)/z (got %.2f)" gpd)
    true
    (gpd > 0.5 && gpd < 2.5)

let test_determinism () =
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let r1 = snd (run_small ~cfg ()) in
  let r2 = snd (run_small ~cfg ()) in
  Alcotest.(check int) "identical txns" r1.Rdb_fabric.Report.completed_txns
    r2.Rdb_fabric.Report.completed_txns;
  Alcotest.(check (float 0.0001)) "identical latency" r1.Rdb_fabric.Report.avg_latency_ms
    r2.Rdb_fabric.Report.avg_latency_ms

let prop_safety_across_seeds =
  (* For arbitrary seeds, all non-faulty replicas execute the same
     sequence (non-divergence, Theorem 2.8). *)
  QCheck.Test.make ~name:"geobft non-divergence across seeds" ~count:5
    QCheck.(int_range 1 1000)
    (fun seed ->
      let cfg = Itest.small_cfg ~z:2 ~n:4 ~seed () in
      let d = Dep.create ~n_records:Itest.records cfg in
      let _ = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 2) d in
      let ledgers = Array.init 8 (fun i -> Dep.ledger d ~replica:i) in
      let ok = ref true in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              if i < j && not (Ledger.is_prefix_of a b || Ledger.is_prefix_of b a) then ok := false)
            ledgers)
        ledgers;
      !ok && Ledger.length ledgers.(0) > 0)

let test_rvc_replay_protection () =
  (* Figure 7, line 16.4: a remote view-change request (f+1 distinct
     signers of one cluster) is honored at most once per vc_count —
     replaying the same signed requests must not trigger another local
     view change. *)
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let d = Dep.create ~n_records:Itest.records cfg in
  let target = Dep.replica d 1 in   (* cluster 0 backup: the suspected cluster *)
  let send_rvc requester =
    let payload =
      Messages.rvc_payload ~failed_cluster:0 ~round:5 ~vc_count:1 ~requester
    in
    let signature = Rdb_crypto.Keychain.sign (Dep.keychain d) ~signer:requester payload in
    Geo.on_message target ~src:requester
      (Messages.Rvc { failed_cluster = 0; round = 5; vc_count = 1; requester; signature })
  in
  send_rvc 4;                       (* one signer of cluster 1: below f+1 *)
  Alcotest.(check int) "f distinct signers are not enough" 0
    (Geo.remote_vcs_triggered target);
  send_rvc 5;                       (* second distinct signer reaches f+1 = 2 *)
  Alcotest.(check int) "f+1 distinct signers honored once" 1
    (Geo.remote_vcs_triggered target);
  send_rvc 4;
  send_rvc 5;                       (* byte-identical replay of both requests *)
  Alcotest.(check int) "replayed request is not honored again" 1
    (Geo.remote_vcs_triggered target)

let suite =
  [
    ("normal case", `Quick, test_normal_case);
    ("round structure (cluster order)", `Quick, test_round_structure);
    ("three clusters", `Quick, test_three_clusters);
    ("certified ledger", `Quick, test_certified_ledger);
    ("no-op rounds for idle cluster", `Quick, test_noop_rounds_for_idle_cluster);
    ("remote view change (Example 2.4 case 1)", `Slow, test_remote_view_change_on_byzantine_sender);
    ("remote view-change replay protection", `Quick, test_rvc_replay_protection);
    ("receiver drops are harmless (f+1 fan-out)", `Quick, test_receiving_replica_drops_are_harmless);
    ("local primary failure", `Slow, test_local_primary_failure);
    ("f failures per cluster", `Quick, test_f_failures_per_cluster);
    ("global sharing fan-out", `Quick, test_sharing_targets_are_weak_quorum);
    ("determinism", `Quick, test_determinism);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_safety_across_seeds ]

let test_threshold_certificates_mode () =
  (* §2.2 optional: threshold-signature certificates keep progress and
     shrink global traffic (constant-size certificates). *)
  let base = Itest.small_cfg ~z:2 ~n:4 () in
  let run cfg =
    let d = Dep.create ~n_records:Itest.records cfg in
    let r = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 3) d in
    (d, r)
  in
  let d_plain, plain = run base in
  let d_thr, thr = run { base with Config.threshold_certs = true } in
  Alcotest.(check bool) "threshold mode progresses" true
    (thr.Rdb_fabric.Report.completed_txns > 0);
  Itest.check_ledger_prefixes ~min_len:5
    ~ledgers:(Array.init 8 (fun i -> Dep.ledger d_thr ~replica:i))
    ();
  (* Equal decisions => compare bytes per decision. *)
  let bpd (r : Rdb_fabric.Report.t) = r.Rdb_fabric.Report.global_mb /. float_of_int r.Rdb_fabric.Report.decisions in
  Alcotest.(check bool)
    (Printf.sprintf "smaller global certificates (%.4f vs %.4f MB/dec)" (bpd thr) (bpd plain))
    true
    (bpd thr < bpd plain);
  ignore d_plain

let test_fanout_one_with_crashed_receiver_recovers () =
  (* Ablation A's failure mechanism: with fan-out 1, the rotation
     periodically picks the single crashed receiver, so some rounds
     are never delivered optimistically; the remote view-change path
     must recover them (DRVC "I already have m" replies or local VC +
     re-share).  Progress must continue either way. *)
  let base = Itest.small_cfg ~z:2 ~n:4 ~inflight:2 () in
  let cfg = { base with Config.geobft_fanout = 1 } in
  let d = Dep.create ~n_records:Itest.records cfg in
  (* Crash one replica in cluster 1 (a pure receiver for cluster 0's
     shares). *)
  Dep.crash_replica d 7;
  let report = Dep.run ~warmup:(Time.sec 2) ~measure:(Time.sec 10) d in
  Alcotest.(check bool) "progress despite fan-out 1 + crash" true
    (report.Rdb_fabric.Report.completed_txns > 0);
  let live = [ 0; 1; 2; 3; 4; 5; 6 ] in
  let ledgers = Array.of_list (List.map (fun i -> Dep.ledger d ~replica:i) live) in
  Itest.check_ledger_prefixes ~min_len:2 ~ledgers ()

let test_on_behind_arms_catchup () =
  (* Same behind-the-window hand-off as Pbft, through GeoBFT's embedded
     local engine: a local Commit past next_emit + 4*window arms the
     crash-rejoin fetch path (the only retransmitter of dropped
     local-phase traffic) exactly once. *)
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let d = Dep.create ~n_records:Itest.records cfg in
  let r = Dep.replica d 1 in
  let window = cfg.Config.pipeline_depth in
  let stats () = (Geo.recovery r).Rdb_types.Protocol.retransmissions in
  let commit seq =
    (* src 2 is a same-cluster peer of replica 1 (cluster 0, n = 4). *)
    Geo.on_message r ~src:2
      (Messages.Local
         (Rdb_pbft.Messages.Commit
            { view = 0; seq; digest = ""; signature = { Rdb_crypto.Schnorr.e = 0L; s = 0L } }))
  in
  Alcotest.(check int) "fresh replica has no retransmissions" 0 (stats ());
  commit ((4 * window) - 1);
  Alcotest.(check int) "in-window commit does not arm catch-up" 0 (stats ());
  commit (4 * window);
  Alcotest.(check bool) "behind-window commit arms catch-up" true (stats () > 0);
  let armed = stats () in
  commit ((4 * window) + 7);
  Alcotest.(check int) "already recovering: no duplicate arm" armed (stats ())

let suite =
  suite
  @ [
      ("threshold certificates (§2.2 optional)", `Quick, test_threshold_certificates_mode);
      ("fan-out 1 + crashed receiver recovers", `Slow, test_fanout_one_with_crashed_receiver_recovers);
      ("behind-window commit arms catch-up", `Quick, test_on_behind_arms_catchup);
    ]
