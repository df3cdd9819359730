(* Pbft integration tests: normal case, safety across replicas,
   checkpoint garbage collection, primary failure (view change),
   censorship, equivocation, and Byzantine message tampering. *)

module Config = Rdb_types.Config
module Time = Rdb_sim.Time
module Ledger = Rdb_ledger.Ledger
module Batch = Rdb_types.Batch
module Engine = Rdb_pbft.Engine
module Messages = Rdb_pbft.Messages
module Dep = Rdb_fabric.Deployment.Make (Rdb_pbft.Replica)

let run_small ?(cfg = Itest.small_cfg ()) ?(sim_sec = 4) ?(prepare = fun _ -> ()) () =
  let d = Dep.create ~n_records:Itest.records cfg in
  prepare d;
  let report = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec (sim_sec - 1)) d in
  (d, report)

let ledgers_of d cfg = Array.init (Config.n_replicas cfg) (fun i -> Dep.ledger d ~replica:i)
let kvs_of d cfg = Array.init (Config.n_replicas cfg) (fun i -> Dep.kv d ~replica:i)

let test_normal_case_progress () =
  let cfg = Itest.small_cfg () in
  let d, report = run_small ~cfg () in
  Alcotest.(check bool) "committed transactions" true (report.Rdb_fabric.Report.completed_txns > 0);
  Alcotest.(check int) "no view changes" 0 report.Rdb_fabric.Report.view_changes;
  Itest.check_ledger_prefixes ~min_len:10 ~ledgers:(ledgers_of d cfg) ();
  Itest.check_state_agreement ~ledgers:(ledgers_of d cfg) ~kvs:(kvs_of d cfg) ()

let test_ledger_certified () =
  let cfg = Itest.small_cfg () in
  let d, _ = run_small ~cfg () in
  let l = Dep.ledger d ~replica:0 in
  Alcotest.(check bool) "non-empty" true (Ledger.length l > 0);
  Alcotest.(check bool) "full certified audit" true
    (Ledger.verify_certified l ~keychain:(Dep.keychain d) ~quorum:(Config.n_replicas cfg - ((Config.n_replicas cfg - 1) / 3)))

let test_in_order_no_gaps () =
  let cfg = Itest.small_cfg () in
  let d, _ = run_small ~cfg () in
  (* Every replica's engine must have emitted a contiguous sequence. *)
  for i = 0 to Config.n_replicas cfg - 1 do
    let e = Rdb_pbft.Replica.engine (Dep.replica d i) in
    Alcotest.(check bool) (Printf.sprintf "replica %d progressed" i) true (Engine.next_emit e > 0)
  done

let test_checkpoint_gc () =
  (* With checkpoint_interval = 60 txns and batch = 5, checkpoints fire
     every 12 sequence numbers; after several intervals the stable
     watermark must have advanced and every slot at or below it must
     have been garbage-collected. *)
  let cfg = Itest.small_cfg () in
  let d, _ = run_small ~cfg ~sim_sec:4 () in
  let e = Rdb_pbft.Replica.engine (Dep.replica d 0) in
  let every = Engine.checkpoint_every e in
  Alcotest.(check bool)
    (Printf.sprintf "ran past several checkpoint intervals (emit %d, every %d)"
       (Engine.next_emit e) every)
    true
    (Engine.next_emit e > 3 * every);
  Alcotest.(check bool)
    (Printf.sprintf "low water advanced (low_water %d)" (Engine.low_water e))
    true
    (Engine.low_water e >= every - 1);
  Alcotest.(check bool)
    (Printf.sprintf "pre-watermark slots GC'd (min retained %d)" (Engine.min_retained_slot e))
    true
    (Engine.min_retained_slot e > Engine.low_water e)

let test_primary_failure_view_change () =
  let cfg = Itest.small_cfg ~inflight:2 () in
  let d, report =
    run_small ~cfg ~sim_sec:8
      ~prepare:(fun d -> Dep.at d ~time:(Time.ms 2000) (fun () -> Dep.crash_primary d ~cluster:0))
      ()
  in
  Alcotest.(check bool) "view change happened" true (report.Rdb_fabric.Report.view_changes > 0);
  (* Progress resumed after the view change: completions continued into
     the measurement window (which starts at 1s, crash at 2s). *)
  Alcotest.(check bool) "progress after failure" true
    (report.Rdb_fabric.Report.completed_txns > 0);
  let live = Array.of_list (List.filteri (fun i _ -> i <> 0) (Array.to_list (ledgers_of d cfg))) in
  Itest.check_ledger_prefixes ~min_len:5 ~ledgers:live ()

let test_one_backup_failure_tolerated () =
  let cfg = Itest.small_cfg () in
  let d, report =
    run_small ~cfg ~prepare:(fun d -> Dep.crash_replica d (Config.n_replicas cfg - 1)) ()
  in
  Alcotest.(check bool) "progress with one backup down" true
    (report.Rdb_fabric.Report.completed_txns > 0);
  Alcotest.(check int) "no view change needed" 0 report.Rdb_fabric.Report.view_changes;
  ignore d

let test_too_many_failures_halt () =
  (* With 8 replicas (f = 2), crashing 3 backups exceeds f: no further
     progress possible (safety over liveness). *)
  let cfg = Itest.small_cfg ~inflight:2 () in
  let d = Dep.create ~n_records:Itest.records cfg in
  Dep.crash_replica d 5;
  Dep.crash_replica d 6;
  Dep.crash_replica d 7;
  let report = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 3) d in
  Alcotest.(check int) "no commits beyond f failures" 0 report.Rdb_fabric.Report.completed_txns

let test_equivocating_primary_detected () =
  (* The primary sends conflicting preprepares to odd and even
     replicas: backups must detect the equivocation (conflicting
     digests in one view/seq slot) and depose it. *)
  let cfg = Itest.small_cfg ~z:1 ~n:4 ~inflight:2 () in
  let d = Dep.create ~n_records:Itest.records cfg in
  let primary_engine = Rdb_pbft.Replica.engine (Dep.replica d 0) in
  let forged = ref None in
  Engine.set_tamper primary_engine
    (Some
       (fun ~dst m ->
         match m with
         | Messages.Preprepare { view; seq; batch = _ } when dst mod 2 = 1 ->
             (* Replace the batch for odd-indexed replicas. *)
             let b =
               match !forged with
               | Some b -> b
               | None ->
                   let b =
                     Batch.noop ~keychain:(Dep.keychain d) ~cluster:0 ~origin:0
                       ~created:Time.zero ~nonce:4242
                   in
                   forged := Some b;
                   b
             in
             Some (Messages.Preprepare { view; seq; batch = b })
         | m -> Some m));
  let _report = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 5) d in
  (* The view change deposes the equivocator, after which progress
     resumes under the new primary (which stops tampering since only
     replica 0's engine is wrapped). *)
  Alcotest.(check bool) "view change deposed equivocator" true (Dep.view_changes d > 0);
  let ledgers = Array.init 4 (fun i -> Dep.ledger d ~replica:i) in
  Itest.check_ledger_prefixes ~min_len:1 ~ledgers ()

let test_censoring_primary_recovers () =
  (* A primary that drops all preprepares (sends nothing) must be
     replaced by the censorship timers. *)
  let cfg = Itest.small_cfg ~z:1 ~n:4 ~inflight:2 () in
  let d = Dep.create ~n_records:Itest.records cfg in
  let primary_engine = Rdb_pbft.Replica.engine (Dep.replica d 0) in
  Engine.set_tamper primary_engine
    (Some (fun ~dst:_ m -> match m with Messages.Preprepare _ -> None | m -> Some m));
  let report = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 6) d in
  Alcotest.(check bool) "silent primary deposed" true (Dep.view_changes d > 0);
  Alcotest.(check bool) "progress after deposition" true
    (report.Rdb_fabric.Report.completed_txns > 0)

let test_client_retransmission_over_network () =
  (* Replies to the client group are dropped on the wire for the first
     1.5 s: the clients must hit [client_timeout_ms], retransmit (the
     counter increments), and complete the batches once the rule is
     lifted. *)
  let base = Itest.small_cfg ~z:1 ~n:4 ~inflight:2 () in
  let cfg = { base with Config.client_timeout_ms = 400.0 } in
  let d = Dep.create ~n_records:Itest.records cfg in
  let client_node = Config.client_node cfg ~cluster:0 in
  Dep.add_drop_rule d (fun ~src:_ ~dst -> dst = client_node);
  Dep.at d ~time:(Time.ms 1500) (fun () -> Dep.clear_drop_rules d);
  let report = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 3) d in
  let c = Dep.client d ~cluster:0 in
  Alcotest.(check bool) "client retransmitted after timeout" true
    (Rdb_types.Client_core.retransmits c > 0);
  Alcotest.(check bool) "batches complete once replies flow again" true
    (report.Rdb_fabric.Report.completed_txns > 0)

let test_determinism () =
  let r1 = snd (run_small ()) in
  let r2 = snd (run_small ()) in
  Alcotest.(check int) "identical txn counts" r1.Rdb_fabric.Report.completed_txns
    r2.Rdb_fabric.Report.completed_txns;
  Alcotest.(check (float 0.0001)) "identical latency" r1.Rdb_fabric.Report.avg_latency_ms
    r2.Rdb_fabric.Report.avg_latency_ms

let suite =
  [
    ("normal case progress + safety", `Quick, test_normal_case_progress);
    ("ledger certified audit", `Quick, test_ledger_certified);
    ("in-order emission", `Quick, test_in_order_no_gaps);
    ("checkpoint GC", `Quick, test_checkpoint_gc);
    ("primary failure -> view change", `Slow, test_primary_failure_view_change);
    ("one backup failure tolerated", `Quick, test_one_backup_failure_tolerated);
    ("beyond f failures halts", `Quick, test_too_many_failures_halt);
    ("equivocating primary deposed", `Slow, test_equivocating_primary_detected);
    ("censoring primary deposed", `Slow, test_censoring_primary_recovers);
    ("client retransmission over the network", `Quick, test_client_retransmission_over_network);
    ("determinism", `Quick, test_determinism);
  ]

let test_window_backpressure () =
  (* The primary never runs more than [pipeline_depth] sequence numbers
     ahead of delivery. *)
  let base = Itest.small_cfg ~z:1 ~n:4 ~inflight:16 () in
  let cfg = { base with Config.pipeline_depth = 4 } in
  let d = Dep.create ~n_records:Itest.records cfg in
  let e = Rdb_pbft.Replica.engine (Dep.replica d 0) in
  let max_flight = ref 0 in
  (* Sample in-flight depth every 10 ms of simulated time. *)
  Dep.start_clients d;
  let engine = Dep.engine d in
  for ms = 1 to 200 do
    Rdb_sim.Engine.run_until engine ~until:(Time.ms (10 * ms));
    max_flight := max !max_flight (Engine.in_flight e)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "in-flight bounded by window (max %d)" !max_flight)
    true
    (!max_flight <= 4);
  Alcotest.(check bool) "still progresses" true (Engine.next_emit e > 10)

let test_engine_noop_proposal () =
  (* propose_noop at an idle primary commits a no-op batch. *)
  let cfg = Itest.small_cfg ~z:1 ~n:4 ~inflight:1 () in
  let d = Dep.create ~n_records:Itest.records cfg in
  let e = Rdb_pbft.Replica.engine (Dep.replica d 0) in
  (* No clients started: the queue is empty, so the no-op proposes. *)
  Engine.propose_noop e;
  Rdb_sim.Engine.run_until (Dep.engine d) ~until:(Time.ms 500);
  Alcotest.(check int) "noop committed" 1 (Engine.next_emit e);
  let l = Dep.ledger d ~replica:0 in
  Alcotest.(check bool) "noop block" true
    (Ledger.length l = 1 && Batch.is_noop (Rdb_ledger.Ledger.get l 0).Rdb_ledger.Block.batch)

let test_forwarded_request_reaches_primary () =
  (* A batch submitted at a backup is forwarded and still commits. *)
  let cfg = Itest.small_cfg ~z:1 ~n:4 ~inflight:1 () in
  let d = Dep.create ~n_records:Itest.records cfg in
  let backup = Rdb_pbft.Replica.engine (Dep.replica d 2) in
  let txns = [| Rdb_types.Txn.make ~key:1 ~value:9L ~client_id:0 () |] in
  let batch =
    Batch.create ~keychain:(Dep.keychain d) ~id:77 ~cluster:0
      ~origin:(Config.client_node cfg ~cluster:0) ~txns ~created:Time.zero
  in
  Engine.submit_batch backup batch;
  Rdb_sim.Engine.run_until (Dep.engine d) ~until:(Time.ms 500);
  Alcotest.(check int) "committed via forwarding" 1 (Engine.next_emit backup)

let test_on_behind_arms_state_transfer () =
  (* A Commit beyond next_emit + 4*window cannot be buffered (the slot
     table never opens that far ahead) and nobody retransmits the
     normal-path traffic the window dropped — the engine must hand the
     gap to the state-transfer layer instead of silently eating it. *)
  let cfg = Itest.small_cfg ~z:1 ~n:4 () in
  let d = Dep.create ~n_records:Itest.records cfg in
  let r = Dep.replica d 1 in
  let window = cfg.Config.pipeline_depth in
  let stats () = (Rdb_pbft.Replica.recovery r).Rdb_types.Protocol.retransmissions in
  let commit seq =
    Rdb_pbft.Replica.on_message r ~src:2
      (Rdb_pbft.Replica.Engine_msg
         (Messages.Commit
            { view = 0; seq; digest = ""; signature = { Rdb_crypto.Schnorr.e = 0L; s = 0L } }))
  in
  Alcotest.(check int) "fresh replica has no retransmissions" 0 (stats ());
  (* Just inside the acceptance window: buffered normally, no catch-up. *)
  commit ((4 * window) - 1);
  Alcotest.(check int) "in-window commit does not arm catch-up" 0 (stats ());
  (* First sequence past the window: catch-up fetch fires synchronously. *)
  commit (4 * window);
  Alcotest.(check bool) "behind-window commit arms state transfer" true (stats () > 0);
  (* Re-arming while already recovering must not double-count. *)
  let armed = stats () in
  commit ((4 * window) + 7);
  Alcotest.(check int) "already recovering: no duplicate arm" armed (stats ())

let suite =
  suite
  @ [
      ("window backpressure", `Quick, test_window_backpressure);
      ("engine no-op proposal", `Quick, test_engine_noop_proposal);
      ("forwarded request commits", `Quick, test_forwarded_request_reaches_primary);
      ("behind-window commit arms state transfer", `Quick, test_on_behind_arms_state_transfer);
    ]
