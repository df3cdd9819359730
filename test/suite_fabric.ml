(* Fabric tests: metrics/report math, deployment wiring, payload
   retention modes, run windows, and cross-protocol reproducibility. *)

module Config = Rdb_types.Config
module Time = Rdb_sim.Time
module Metrics = Rdb_fabric.Metrics
module Report = Rdb_fabric.Report
module Ledger = Rdb_ledger.Ledger
module Block = Rdb_ledger.Block
module Batch = Rdb_types.Batch
module Kv = Rdb_storage.Kv
module Dep = Rdb_fabric.Deployment.Make (Rdb_pbft.Replica)

(* -- Metrics ---------------------------------------------------------------- *)

let test_metrics_window () =
  let m = Metrics.create () in
  (* Completions outside the window are ignored. *)
  Metrics.record_completion m ~now:Time.zero ~txns:10 ~latency:(Time.ms 5) ();
  Metrics.open_window m ~now:(Time.sec 1);
  Metrics.record_completion m ~now:(Time.sec 2) ~txns:10 ~latency:(Time.ms 5) ();
  Metrics.record_completion m ~now:(Time.sec 2) ~txns:20 ~latency:(Time.ms 15) ();
  Metrics.close_window m ~now:(Time.sec 11);
  Metrics.record_completion m ~now:(Time.sec 12) ~txns:10 ~latency:(Time.ms 5) ();
  Alcotest.(check int) "completed txns in window" 30 (Metrics.completed_txns m);
  Alcotest.(check (float 0.001)) "throughput" 3.0 (Metrics.throughput_txn_s m);
  let lat = Metrics.latency_summary m in
  Alcotest.(check (float 0.001)) "avg latency" 10.0 lat.Metrics.avg_ms

let test_latency_percentiles () =
  let m = Metrics.create () in
  Metrics.open_window m ~now:Time.zero;
  for i = 1 to 100 do
    Metrics.record_completion m ~now:(Time.sec 1) ~txns:1 ~latency:(Time.ms i) ()
  done;
  Metrics.close_window m ~now:(Time.sec 10);
  let lat = Metrics.latency_summary m in
  Alcotest.(check bool) "p50 around 50" true (abs_float (lat.Metrics.p50_ms -. 50.) <= 2.);
  Alcotest.(check bool) "p99 around 99" true (abs_float (lat.Metrics.p99_ms -. 99.) <= 2.);
  Alcotest.(check (float 0.001)) "max" 100.0 lat.Metrics.max_ms

(* -- Deployment wiring -------------------------------------------------------- *)

let test_deployment_layout_validation () =
  (* z > 6 now deploys onto a tiled topology (DESIGN.md §17); only a
     degenerate cluster count is rejected. *)
  Alcotest.check_raises "z=0 rejected"
    (Invalid_argument "Deployment.create: z must be >= 1") (fun () ->
      ignore (Dep.create { (Config.make ~z:1 ~n:4 ()) with Config.z = 0 }))

let test_retain_payloads_modes () =
  let cfg = Itest.small_cfg ~z:1 ~n:4 () in
  let d1 = Dep.create ~n_records:Itest.records ~retain_payloads:true cfg in
  let _ = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 1) d1 in
  let l1 = Dep.ledger d1 ~replica:0 in
  Alcotest.(check bool) "payloads retained" true
    (Array.length (Ledger.get l1 0).Block.batch.Batch.txns > 0);
  let d2 = Dep.create ~n_records:Itest.records ~retain_payloads:false cfg in
  let _ = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 1) d2 in
  let l2 = Dep.ledger d2 ~replica:0 in
  Alcotest.(check int) "payloads dropped" 0 (Array.length (Ledger.get l2 0).Block.batch.Batch.txns);
  (* Identical consensus either way. *)
  Alcotest.(check int) "same chain length" (Ledger.length l1) (Ledger.length l2);
  Alcotest.(check bool) "compact chain still verifies" true (Ledger.verify l2)

let test_decisions_counted () =
  let cfg = Itest.small_cfg ~z:1 ~n:4 () in
  let d = Dep.create ~n_records:Itest.records cfg in
  let report = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 2) d in
  Alcotest.(check bool) "decisions > 0" true (report.Report.decisions > 0);
  Alcotest.(check bool) "traffic measured" true (report.Report.local_msgs > 0)

let test_report_per_decision_math () =
  let r =
    {
      Report.protocol = "x"; z = 1; n = 4; batch_size = 10; throughput_txn_s = 0.;
      avg_latency_ms = 0.; p50_latency_ms = 0.; p95_latency_ms = 0.; p99_latency_ms = 0.;
      completed_batches = 0; completed_txns = 0; decisions = 10; local_msgs = 240;
      global_msgs = 30; local_mb = 0.; global_mb = 0.; view_changes = 0;
      state_transfers = 0; holes_filled = 0; retransmissions = 0; storage = "mem";
      read_txns = 0; scan_txns = 0; write_txns = 0; read_p50_latency_ms = 0.;
      read_p95_latency_ms = 0.; read_p99_latency_ms = 0.; window_sec = 1.;
      trace = None;
    }
  in
  Alcotest.(check (float 0.001)) "local per decision" 24.0 (Report.local_msgs_per_decision r);
  Alcotest.(check (float 0.001)) "global per decision" 3.0 (Report.global_msgs_per_decision r)

let test_cross_run_reproducibility_across_protocols () =
  (* Two separately-constructed deployments with the same seed produce
     byte-identical ledgers. *)
  let cfg = Itest.small_cfg ~z:1 ~n:4 () in
  let run () =
    let d = Dep.create ~n_records:Itest.records cfg in
    let _ = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 2) d in
    Dep.ledger d ~replica:0
  in
  let l1 = run () and l2 = run () in
  Alcotest.(check int) "same length" (Ledger.length l1) (Ledger.length l2);
  Alcotest.(check string) "same tip hash" (Ledger.tip_hash l1) (Ledger.tip_hash l2)

let test_different_seeds_differ () =
  let mk seed =
    let cfg = Itest.small_cfg ~z:1 ~n:4 ~seed () in
    let d = Dep.create ~n_records:Itest.records cfg in
    let _ = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 1) d in
    Ledger.tip_hash (Dep.ledger d ~replica:0)
  in
  Alcotest.(check bool) "different seeds, different histories" true (mk 1 <> mk 2)

(* -- Json hardening ------------------------------------------------------ *)

module Json = Rdb_fabric.Json

let json_roundtrip_float f =
  match Json.of_string (Json.to_string_compact (Json.Float f)) with
  | Ok (Json.Float g) ->
      Alcotest.(check bool) (Printf.sprintf "float %h round-trips" f) true (g = f);
      Alcotest.(check bool)
        (Printf.sprintf "float %h keeps its sign" f)
        true
        (Float.sign_bit g = Float.sign_bit f)
  | Ok _ -> Alcotest.fail (Printf.sprintf "float %h reparsed as a non-float" f)
  | Error e -> Alcotest.fail (Printf.sprintf "float %h: %s" f e)

let test_json_float_roundtrips () =
  List.iter json_roundtrip_float
    [ -0.; 0.; 1e300; -1e300; 1e-300; 5e-324; Float.max_float; -.Float.max_float; 0.1; -2.5e-10 ]

let test_json_surrogate_pairs () =
  (* RFC 8259 §7: astral code points arrive as UTF-16 surrogate pairs
     and must decode to the real code point (4-byte UTF-8), not to a
     pair of 3-byte CESU-8 sequences. *)
  (match Json.of_string {|"😀"|} with
  | Ok (Json.String s) ->
      Alcotest.(check string) "U+1F600 as a surrogate pair" "\xF0\x9F\x98\x80" s
  | Ok _ -> Alcotest.fail "surrogate pair parsed as a non-string"
  | Error e -> Alcotest.fail e);
  (match Json.of_string {|"𐀀"|} with
  | Ok (Json.String s) ->
      Alcotest.(check string) "U+10000, the first astral code point" "\xF0\x90\x80\x80" s
  | Ok _ -> Alcotest.fail "surrogate pair parsed as a non-string"
  | Error e -> Alcotest.fail e);
  (* BMP escapes are unaffected. *)
  (match Json.of_string {|"é中"|} with
  | Ok (Json.String s) -> Alcotest.(check string) "BMP escapes" "\xC3\xA9\xE4\xB8\xAD" s
  | _ -> Alcotest.fail "BMP escape failed");
  (* Unpaired surrogates denote no character: parse error, never
     invalid UTF-8 output. *)
  List.iter
    (fun doc ->
      match Json.of_string doc with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%s should not parse" doc))
    [ {|"\uD800"|}; {|"\uDFFF"|}; {|"\uD800\uD800"|}; {|"\uD800x"|}; {|"\uDC00\uD800"|} ]

let test_json_depth_guard () =
  let deep k =
    String.concat "" (List.init k (fun _ -> "[")) ^ String.concat "" (List.init k (fun _ -> "]"))
  in
  (match Json.of_string (deep 512) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Printf.sprintf "512 levels should parse: %s" e));
  (match Json.of_string (deep 513) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "513 levels should be rejected");
  (* A bracket bomb must come back as Error, not a crash. *)
  match Json.of_string (String.concat "" (List.init 200_000 (fun _ -> "[{\"k\":"))) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bracket bomb should be rejected"

let suite =
  [
    ("metrics window", `Quick, test_metrics_window);
    ("json float round-trips", `Quick, test_json_float_roundtrips);
    ("json surrogate pairs", `Quick, test_json_surrogate_pairs);
    ("json depth guard", `Quick, test_json_depth_guard);
    ("latency percentiles", `Quick, test_latency_percentiles);
    ("deployment validation", `Quick, test_deployment_layout_validation);
    ("retain_payloads modes", `Quick, test_retain_payloads_modes);
    ("decisions counted", `Quick, test_decisions_counted);
    ("report math", `Quick, test_report_per_decision_math);
    ("reproducibility", `Quick, test_cross_run_reproducibility_across_protocols);
    ("seed sensitivity", `Quick, test_different_seeds_differ);
  ]

(* -- shared state-transfer snapshots ---------------------------------------- *)

module App = Rdb_types.App
module Interpose = Rdb_types.Interpose
module Catchup = Rdb_recovery.Catchup

(* A crashed replica rejoins a payload-stripped deployment by state
   transfer.  The deployment keeps the last snapshot it served, so a
   server at the same height as the previous one ships that physical
   string, not a copy of its own. *)
let test_state_transfer_shares_snapshots () =
  let cfg = Config.make ~z:1 ~n:4 ~batch_size:20 ~client_inflight:8 ~seed:1 () in
  let d = Dep.create ~n_records:10_000 ~retain_payloads:false cfg in
  let served = ref [] in
  let obtrude ~src:_ ~dst:_ m =
    (match m with
    | Rdb_pbft.Replica.Snapshot { suffix = { Catchup.state = Some s; _ }; _ } ->
        served := s :: !served
    | _ -> ());
    Interpose.pass m
  in
  Dep.set_interposer d (Some { Interpose.obtrude; admit = (fun ~src:_ ~dst:_ _ -> true) });
  Dep.at d ~time:(Time.ms 1200) (fun () -> Dep.crash_replica d 2);
  Dep.at d ~time:(Time.ms 2400) (fun () -> Dep.recover_replica d 2);
  ignore (Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 3) d);
  let served = List.rev !served in
  let rec shared n = function
    | (a : App.snapshot) :: (b :: _ as rest) ->
        if a.height = b.height then begin
          Alcotest.(check bool) (Printf.sprintf "height %d: the previous string" b.height) true
            (a == b);
          shared (n + 1) rest
        end
        else shared n rest
    | _ -> n
  in
  Alcotest.(check bool) "some snapshot followed one at its height" true (shared 0 served > 0);
  let top = List.fold_left (fun h (s : App.snapshot) -> max h s.height) 0 served in
  Alcotest.(check bool) "the rejoined replica installed it" true
    (Kv.height (Dep.kv d ~replica:2) >= top)

let suite =
  suite @ [ ("state transfer shares snapshots", `Quick, test_state_transfer_shares_snapshots) ]

(* -- ledger memory ------------------------------------------------------------ *)

(* The exact live size of every replica's ledger on a small
   payload-stripped deployment.  A stripped block is its record, its
   batch's identity and its commit certificate, so this pins the
   certificate layout; the words move only when what a ledger keeps
   does. *)
let test_ledger_words_pinned () =
  let cfg = Config.make ~z:1 ~n:4 ~batch_size:20 ~client_inflight:8 ~seed:1 () in
  let d = Dep.create ~n_records:10_000 ~retain_payloads:false cfg in
  ignore (Dep.run ~warmup:(Time.ms 300) ~measure:(Time.ms 500) d);
  let ledgers = Array.init (Config.n_replicas cfg) (fun replica -> Dep.ledger d ~replica) in
  let blocks = Array.fold_left (fun acc l -> acc + Ledger.length l) 0 ledgers in
  let words = Obj.reachable_words (Obj.repr ledgers) in
  Alcotest.(check int) "blocks" 9911 blocks;
  (* 43.9 words per block; 593,746 (59.9 per block) with a
     [commit_sig list] per certificate. *)
  Alcotest.(check int) "reachable words" 435_161 words

let suite = suite @ [ ("ledger words pinned", `Quick, test_ledger_words_pinned) ]
