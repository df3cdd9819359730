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
   certificate layout and what the ledgers of one deployment share;
   the words move only when what a ledger keeps does.  The four
   ledgers hold one stripped batch per height and one certificate per
   distinct commit set. *)
let test_ledger_words_pinned () =
  let cfg = Config.make ~z:1 ~n:4 ~batch_size:20 ~client_inflight:8 ~seed:1 () in
  let d = Dep.create ~n_records:10_000 ~retain_payloads:false cfg in
  ignore (Dep.run ~warmup:(Time.ms 300) ~measure:(Time.ms 500) d);
  let ledgers = Array.init (Config.n_replicas cfg) (fun replica -> Dep.ledger d ~replica) in
  let blocks = Array.fold_left (fun acc l -> acc + Ledger.length l) 0 ledgers in
  let words = Obj.reachable_words (Obj.repr ledgers) in
  Alcotest.(check int) "blocks" 9911 blocks;
  (* 26.1 words per block; 435,161 (43.9 per block) with a stripped
     batch and a certificate per replica, 593,746 (59.9 per block)
     with a [commit_sig list] per certificate besides. *)
  Alcotest.(check int) "reachable words" 259_027 words;
  let top = Array.fold_left (fun acc l -> max acc (Ledger.length l)) 0 ledgers in
  for h = 0 to top - 1 do
    let here =
      List.filter_map
        (fun l -> if h < Ledger.length l then Some (Ledger.get l h) else None)
        (Array.to_list ledgers)
    in
    let first = List.hd here in
    List.iter
      (fun (b : Block.t) ->
        if b.Block.batch != first.Block.batch then
          Alcotest.failf "height %d: two stripped batch objects" h)
      here;
    let certs = List.filter_map (fun (b : Block.t) -> b.Block.cert) here in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if a != b && Rdb_types.Certificate.equal a b then
              Alcotest.failf "height %d: two certificate objects with equal content" h)
          certs)
      certs
  done

let suite = suite @ [ ("ledger words pinned", `Quick, test_ledger_words_pinned) ]

(* -- wire declarations ---------------------------------------------------------- *)

(* Every constructor of every protocol's wire declaration, pinned at
   b100 for z2 n4 and z2 n7: (bytes, verifies) per message.  The sizes
   follow §4's calibration (5400 B batch, 1500 B response, 250 B small,
   143 B per certificate entry); n enters only through the n − f
   certificate entries of shares and catch-up replies (3 at n4, 5 at
   n7).  HotStuff's QC and each log-suffix batch carry a fixed four
   entries at every n. *)
let test_declared_wire_costs () =
  let keychain = Rdb_crypto.Keychain.create ~seed:"wire" ~n_nodes:16 in
  let batch = Batch.noop ~keychain ~cluster:0 ~origin:0 ~created:Time.zero ~nonce:1 in
  let signature = Rdb_crypto.Keychain.sign keychain ~signer:0 "wire" in
  let cert = Rdb_types.Certificate.make ~cluster:0 ~view:0 ~seq:1 ~digest:"d" ~commits:[] in
  let suffix blocks =
    { Rdb_recovery.Catchup.blocks = List.init blocks (fun _ -> (batch, None)); state = None }
  in
  let proof = { Rdb_pbft.Messages.pp_seq = 1; pp_view = 0; pp_digest = "d"; pp_batch = batch } in
  let check name cfg wire rows =
    List.iter
      (fun (label, m, (bytes, verifies)) ->
        let w : Rdb_types.Wire.cost = wire cfg m in
        Alcotest.(check (pair int int))
          (Printf.sprintf "%s n%d %s" name cfg.Config.n label)
          (bytes, verifies) (w.bytes, w.verifies))
      rows
  in
  List.iter
    (fun (n, sigs) ->
      let cfg = Config.make ~z:2 ~n ~batch_size:100 () in
      Alcotest.(check int) "n - f certificate entries" sigs (Config.cert_wire_sigs cfg);
      (* A share: the batch plus n − f entries; a catch-up reply of two
         blocks: header, anchor entries and two certified blocks. *)
      let share = 5400 + (143 * sigs) in
      let two_blocks = 200 + (143 * sigs) + (2 * share) in
      let empty = 200 + (143 * sigs) in
      let module M = Rdb_pbft.Messages in
      let engine =
        [
          ("forward", M.Forward batch, (5400, 0));
          ("preprepare", M.Preprepare { view = 0; seq = 1; batch }, (5400, 1));
          ("prepare", M.Prepare { view = 0; seq = 1; digest = "d" }, (250, 0));
          ("commit", M.Commit { view = 0; seq = 1; digest = "d"; signature }, (250, 1));
          ("checkpoint", M.Checkpoint { seq = 1; state_digest = "d" }, (250, 0));
          ( "view-change",
            M.ViewChange { target = 1; last_stable = 0; prepared = [ proof; proof ] },
            (250 + (2 * 5400), 2) );
          ( "new-view",
            M.NewView { target = 1; preprepares = [ (1, batch); (2, batch); (3, batch) ] },
            (250 + (3 * 5400), 3) );
        ]
      in
      check "messages" cfg M.wire engine;
      let module P = Rdb_pbft.Replica in
      check "pbft" cfg P.wire
        (List.map (fun (l, m, c) -> (l, P.Engine_msg m, c)) engine
        @ [
            ("request", P.Request batch, (5400, 0));
            ("read-request", P.Read_request batch, (5400, 0));
            ("reply", P.Reply { batch_id = 1; result_digest = "r"; primary = 0 }, (1500, 0));
            ("fetch-state", P.Fetch_state { from = 3 }, (250, 0));
            ( "snapshot",
              P.Snapshot
                { from = 0; anchor_seq = 0; anchor_digest = "a"; view = 0; suffix = suffix 2 },
              (two_blocks, 2) );
            ( "empty snapshot",
              P.Snapshot
                { from = 0; anchor_seq = 0; anchor_digest = "a"; view = 0; suffix = suffix 0 },
              (empty, 1) );
          ]);
      let module G = Rdb_geobft.Messages in
      check "geobft" cfg Rdb_geobft.Replica.wire
        (List.map (fun (l, m, c) -> ("local-" ^ l, G.Local m, c)) engine
        @ [
            ("request", G.Request batch, (5400, 0));
            ("read-request", G.Read_request batch, (5400, 0));
            ("global-share", G.Global_share { round = 1; batch; cert }, (share, 0));
            ("drvc", G.Drvc { failed_cluster = 1; round = 1; vc_count = 1 }, (250, 0));
            ( "rvc",
              G.Rvc { failed_cluster = 1; round = 1; vc_count = 1; requester = 0; signature },
              (250, 1) );
            ("reply", G.Reply { batch_id = 1; result_digest = "r"; primary = 0 }, (1500, 0));
            ("fetch-rounds", G.Fetch_rounds { from = 3 }, (250, 0));
            ( "round-data",
              G.Round_data { from = 0; eng_view = 0; suffix = suffix 2 },
              (two_blocks, 2) );
            ( "empty round-data",
              G.Round_data { from = 0; eng_view = 0; suffix = suffix 0 },
              (empty, 1) );
          ]);
      let module S = Rdb_steward.Replica in
      check "steward" cfg S.wire
        [
          ("request", S.Request batch, (5400, 0));
          ("read-request", S.Read_request batch, (5400, 0));
          ( "certify-req batch",
            S.Certify_req { tag = "t"; digest = "d"; batch = Some batch },
            (5400, 0) );
          ("certify-req", S.Certify_req { tag = "t"; digest = "d"; batch = None }, (250, 0));
          ("partial-sig", S.Partial_sig { tag = "t"; digest = "d" }, (250, 1));
          ("site-forward", S.Site_forward { batch }, (5543, 1));
          ("global-proposal", S.Global_proposal { g = 1; batch }, (5543, 1));
          ("global-accept", S.Global_accept { g = 1; site = 0; digest = "d" }, (250, 1));
          ("local-bcast", S.Local_bcast { g = 1; batch }, (5543, 1));
          ("local-commit", S.Local_commit { g = 1 }, (250, 0));
          ("fetch-globals", S.Fetch_globals { from = 3 }, (250, 0));
          ( "globals-data",
            S.Globals_data { from = 0; batches = [ batch; batch ] },
            (200 + 143 + (2 * 5543), 2) );
          ("empty globals-data", S.Globals_data { from = 0; batches = [] }, (343, 1));
          ("reply", S.Reply { batch_id = 1; result_digest = "r" }, (1500, 0));
        ];
      let module Z = Rdb_zyzzyva.Replica in
      check "zyzzyva" cfg Z.wire
        [
          ("request", Z.Request batch, (5400, 0));
          ("order-req", Z.Order_req { view = 0; seq = 1; batch; history = "h" }, (5464, 1));
          ( "spec-reply",
            Z.Spec_reply { batch_id = 1; seq = 1; history = "h"; result_digest = "r" },
            (1500, 0) );
          ( "commit-cert",
            Z.Commit_cert
              { batch_id = 1; seq = 1; history = "h"; responders = List.init sigs Fun.id },
            (250 + (143 * sigs), sigs) );
          ("local-commit", Z.Local_commit { batch_id = 1; seq = 1 }, (250, 0));
        ];
      let module H = Rdb_hotstuff.Replica in
      check "hotstuff" cfg H.wire
        [
          ("request", H.Request batch, (5400, 0));
          ("propose", H.Propose { inst = 0; height = 1; batch }, (5400, 1));
          ("vote", H.Vote { inst = 0; height = 1; phase = H.Prepare; digest = "d" }, (250, 0));
          ( "qc",
            H.Qc { inst = 0; height = 1; phase = H.Commit; digest = "d" },
            (250 + (4 * 143), 0) );
          ("reply", H.Reply { batch_id = 1; result_digest = "r" }, (1500, 0));
          ("fetch-log", H.Fetch_log { inst = 0; from = 1 }, (250, 0));
          ( "log-suffix",
            H.Log_suffix { inst = 0; from = 1; batches = [ batch; batch ] },
            (250 + (2 * (5400 + (4 * 143))), 0) );
        ])
    [ (4, 3); (7, 5) ];
  (* The one conversion to a receive cost reproduces the formulas the
     senders used to spell out: the floor alone, the floor plus
     [verify_cost], and the floor plus k scaled verifications. *)
  let cfg = Config.make ~z:2 ~n:4 ~batch_size:100 () in
  let floor = Config.recv_floor_cost cfg ~bytes:5400 in
  let cost verifies = Config.recv_cost cfg { bytes = 5400; verifies } in
  Alcotest.(check int) "k = 0: the floor" floor (cost 0);
  Alcotest.(check int) "k = 1: floor + verify_cost"
    (Time.add floor (Config.verify_cost cfg))
    (cost 1);
  Alcotest.(check int) "k = 5: floor + 5 verify_us"
    (Time.add floor (Time.of_us_f (cfg.Config.costs.Config.verify_us *. 5.)))
    (cost 5)

let suite = suite @ [ ("declared wire costs", `Quick, test_declared_wire_costs) ]

(* -- a replica past the pool ------------------------------------------------- *)

(* A replica crashed for 400 ms of a stripped run rejoins more than
   the pool's 256 heights behind the others and catches up by ledger
   fetch.  The stripped batches it fetches are a peer's pooled
   objects, so its ledger appends them as they are, and the four
   ledgers hold one batch object per height. *)
let test_rejoined_ledger_shares_batches () =
  let cfg = Config.make ~z:1 ~n:4 ~batch_size:20 ~client_inflight:8 ~seed:1 () in
  let d = Dep.create ~n_records:10_000 ~retain_payloads:false cfg in
  let ledgers = Array.init (Config.n_replicas cfg) (fun replica -> Dep.ledger d ~replica) in
  let lag = ref 0 in
  Dep.at d ~time:(Time.ms 400) (fun () -> Dep.crash_replica d 3);
  Dep.at d ~time:(Time.ms 800) (fun () ->
      lag := Ledger.length ledgers.(0) - Ledger.length ledgers.(3);
      Dep.recover_replica d 3);
  ignore (Dep.run ~warmup:(Time.ms 300) ~measure:(Time.ms 1200) d);
  Alcotest.(check bool) (Printf.sprintf "rejoined %d heights behind" !lag) true (!lag > 256);
  let top = Array.fold_left (fun acc l -> max acc (Ledger.length l)) 0 ledgers in
  let objects = ref 0 in
  for h = 0 to top - 1 do
    let distinct =
      Array.fold_left
        (fun acc l ->
          if h >= Ledger.length l then acc
          else
            let b = (Ledger.get l h).Block.batch in
            if List.memq b acc then acc else b :: acc)
        [] ledgers
    in
    objects := !objects + List.length distinct
  done;
  Alcotest.(check int) "one batch object per height" top !objects

let suite =
  suite @ [ ("rejoined ledger shares batches", `Quick, test_rejoined_ledger_shares_batches) ]
