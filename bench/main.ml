(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§4) and runs Bechamel micro-benchmarks of the
   substrates.  All experiment grids are enumerated as Scenario.t
   lists (the same lists `rdb_cli sweep` uses) and executed through
   the multicore sweep engine.

   Usage:
     dune exec bench/main.exe                 # everything (default windows)
     dune exec bench/main.exe -- fig10        # one artifact
     dune exec bench/main.exe -- fig12 fig13
     dune exec bench/main.exe -- -j 8 all     # 8 worker domains
     dune exec bench/main.exe -- --full all   # paper-length windows
     dune exec bench/main.exe -- micro        # Bechamel micro-benchmarks

   Artifacts: table1 table2 fig10 fig11 fig12 fig13 ablations micro.
   EXPERIMENTS.md records the paper's reported values next to the
   numbers these runs produce. *)

module Runner = Rdb_experiments.Runner
module Scenario = Rdb_experiments.Scenario
module Figures = Rdb_experiments.Figures
module Tables = Rdb_experiments.Tables
module Ablations = Rdb_experiments.Ablations
module Sweep = Rdb_sweep.Sweep
module Config = Rdb_types.Config
module Adversary = Rdb_adversary.Adversary
module Report = Rdb_fabric.Report
module Json = Rdb_fabric.Json

let say fmt = Printf.printf fmt

let jobs_ref = ref (Sweep.default_jobs ())

(* Run one scenario grid through the sweep engine, failing loudly if
   any scenario failed (bench grids contain no chaos faults, so a
   failure is always a bug). *)
let sweep scenarios = Sweep.reports_exn (Sweep.run ~jobs:!jobs_ref scenarios)

(* -- machine-readable results (BENCH_results.json) ------------------------ *)

(* Every artifact run is recorded as its wall time plus the labeled
   deployment reports it produced, and the whole session is written to
   BENCH_results.json so the perf trajectory is diffable across PRs. *)
type artifact = { a_name : string; a_wall_s : float; a_runs : (string * Report.t) list }

let artifacts : artifact list ref = ref []

let record name wall runs =
  artifacts := { a_name = name; a_wall_s = wall; a_runs = runs } :: !artifacts

let timed name ?(runs = fun _ -> []) f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall = Unix.gettimeofday () -. t0 in
  say "[%s done in %.1fs]\n%!" name wall;
  record name wall (runs r);
  r

let write_results ~windows () =
  let doc =
    Json.Obj
      [
        ("schema", Json.Int 2);
        ("generated_unix", Json.Float (Float.round (Unix.time ())));
        ("jobs", Json.Int !jobs_ref);
        ( "windows",
          Json.Obj
            [
              ("warmup_s", Json.Float (Rdb_sim.Time.to_sec_f windows.Runner.warmup));
              ("measure_s", Json.Float (Rdb_sim.Time.to_sec_f windows.Runner.measure));
            ] );
        ( "artifacts",
          Json.List
            (List.rev_map
               (fun a ->
                 Json.Obj
                   [
                     ("name", Json.String a.a_name);
                     ("wall_s", Json.Float a.a_wall_s);
                     ( "runs",
                       Json.List
                         (List.map
                            (fun (label, r) ->
                              Json.Obj
                                [ ("label", Json.String label); ("report", Report.to_json r) ])
                            a.a_runs) );
                   ])
               !artifacts) );
      ]
  in
  let oc = open_out "BENCH_results.json" in
  output_string oc (Json.to_string doc);
  close_out oc;
  say "wrote BENCH_results.json (%d artifacts)\n%!" (List.length !artifacts)

(* -- bench smoke + regression gate ----------------------------------------- *)

(* One small fixed-seed run per protocol.  The simulator is
   deterministic, so for a given binary these numbers are exactly
   reproducible, and the CI gate compares them against
   bench/baseline.json exactly. *)
let smoke_windows = { Runner.warmup = Rdb_sim.Time.ms 500; measure = Rdb_sim.Time.ms 1500 }
let smoke_cfg () = Config.make ~z:2 ~n:4 ~batch_size:50 ~client_inflight:16 ~seed:1 ()

(* One adversary scenario rides along in the smoke matrix: a corrupted
   cluster-0 primary silencing its global shares toward remote
   clusters for most of the measured window.  GeoBFT absorbs it (f=1
   per cluster; the f+1 fan-out and local rebroadcast route around the
   muted sender), so the entry pins the cost of a *live* interposition
   hook — the other five entries keep pinning the hook's disabled
   path, which must stay at its pre-adversary numbers. *)
let smoke_attack () =
  match Adversary.Attack.of_id "0@600:1400!mute.share.rem" with
  | Some a -> a
  | None -> failwith "bench: unparseable smoke attack id"

let smoke_scenarios () =
  List.map (fun p -> Scenario.make ~windows:smoke_windows p (smoke_cfg ())) Runner.all_protocols
  @ [ Scenario.make ~windows:smoke_windows ~attack:(smoke_attack ()) Scenario.Geobft (smoke_cfg ());
      (* The read-heavy entry pins the read-path consensus bypass: 50%
         of batches are point reads and 10% scans, served from replica
         state at f+1 matching result digests, so its throughput and
         latency move whenever the bypass (or the storage seam under
         it) changes cost. *)
      Scenario.make ~windows:smoke_windows Scenario.Geobft
        { (smoke_cfg ()) with Config.read_fraction = 0.5; scan_fraction = 0.1 };
      (* The large-topology entry pins the scaling work of DESIGN.md
         §17: 8 tiled regions, 31 replicas each, 16k aggregated
         clients — so pooled multicast fan-out, client-group ticks and
         tiled-topology routing all sit on its critical path.  A short
         window keeps the entry's share of the gate under ~10 s. *)
      Scenario.make
        ~windows:{ Runner.warmup = Rdb_sim.Time.ms 300; measure = Rdb_sim.Time.ms 700 }
        Scenario.Geobft
        (Config.make ~z:8 ~n:31 ~clients:16_000 ~seed:1 ());
      (* The faulted-wire entry: chaos seed 10's timeline severs a link
         (a drop rule), degrades another with 13% loss and duplicates
         a third, with a replica crash on top, so drop rules, loss and
         dup draws, and state transfer all sit in the gated schedule.
         Pbft's chaos envelope has no partitions; the severed link is
         the same drop-rule mechanism.  The windows are the shortest
         that leave the planner room for faults. *)
      Scenario.make
        ~windows:{ Runner.warmup = Rdb_sim.Time.ms 1000; measure = Rdb_sim.Time.ms 4000 }
        ~fault:(Scenario.Chaos 10) Scenario.Pbft (smoke_cfg ()) ]

let smoke_runs () =
  List.map
    (fun ((s : Scenario.t), r) ->
      say "  %s\n%!" (Report.to_string r);
      (s, r))
    (sweep (smoke_scenarios ()))

let run_smoke () =
  timed "smoke"
    ~runs:(List.map (fun ((s : Scenario.t), r) -> (Scenario.proto_name s.Scenario.proto, r)))
    (fun () ->
      say "== bench smoke (z=2 n=4 batch=50, 0.5s + 1.5s) ==\n%!";
      smoke_runs ())

(* Baseline file: written by --write-baseline, committed as
   bench/baseline.json, checked by --check (the CI regression gate).
   Runs are keyed by Scenario.to_string ids, so the gate re-derives its
   matrix from the baseline file itself.  The simulator is
   deterministic, so every gated value is exact (schema 4): simulated
   throughput and average latency compare as floats, the trace digest
   byte for byte.  Any change to the simulated schedule shows up here;
   an intentional one is re-baselined and its diff reviewed. *)
let baseline_schema = 4

let digest_of (r : Report.t) =
  match r.Report.trace with Some tr -> tr.Rdb_trace.Trace.digest_hex | None -> "-"

(* Traced runs: the digest is part of the baseline.  Tracing is
   observational — it never perturbs the simulated schedule. *)
let traced_sweep scenarios =
  sweep (List.map (fun (s : Scenario.t) -> { s with Scenario.trace = true }) scenarios)

let write_baseline path runs =
  let doc =
    Json.Obj
      [
        ("schema", Json.Int baseline_schema);
        ( "runs",
          Json.List
            (List.map
               (fun ((s : Scenario.t), (r : Report.t)) ->
                 Json.Obj
                   [
                     ( "scenario",
                       Json.String (Scenario.to_string { s with Scenario.trace = false }) );
                     ("throughput_txn_s", Json.Float r.Report.throughput_txn_s);
                     ("avg_latency_ms", Json.Float r.Report.avg_latency_ms);
                     ("digest_hex", Json.String (digest_of r));
                   ])
               runs) );
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  close_out oc;
  say "wrote %s (%d scenarios)\n%!" path (List.length runs)

type baseline_run = { b_scenario : Scenario.t; b_thr : float; b_lat : float; b_digest : string }

let parse_baseline path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let fail fmt = Printf.ksprintf (fun m -> say "bench --check: %s\n" m; exit 2) fmt in
  match Json.of_string s with
  | Error msg -> fail "cannot parse %s: %s" path msg
  | Ok doc ->
      (match Option.bind (Json.member "schema" doc) Json.to_int with
      | Some v when v = baseline_schema -> ()
      | Some v ->
          fail
            "%s has schema %d, expected %d (re-baseline with: dune exec bench/main.exe -- \
             --write-baseline %s)"
            path v baseline_schema path
      | None -> fail "%s carries no schema field" path);
      let runs =
        match Option.bind (Json.member "runs" doc) Json.to_list with
        | Some runs -> runs
        | None -> fail "%s has no runs" path
      in
      let parse_run rj =
        let str name = Option.bind (Json.member name rj) Json.to_str in
        let num name = Option.bind (Json.member name rj) Json.to_float in
        match (str "scenario", num "throughput_txn_s", num "avg_latency_ms", str "digest_hex") with
        | Some id, Some b_thr, Some b_lat, Some b_digest -> (
            match Scenario.of_string id with
            | Some b_scenario -> { b_scenario; b_thr; b_lat; b_digest }
            | None -> fail "unparseable scenario id %S" id)
        | _ -> fail "ill-formed baseline run entry"
      in
      List.map parse_run runs

(* The CI regression gate: rerun every baseline scenario (through the
   sweep engine, traced) [reps] times and require every repetition to
   reproduce the committed throughput, average latency and trace
   digest exactly.  The current run matrix is cross-checked against
   the baseline's coverage: a matrix scenario with no baseline entry
   is a MISSING failure (otherwise newly added scenarios would
   silently escape the gate).  The repetitions time the simulator
   (BENCH_results.json); they cannot disagree on simulated values.
   Re-baseline with:
     dune exec bench/main.exe -- --write-baseline bench/baseline.json *)
let run_check ?(reps = 3) path =
  let baseline = parse_baseline path in
  if baseline = [] then begin
    say "bench --check: no runs found in %s\n" path;
    exit 2
  end;
  say "== bench regression check against %s (%d rep%s, exact) ==\n%!" path reps
    (if reps = 1 then "" else "s");
  let covered = List.map (fun b -> Scenario.to_string b.b_scenario) baseline in
  let missing =
    List.filter
      (fun s -> not (List.mem (Scenario.to_string s) covered))
      (smoke_scenarios ())
  in
  List.iter
    (fun s -> say "  MISSING  %s has no baseline entry\n%!" (Scenario.to_string s))
    missing;
  let rep_runs =
    List.init reps (fun i ->
        let t0 = Unix.gettimeofday () in
        let runs = traced_sweep (List.map (fun b -> b.b_scenario) baseline) in
        say "  [rep %d/%d done in %.1fs]\n%!" (i + 1) reps (Unix.gettimeofday () -. t0);
        record (Printf.sprintf "check-rep-%d" (i + 1)) (Unix.gettimeofday () -. t0)
          (List.map (fun ((s : Scenario.t), r) -> (Scenario.to_string s, r)) runs);
        runs)
  in
  (* Trace digests, one line per scenario — uploaded as a CI artifact
     next to BENCH_results.json so digests are diffable across PRs. *)
  (match rep_runs with
  | first :: _ ->
      let oc = open_out "BENCH_digests.txt" in
      List.iter
        (fun ((s : Scenario.t), r) ->
          Printf.fprintf oc "%s %s\n" (digest_of r)
            (Scenario.to_string { s with Scenario.trace = false }))
        first;
      close_out oc;
      say "wrote BENCH_digests.txt (%d scenarios)\n%!" (List.length first)
  | [] -> ());
  let failures = ref 0 in
  let check id metric ~base ~got ~same =
    say "  %-40s %-18s baseline %s  got %s  %s\n%!" id metric base got
      (if same then "ok" else "FAIL");
    if not same then incr failures
  in
  List.iteri
    (fun i b ->
      let id = Scenario.to_string b.b_scenario in
      List.iter
        (fun runs ->
          let r = snd (List.nth runs i) in
          let num metric base got =
            check id metric ~base:(Json.float_to_string base) ~got:(Json.float_to_string got)
              ~same:(Float.equal base got)
          in
          num "throughput_txn_s" b.b_thr r.Report.throughput_txn_s;
          num "avg_latency_ms" b.b_lat r.Report.avg_latency_ms;
          let digest = digest_of r in
          check id "digest_hex" ~base:b.b_digest ~got:digest ~same:(String.equal b.b_digest digest))
        rep_runs)
    baseline;
  write_results ~windows:smoke_windows ();
  if !failures > 0 || missing <> [] then begin
    if !failures > 0 then say "bench --check: %d value(s) differ from the baseline\n" !failures;
    if missing <> [] then
      say
        "bench --check: %d run-matrix scenario(s) missing from %s (re-baseline with: dune exec \
         bench/main.exe -- --write-baseline %s)\n"
        (List.length missing) path path;
    exit 1
  end;
  say "bench --check: all %d scenarios reproduce the baseline exactly (%d rep%s)\n"
    (List.length baseline) reps (if reps = 1 then "" else "s")

(* -- Bechamel micro-benchmarks ----------------------------------------------- *)

let micro_tests () =
  let open Bechamel in
  let sha_payload = String.make 5400 'x' in
  let cmac_key = Rdb_crypto.Cmac.of_key (String.make 16 'k') in
  let sk = Rdb_crypto.Schnorr.keygen ~seed:"bench" ~key_id:0 in
  let pk = Rdb_crypto.Schnorr.public_key sk in
  let sg = Rdb_crypto.Schnorr.sign sk "payload" in
  let zipf = Rdb_prng.Zipf.create Rdb_ycsb.Table.default_records in
  let zipf_rng = Rdb_prng.Rng.create 1L in
  let mk name f = Test.make ~name (Staged.stage f) in
  (* Paper-sized (600k-record) disk stores, each in a temp dir removed
     at exit. *)
  let micro_store ?snapshot_every () =
    let dir = Filename.temp_file "rdb-micro-store" "" in
    Sys.remove dir;
    let store =
      Rdb_storage.Blockstore.open_or_create ?snapshot_every ~dir
        ~n_records:Rdb_ycsb.Table.default_records ()
    in
    at_exit (fun () ->
        Rdb_storage.Blockstore.close store;
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir);
    store
  in
  (* One full-image compaction. *)
  let store = micro_store () in
  (* One delta compaction with 3,200 records dirty since the full image:
     a store that compacts after every block, its dirty set seeded by
     one 3,200-write block, then timed on one-write blocks to a key
     already dirty. *)
  let delta_store = micro_store ~snapshot_every:1 () in
  let dirty_keys = Array.init 3_200 (fun i -> i * 187) in
  Rdb_storage.Blockstore.log_block delta_store ~height:0 ~keys:dirty_keys
    ~values:(Array.map Int64.of_int dirty_keys) ~count:3_200;
  let delta_height = ref 1 in
  let state = Rdb_storage.Backend.init_records ~n_records:Rdb_ycsb.Table.default_records in
  (* One 27-destination send from inside an event, plus its deliveries:
     a 28-replica broadcast through the pooled fan-out. *)
  let fan_engine = Rdb_sim.Engine.create () in
  let fan_net =
    Rdb_sim.Network.create ~engine:fan_engine ~topo:(Rdb_sim.Topology.clustered ~z:4 ~n:7)
      ~jitter_ms:0.2
      ~deliver:(fun ~src:_ ~dst:_ () -> ())
      ()
  in
  let fan_dsts = List.init 27 (fun i -> i + 1) in
  let fan_send () = Rdb_sim.Network.multicast fan_net ~src:0 ~dsts:fan_dsts ~size:250 () in
  [
    mk "sha256-5400B" (fun () -> ignore (Rdb_crypto.Sha256.digest sha_payload));
    mk "aes-cmac-250B" (fun () ->
        ignore (Rdb_crypto.Cmac.mac cmac_key (String.sub sha_payload 0 250)));
    mk "schnorr-sign" (fun () -> ignore (Rdb_crypto.Schnorr.sign sk "payload"));
    mk "schnorr-verify" (fun () -> ignore (Rdb_crypto.Schnorr.verify pk "payload" sg));
    mk "sim-10k-events" (fun () ->
        let e = Rdb_sim.Engine.create () in
        for i = 1 to 10_000 do
          ignore (Rdb_sim.Engine.schedule_at e ~at:(Rdb_sim.Time.ns i) (fun () -> ()))
        done;
        Rdb_sim.Engine.run e);
    mk "sim-fanout-27" (fun () ->
        ignore (Rdb_sim.Engine.schedule_after fan_engine ~delay:Rdb_sim.Time.zero fan_send);
        while Rdb_sim.Engine.step fan_engine do
          ()
        done);
    mk "zipf-sample-600k" (fun () -> ignore (Rdb_prng.Zipf.sample_scrambled zipf zipf_rng));
    mk "snapshot-600k" (fun () -> Rdb_storage.Blockstore.note_restore store ~height:0);
    mk "delta-compaction-600k" (fun () ->
        Rdb_storage.Blockstore.log_block delta_store ~height:!delta_height ~keys:[| 0 |]
          ~values:[| 0L |] ~count:1;
        incr delta_height);
    mk "state-digest-600k" (fun () -> ignore (Rdb_storage.Backend.digest_records state));
  ]
  (* One deployment benchmark per protocol: the full cost of simulating
     half a second of a small geo deployment. *)
  @ List.map
      (fun p ->
        Test.make
          ~name:(Printf.sprintf "sim-0.5s-%s" (Runner.proto_name p))
          (Staged.stage (fun () ->
               let cfg = Config.make ~z:2 ~n:4 ~batch_size:10 ~client_inflight:4 () in
               let windows =
                 { Runner.warmup = Rdb_sim.Time.ms 100; measure = Rdb_sim.Time.ms 400 }
               in
               ignore (Runner.run (Scenario.make ~windows p cfg)))))
      Runner.all_protocols

(* Minor words allocated, read with [Gc.minor_words].  Bechamel's own
   [minor_allocated] reads [Gc.quick_stat], which on OCaml 5.1 leaves
   out the live minor heap, so a run that allocates less than a minor
   heap between two samples reads as 0 words there. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "w"
end

let minor_words = Bechamel.Measure.register (module Minor_words)

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  say "\n== Bechamel micro-benchmarks ==\n%!";
  let words_instance = Measure.instance (module Minor_words) minor_words in
  let instances = [ Instance.monotonic_clock; words_instance ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let estimate o = match Analyze.OLS.estimates o with Some (est :: _) -> Some est | _ -> None in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"" ~fmt:"%s%s" [ test ]) in
      let words = Analyze.all ols words_instance raw in
      Hashtbl.iter
        (fun name o ->
          let words =
            match Option.bind (Hashtbl.find_opt words name) estimate with
            | Some w -> Printf.sprintf " %12.1f words/run" w
            | None -> ""
          in
          match estimate o with
          | Some est ->
              if est > 1e6 then say "  %-28s %12.3f ms/run%s\n%!" name (est /. 1e6) words
              else say "  %-28s %12.1f ns/run%s\n%!" name est words
          | None -> say "  %-28s (no estimate)\n%!" name)
        (Analyze.all ols Instance.monotonic_clock raw))
    (micro_tests ())

(* -- experiment artifacts ------------------------------------------------------ *)

let windows_ref = ref Runner.default_windows

let figure_runs prefix rows =
  List.map
    (fun (r : Figures.row) ->
      (Printf.sprintf "%s%s@%d" prefix (Runner.proto_name r.Figures.proto) r.Figures.x,
       r.Figures.report))
    rows

let run_table1 () = timed "table1" (fun () -> Tables.Table1.print ())

let run_table2 () =
  timed "table2"
    ~runs:(List.map (fun (p, report) -> (Runner.proto_name p, report)))
    (fun () ->
      let rows = Tables.Table2.rows_of_reports (sweep (Tables.Table2.scenarios ~windows:!windows_ref ())) in
      Tables.Table2.print rows;
      rows)

let run_fig10 () =
  timed "fig10" ~runs:(figure_runs "") (fun () ->
      let rows = Figures.Fig10.rows_of_reports (sweep (Figures.Fig10.scenarios ~windows:!windows_ref ())) in
      Figures.Fig10.print rows;
      rows)

let run_fig11 () =
  timed "fig11" ~runs:(figure_runs "") (fun () ->
      let rows = Figures.Fig11.rows_of_reports (sweep (Figures.Fig11.scenarios ~windows:!windows_ref ())) in
      Figures.Fig11.print rows;
      rows)

let run_fig12 () =
  timed "fig12"
    ~runs:(fun (one, ff, pf) ->
      figure_runs "one-failure:" one
      @ figure_runs "f-failures:" ff
      @ figure_runs "primary-failure:" pf)
    (fun () ->
      (* One sweep over all three panels: the engine interleaves them
         across domains instead of three serial barriers. *)
      let windows = !windows_ref in
      let s_one = Figures.Fig12.scenarios_one_failure ~windows () in
      let s_ff = Figures.Fig12.scenarios_f_failures ~windows () in
      let s_pf = Figures.Fig12.scenarios_primary_failure ~windows () in
      let results = sweep (s_one @ s_ff @ s_pf) in
      let rec split k l =
        if k = 0 then ([], l)
        else
          match l with
          | [] -> invalid_arg "fig12 split"
          | x :: rest ->
              let a, b = split (k - 1) rest in
              (x :: a, b)
      in
      let r_one, rest = split (List.length s_one) results in
      let r_ff, r_pf = split (List.length s_ff) rest in
      let one = Figures.Fig12.rows_of_reports r_one in
      let ff = Figures.Fig12.rows_of_reports r_ff in
      let pf = Figures.Fig12.rows_of_reports r_pf in
      Figures.Fig12.print ~one ~ff ~pf;
      (one, ff, pf))

let run_ablations () =
  timed "ablations"
    ~runs:(fun (rows : Ablations.rows) ->
      List.concat_map
        (fun (r : Ablations.Fanout.row) ->
          [
            (Printf.sprintf "fanout:%s:healthy" r.Ablations.Fanout.label,
             r.Ablations.Fanout.healthy);
            (Printf.sprintf "fanout:%s:one-receiver-down" r.Ablations.Fanout.label,
             r.Ablations.Fanout.one_receiver_down);
          ])
        rows.Ablations.fanout
      @ List.map
          (fun (r : Ablations.Pipeline.row) ->
            (Printf.sprintf "pipeline:depth=%d" r.Ablations.Pipeline.depth,
             r.Ablations.Pipeline.report))
          rows.Ablations.pipeline
      @ List.map
          (fun (r : Ablations.Crypto_split.row) ->
            (Printf.sprintf "crypto:%s" r.Ablations.Crypto_split.label,
             r.Ablations.Crypto_split.report))
          rows.Ablations.crypto_split
      @ List.concat_map
          (fun (r : Ablations.Threshold_certs.row) ->
            [
              (Printf.sprintf "certs:n=%d:plain" r.Ablations.Threshold_certs.n,
               r.Ablations.Threshold_certs.plain);
              (Printf.sprintf "certs:n=%d:threshold" r.Ablations.Threshold_certs.n,
               r.Ablations.Threshold_certs.threshold);
            ])
          rows.Ablations.threshold_certs)
    (fun () ->
      let windows = !windows_ref in
      let rows = Ablations.rows_of_reports ~windows (sweep (Ablations.scenarios ~windows ())) in
      Ablations.print rows;
      rows)

let run_fig13 () =
  timed "fig13" ~runs:(figure_runs "") (fun () ->
      let rows = Figures.Fig13.rows_of_reports (sweep (Figures.Fig13.scenarios ~windows:!windows_ref ())) in
      Figures.Fig13.print rows;
      rows)

(* Pull "--flag PATH" out of an argument list; returns (value, rest). *)
let rec take_flag flag = function
  | [] -> (None, [])
  | f :: value :: rest when f = flag -> (Some value, rest)
  | a :: rest ->
      let v, rest = take_flag flag rest in
      (v, a :: rest)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  if full then windows_ref := Runner.full_windows;
  let args = List.filter (fun a -> a <> "--full") args in
  (match take_flag "-j" args with
  | Some j, _ -> (
      match int_of_string_opt j with
      | Some j when j >= 1 -> jobs_ref := j
      | _ ->
          say "-j expects a positive integer\n";
          exit 2)
  | None, _ -> ());
  let _, args = take_flag "-j" args in
  let reps_flag, args = take_flag "--reps" args in
  let reps =
    match reps_flag with
    | None -> 3
    | Some r -> (
        match int_of_string_opt r with
        | Some r when r >= 1 -> r
        | _ ->
            say "--reps expects a positive integer\n";
            exit 2)
  in
  let check_path, args = take_flag "--check" args in
  let baseline_path, args = take_flag "--write-baseline" args in
  (match (check_path, baseline_path) with
  | Some path, _ ->
      (* CI regression gate: [reps] fresh runs of the baseline's
         scenarios must reproduce the committed values exactly. *)
      run_check ~reps path;
      exit 0
  | None, Some path ->
      write_baseline path (traced_sweep (smoke_scenarios ()));
      exit 0
  | None, None -> ());
  let targets =
    if args = [] || List.mem "all" args then
      [ "table1"; "table2"; "fig10"; "fig11"; "fig12"; "fig13"; "ablations"; "micro" ]
    else args
  in
  say "ResilientDB/GeoBFT evaluation harness (windows: warmup %.0fs + measure %.0fs, %d worker domain%s)\n%!"
    (Rdb_sim.Time.to_sec_f !windows_ref.Runner.warmup)
    (Rdb_sim.Time.to_sec_f !windows_ref.Runner.measure)
    !jobs_ref
    (if !jobs_ref = 1 then "" else "s")
  ;
  List.iter
    (function
      | "table1" -> run_table1 ()
      | "table2" -> ignore (run_table2 ())
      | "fig10" -> ignore (run_fig10 ())
      | "fig11" -> ignore (run_fig11 ())
      | "fig12" -> ignore (run_fig12 ())
      | "fig13" -> ignore (run_fig13 ())
      | "ablations" -> ignore (run_ablations ())
      | "micro" -> timed "micro" run_micro
      | "smoke" -> ignore (run_smoke ())
      | other -> say "unknown target %S (expected table1 table2 fig10..fig13 smoke micro)\n" other)
    targets;
  write_results ~windows:!windows_ref ()
