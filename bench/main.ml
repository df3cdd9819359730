(* The bench harness: the exact regression gate over a fixed-seed
   smoke matrix, and Bechamel micro-benchmarks of the substrates.  The
   paper's tables and figures are run and printed by `rdb_cli sweep`
   (and Table 1 by `rdb_cli matrix`).

   Usage:
     dune exec bench/main.exe -- --check bench/baseline.json   # the CI gate
     dune exec bench/main.exe -- -j 2 --reps 1 --check bench/baseline.json
     dune exec bench/main.exe -- --write-baseline bench/baseline.json
     dune exec bench/main.exe -- micro        # Bechamel micro-benchmarks *)

module Runner = Rdb_experiments.Runner
module Scenario = Rdb_experiments.Scenario
module Matrices = Rdb_experiments.Matrices
module Sweep = Rdb_sweep.Sweep
module Config = Rdb_types.Config
module Adversary = Rdb_adversary.Adversary
module Report = Rdb_fabric.Report
module Json = Rdb_fabric.Json

let say fmt = Printf.printf fmt

(* -- machine-readable results (BENCH_results.json) ------------------------ *)

(* Each gate repetition is recorded as its wall time plus the labeled
   deployment reports it produced, and the session is written to
   BENCH_results.json so the perf trajectory is diffable across PRs. *)
type artifact = { a_name : string; a_wall_s : float; a_runs : (string * Report.t) list }

let write_results ~jobs artifacts =
  let windows = Matrices.smoke_windows in
  let doc =
    Json.Obj
      [
        ("schema", Json.Int 2);
        ("generated_unix", Json.Float (Float.round (Unix.time ())));
        ("jobs", Json.Int jobs);
        ( "windows",
          Json.Obj
            [
              ("warmup_s", Json.Float (Rdb_sim.Time.to_sec_f windows.Runner.warmup));
              ("measure_s", Json.Float (Rdb_sim.Time.to_sec_f windows.Runner.measure));
            ] );
        ( "artifacts",
          Json.List
            (List.map
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
               artifacts) );
      ]
  in
  let oc = open_out "BENCH_results.json" in
  output_string oc (Json.to_string doc);
  close_out oc;
  say "wrote BENCH_results.json (%d artifacts)\n%!" (List.length artifacts)

(* -- regression gate --------------------------------------------------------- *)

(* The gate's matrix: the z2 n4 smoke (Matrices.smoke, one small
   fixed-seed run per protocol) plus four entries of its own.  The
   simulator is deterministic, so for a given binary these numbers are
   exactly reproducible, and the CI gate compares them against
   bench/baseline.json exactly. *)
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
  Matrices.smoke
  @ [ Scenario.make ~windows:Matrices.smoke_windows ~attack:(smoke_attack ()) Scenario.Geobft
        Matrices.smoke_cfg;
      (* The read-heavy entry pins the read-path consensus bypass: 50%
         of batches are point reads and 10% scans, served from replica
         state at f+1 matching result digests, so its throughput and
         latency move whenever the bypass (or the storage seam under
         it) changes cost. *)
      Scenario.make ~windows:Matrices.smoke_windows Scenario.Geobft
        { Matrices.smoke_cfg with Config.read_fraction = 0.5; scan_fraction = 0.1 };
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
        ~fault:(Scenario.Chaos 10) Scenario.Pbft Matrices.smoke_cfg ]

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
let traced_sweep ~jobs scenarios =
  let traced = List.map (fun (s : Scenario.t) -> { s with Scenario.trace = true }) scenarios in
  Sweep.reports_exn (Sweep.run ~jobs traced)

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
let run_check ~jobs ~reps path =
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
        let runs = traced_sweep ~jobs (List.map (fun b -> b.b_scenario) baseline) in
        let wall = Unix.gettimeofday () -. t0 in
        say "  [rep %d/%d done in %.1fs]\n%!" (i + 1) reps wall;
        ( runs,
          {
            a_name = Printf.sprintf "check-rep-%d" (i + 1);
            a_wall_s = wall;
            a_runs = List.map (fun ((s : Scenario.t), r) -> (Scenario.to_string s, r)) runs;
          } ))
  in
  let artifacts = List.map snd rep_runs and rep_runs = List.map fst rep_runs in
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
  write_results ~jobs artifacts;
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
  let sk = Rdb_crypto.Schnorr.keygen ~seed:"bench" ~key_id:0 in
  let pk = Rdb_crypto.Schnorr.public_key sk in
  let sg = Rdb_crypto.Schnorr.sign sk "payload" in
  let zipf = Rdb_prng.Zipf.create Rdb_ycsb.Table.default_records in
  let zipf_rng = Rdb_prng.Rng.create 1L in
  let jitter_rng = Rdb_prng.Rng.create 1L in
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
  (* One n = 28 Pbft decision at a backup: a fresh engine at replica 1
     receives the primary's preprepare, then a prepare and a signed
     commit from each of the 27 other members, through a loopback Ctx
     (sends dropped, CPU charges run inline, timers inert).  The
     commits are signed once, up front. *)
  let decision =
    let module M = Rdb_pbft.Messages in
    let kc = Rdb_crypto.Keychain.create ~seed:"bench-decision" ~n_nodes:29 in
    let clock = Rdb_sim.Engine.create () in
    let inert = Rdb_sim.Engine.schedule_after clock ~delay:Rdb_sim.Time.zero ignore in
    let ctx : M.msg Rdb_types.Ctx.t =
      {
        Rdb_types.Ctx.id = 1;
        config = Config.make ~z:4 ~n:7 ~batch_size:100 ();
        keychain = kc;
        rng = Rdb_prng.Rng.create 1L;
        now = (fun () -> Rdb_sim.Time.zero);
        send = (fun ~dsts:_ ~size:_ ~vcost:_ _ -> ());
        charge = (fun ~stage:_ ~cost:_ k -> k ());
        set_timer = (fun ~delay:_ _ -> inert);
        cancel_timer = ignore;
        execute = (fun _ ~cert:_ ~on_done -> on_done None);
        read_execute = (fun _ ~on_done:_ -> ());
        state_snapshot = (fun () -> None);
        app_restore = ignore;
        ledger_read = (fun ~height:_ -> []);
        complete = ignore;
        phase = (fun ~key:_ ~name:_ -> ());
      }
    in
    let batch =
      Rdb_types.Batch.create ~keychain:kc ~id:0 ~cluster:0 ~origin:28 ~created:Rdb_sim.Time.zero
        ~txns:(Array.init 100 (fun key -> Rdb_types.Txn.make ~key ~value:1L ~client_id:0 ()))
    in
    let digest = batch.Rdb_types.Batch.digest in
    let payload = Rdb_types.Certificate.commit_payload ~cluster:0 ~view:0 ~seq:0 ~digest in
    let others = List.filter (fun i -> i <> 1) (List.init 28 Fun.id) in
    let votes =
      List.map (fun src -> (src, M.Prepare { view = 0; seq = 0; digest })) others
      @ List.map
          (fun src ->
            let signature = Rdb_crypto.Keychain.sign kc ~signer:src payload in
            (src, M.Commit { view = 0; seq = 0; digest; signature }))
          others
    in
    let preprepare = M.Preprepare { view = 0; seq = 0; batch } in
    let members = Array.init 28 Fun.id in
    fun () ->
      let decided = ref false in
      let e =
        Rdb_pbft.Engine.create ~ctx ~members ~cluster:0
          ~on_committed:(fun ~seq:_ _ _ -> decided := true)
          ~on_view_change:(fun ~view:_ -> ())
          ()
      in
      Rdb_pbft.Engine.on_message e ~src:0 preprepare;
      List.iter (fun (src, m) -> Rdb_pbft.Engine.on_message e ~src m) votes;
      if not !decided then failwith "pbft-decision-n28: no decision"
  in
  [
    mk "sha256-5400B" (fun () -> ignore (Rdb_crypto.Sha256.digest sha_payload));
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
    mk "pbft-decision-n28" decision;
    (* The jitter draw [Network] takes per delivered message. *)
    mk "rng-float-1k" (fun () ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Rdb_prng.Rng.float jitter_rng))
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

(* Pull "--flag PATH" out of an argument list; returns (value, rest). *)
let rec take_flag flag = function
  | [] -> (None, [])
  | f :: value :: rest when f = flag -> (Some value, rest)
  | a :: rest ->
      let v, rest = take_flag flag rest in
      (v, a :: rest)

let usage () =
  say
    "usage: main.exe [-j N] [--reps N] --check BASELINE | [-j N] --write-baseline BASELINE | \
     micro\n\
     (the paper's tables and figures: resilientdb-cli sweep MATRIX, resilientdb-cli matrix)\n";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let positive flag = function
    | None -> None
    | Some v -> (
        match int_of_string_opt v with
        | Some v when v >= 1 -> Some v
        | _ ->
            say "%s expects a positive integer\n" flag;
            exit 2)
  in
  let jobs, args = take_flag "-j" args in
  let jobs = Option.value (positive "-j" jobs) ~default:(Sweep.default_jobs ()) in
  let reps, args = take_flag "--reps" args in
  let reps = Option.value (positive "--reps" reps) ~default:3 in
  let check_path, args = take_flag "--check" args in
  let baseline_path, args = take_flag "--write-baseline" args in
  match (check_path, baseline_path, args) with
  | Some path, None, [] ->
      (* CI regression gate: [reps] fresh runs of the baseline's
         scenarios must reproduce the committed values exactly. *)
      run_check ~jobs ~reps path
  | None, Some path, [] -> write_baseline path (traced_sweep ~jobs (smoke_scenarios ()))
  | None, None, [ "micro" ] -> run_micro ()
  | _ -> usage ()
