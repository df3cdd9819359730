(* resilientdb-cli: run simulated deployments from the command line.

   Examples:
     resilientdb-cli run --protocol geobft --clusters 4 --replicas 7
     resilientdb-cli run -p pbft -z 6 -n 10 --batch 200 --measure 30
     resilientdb-cli run -p geobft -z 2 -n 4 --fault primary
     resilientdb-cli sweep fig10 fig11 -j 8 --out results.json
     resilientdb-cli sweep --smoke -j 2           # the CI smoke matrix
     resilientdb-cli sweep all --full -j 16       # paper-length windows
     resilientdb-cli sweep --scenario "geobft z4 n7 b100 i64 seed1 w1000+4000"
     resilientdb-cli matrix            # print the Table 1 calibration *)

open Cmdliner
module Runner = Resilientdb.Experiments.Runner
module Scenario = Resilientdb.Scenario
module Sweep = Resilientdb.Sweep
module Figures = Resilientdb.Experiments.Figures
module Ablations = Resilientdb.Experiments.Ablations
module Config = Resilientdb.Config
module Time = Resilientdb.Time
module Report = Resilientdb.Report

let protocol_arg =
  let parse s =
    match Runner.proto_of_string s with
    | Some p -> Ok p
    | None ->
        Error (`Msg (Printf.sprintf "unknown protocol %S (geobft|pbft|zyzzyva|hotstuff|steward)" s))
  in
  let print fmt p = Format.pp_print_string fmt (String.lowercase_ascii (Runner.proto_name p)) in
  Arg.conv (parse, print)

let fault_arg =
  let parse s =
    match Scenario.fault_of_id (String.lowercase_ascii s) with
    | Some f -> Ok f
    | None -> (
        match String.lowercase_ascii s with
        | "one-nonprimary" -> Ok Runner.One_nonprimary
        | "f-nonprimary" -> Ok Runner.F_nonprimary
        | _ -> Error (`Msg "fault must be one of: none, one, f, primary, chaos[:SEED]"))
  in
  let print fmt f = Format.pp_print_string fmt (Runner.fault_name f) in
  Arg.conv (parse, print)

let storage_arg =
  let parse s =
    match Config.storage_of_string (String.lowercase_ascii s) with
    | Some st -> Ok st
    | None -> Error (`Msg (Printf.sprintf "unknown storage backend %S (mem|disk)" s))
  in
  let print fmt st = Format.pp_print_string fmt (Config.storage_name st) in
  Arg.conv (parse, print)

let run_cmd =
  let protocol =
    Arg.(value & opt protocol_arg Runner.Geobft
         & info [ "p"; "protocol" ] ~docv:"PROTO"
             ~doc:"Consensus protocol: geobft, pbft, zyzzyva, hotstuff or steward.")
  in
  let clusters =
    Arg.(value & opt int 4
         & info [ "z"; "clusters" ] ~docv:"Z"
             ~doc:
               "Number of clusters/regions, placed in the paper's region order.  Up to 6 use \
                the paper's six regions; more tile that matrix (DESIGN.md \xc2\xa717).")
  in
  let replicas =
    Arg.(value & opt int 7 & info [ "n"; "replicas" ] ~docv:"N" ~doc:"Replicas per cluster.")
  in
  let batch = Arg.(value & opt int 100 & info [ "b"; "batch" ] ~docv:"TXNS" ~doc:"Batch size.") in
  let inflight =
    Arg.(value & opt int 64
         & info [ "inflight" ] ~docv:"BATCHES"
             ~doc:"Outstanding batches per cluster's client group (closed loop).")
  in
  let warmup =
    Arg.(value & opt int 3 & info [ "warmup" ] ~docv:"SEC" ~doc:"Warm-up seconds (simulated).")
  in
  let measure =
    Arg.(value & opt int 9 & info [ "measure" ] ~docv:"SEC" ~doc:"Measurement seconds (simulated).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.") in
  let reads =
    Arg.(value & opt float 0.0
         & info [ "reads" ] ~docv:"FRAC"
             ~doc:
               "Fraction of batches that are read-only point reads, served from replica state \
                without consensus (clients wait for f+1 matching result digests).")
  in
  let scans =
    Arg.(value & opt float 0.0
         & info [ "scans" ] ~docv:"FRAC"
             ~doc:"Fraction of batches that are read-only range scans (also bypass consensus).")
  in
  let storage =
    Arg.(value & opt storage_arg Config.Memory
         & info [ "storage" ] ~docv:"BACKEND"
             ~doc:
               "Storage backend under every replica's state machine: mem (in-memory records) \
                or disk (append-only persistent block store with snapshot compaction and \
                crash recovery).  Consensus results are byte-identical either way.")
  in
  let fault =
    Arg.(value & opt fault_arg Runner.No_fault
         & info [ "fault" ] ~docv:"FAULT"
             ~doc:
               "Failure scenario: none, one (non-primary crash), f (f crashes per cluster), \
                primary (mid-run primary crash), chaos or chaos:SEED (seeded fault timeline \
                with continuous safety-invariant checking; same seed, same faults).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:
               "Record a consensus-path trace and write it as Chrome trace-event JSON to \
                \\$(docv) (load it at ui.perfetto.dev or chrome://tracing).  Also prints the \
                per-phase latency breakdown and the deterministic trace digest: same seed, \
                same digest.")
  in
  let go protocol z n batch inflight warmup measure seed reads scans storage fault trace_out =
    let cfg =
      Config.make ~z ~n ~batch_size:batch ~client_inflight:inflight ~seed
        ~read_fraction:reads ~scan_fraction:scans ~storage ()
    in
    let windows = { Scenario.warmup = Time.sec warmup; measure = Time.sec measure } in
    let scenario =
      Scenario.make ~windows ~fault ~trace:(Option.is_some trace_out) protocol cfg
    in
    Printf.printf "scenario: %s\n%!" (Scenario.to_string scenario);
    let tracer =
      Option.map (fun _ -> Resilientdb.Trace.create ~keep_events:true ()) trace_out
    in
    let t0 = Unix.gettimeofday () in
    let report = Runner.run ?tracer scenario in
    Printf.printf "%s\n" (Report.to_string report);
    Printf.printf "%s\n" (Format.asprintf "%a" Report.pp_recovery report);
    (match (trace_out, tracer) with
    | Some file, Some tr ->
        let oc = open_out file in
        Resilientdb.Trace.write_chrome_json tr oc;
        close_out oc;
        Printf.printf "%s" (Format.asprintf "%a" Report.pp_trace report);
        (match report.Report.trace with
        | Some s -> Printf.printf "trace digest: %s\n" s.Resilientdb.Trace.digest_hex
        | None -> ());
        Printf.printf "wrote %s (%d events)\n" file (Resilientdb.Trace.events_kept tr)
    | _ -> ());
    Printf.printf "(simulated %ds in %.1fs of wall-clock time)\n" (warmup + measure)
      (Unix.gettimeofday () -. t0)
  in
  let term =
    Term.(
      const go $ protocol $ clusters $ replicas $ batch $ inflight $ warmup $ measure $ seed
      $ reads $ scans $ storage $ fault $ trace_out)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one simulated geo-scale deployment and report its metrics.") term

(* -- sweep ----------------------------------------------------------------- *)

(* The CI smoke matrix: one small fixed-seed traced run per protocol,
   on the same z2 n4 deployment as the first five entries of the bench
   smoke (bench/main.ml), which adds attack, read-heavy, z8 n31 and
   chaos entries. *)
let smoke_scenarios () =
  let windows = { Scenario.warmup = Time.ms 500; measure = Time.ms 1500 } in
  let cfg = Config.make ~z:2 ~n:4 ~batch_size:50 ~client_inflight:16 ~seed:1 () in
  List.map (fun p -> Scenario.make ~windows ~trace:true p cfg) Scenario.all_protocols

(* The chaos validation matrix: every protocol absorbs its seeded
   fault envelope with the invariant monitor armed (same deployments
   as test/chaos_sweep.ml). *)
let chaos_scenarios ~seeds () =
  let windows = { Scenario.warmup = Time.sec 1; measure = Time.sec 11 } in
  let cfg = Config.make ~z:2 ~n:4 ~batch_size:20 ~client_inflight:8 ~seed:1 () in
  List.concat_map
    (fun p -> List.map (fun seed -> Scenario.make ~windows ~fault:(Scenario.Chaos seed) p cfg) seeds)
    Scenario.all_protocols

let matrix_names = [ "smoke"; "fig10"; "fig11"; "fig12"; "fig13"; "ablations"; "table2"; "chaos"; "all" ]

let rec matrix_scenarios ~windows ~seeds = function
  | "smoke" -> Ok (smoke_scenarios ())
  | "fig10" -> Ok (Figures.Fig10.scenarios ~windows ())
  | "fig11" ->
      (* Paper grid first, then the scale extension (n to 100+, z to 32
         tiled regions with 1.6M aggregated clients). *)
      Ok (Figures.Fig11.scenarios ~windows () @ Figures.Fig11.scale_scenarios ~windows ())
  | "fig12" ->
      Ok
        (Figures.Fig12.scenarios_one_failure ~windows ()
        @ Figures.Fig12.scenarios_f_failures ~windows ()
        @ Figures.Fig12.scenarios_primary_failure ~windows ()
        @ Figures.Fig12.scale_scenarios ~windows ())
  | "fig13" -> Ok (Figures.Fig13.scenarios ~windows ())
  | "ablations" -> Ok (Ablations.scenarios ~windows ())
  | "table2" -> Ok (Resilientdb.Experiments.Tables.Table2.scenarios ~windows ())
  | "chaos" -> Ok (chaos_scenarios ~seeds ())
  | "all" ->
      Ok
        (List.concat_map
           (fun m ->
             match matrix_scenarios ~windows ~seeds m with Ok l -> l | Error _ -> [])
           [ "fig10"; "fig11"; "fig12"; "fig13"; "ablations"; "table2" ])
  | other ->
      Error
        (Printf.sprintf "unknown matrix %S (expected one of: %s, or --scenario ID)" other
           (String.concat " " matrix_names))

let sweep_cmd =
  let matrices =
    Arg.(value & pos_all string []
         & info [] ~docv:"MATRIX"
             ~doc:
               (Printf.sprintf
                  "Scenario matrices to sweep: %s.  Combine freely with --scenario."
                  (String.concat ", " matrix_names)))
  in
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"Shorthand for the smoke matrix (one small traced run per protocol) — the CI job.")
  in
  let jobs =
    Arg.(value & opt int (Sweep.default_jobs ())
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:
               "Worker domains (default: cores - 1).  Results are byte-identical for every N; \
                $(docv)=1 is a genuinely serial pass.")
  in
  let full =
    Arg.(value & flag
         & info [ "full" ]
             ~doc:"Paper-length measurement windows (15 s warm-up + 45 s measure) instead of the \
                   quick defaults.")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Arm the consensus-path tracer on every scenario so each report carries its \
                   deterministic trace digest.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:
               "Write the aggregated results document to \\$(docv): CSV if it ends in .csv, \
                versioned JSON otherwise.  The document is a pure function of the scenario \
                list — no wall-clock times or job counts — so -j 1 and -j 8 write identical \
                bytes.")
  in
  let scenario_ids =
    Arg.(value & opt_all string []
         & info [ "scenario"; "s" ] ~docv:"ID"
             ~doc:
               "Add one explicit scenario by its stable id (repeatable), e.g. \
                \"geobft z4 n7 b100 i64 seed1 w1000+4000\".")
  in
  let seeds =
    Arg.(value & opt string "1-4"
         & info [ "seeds" ] ~docv:"LO-HI" ~doc:"Chaos-matrix planner seed range (default 1-4).")
  in
  let go matrices smoke jobs full trace out scenario_ids seeds =
    let windows = if full then Scenario.full_windows else Scenario.default_windows in
    let seeds =
      match String.split_on_char '-' (String.trim seeds) with
      | [ one ] when int_of_string_opt one <> None -> [ int_of_string one ]
      | [ lo; hi ] -> (
          match (int_of_string_opt lo, int_of_string_opt hi) with
          | Some lo, Some hi when lo <= hi -> List.init (hi - lo + 1) (fun i -> lo + i)
          | _ -> prerr_endline "--seeds must be LO-HI"; exit 2)
      | _ -> prerr_endline "--seeds must be LO-HI"; exit 2
    in
    let matrices = if smoke then "smoke" :: matrices else matrices in
    if matrices = [] && scenario_ids = [] then begin
      Printf.eprintf "nothing to sweep: name a matrix (%s) or pass --scenario ID\n"
        (String.concat ", " matrix_names);
      exit 2
    end;
    let from_matrices =
      List.concat_map
        (fun m ->
          match matrix_scenarios ~windows ~seeds m with
          | Ok l -> l
          | Error msg -> prerr_endline msg; exit 2)
        matrices
    in
    let explicit =
      List.map
        (fun id ->
          match Scenario.of_string id with
          | Some s -> s
          | None ->
              Printf.eprintf "unparseable scenario id %S\n" id;
              exit 2)
        scenario_ids
    in
    let scenarios = from_matrices @ explicit in
    let scenarios =
      if trace then List.map (fun s -> { s with Scenario.trace = true }) scenarios else scenarios
    in
    Printf.printf "sweeping %d scenarios over %d worker domain%s\n%!" (List.length scenarios)
      jobs (if jobs = 1 then "" else "s");
    let t0 = Unix.gettimeofday () in
    let on_done ~done_ ~total scenario outcome =
      match outcome with
      | Ok (r : Report.t) ->
          Printf.printf "  [%*d/%d] ok   %-55s %10.0f txn/s  lat %7.1f ms\n%!"
            (String.length (string_of_int total)) done_ total (Scenario.to_string scenario)
            r.Report.throughput_txn_s r.Report.avg_latency_ms
      | Error _ ->
          Printf.printf "  [%*d/%d] FAIL %s\n%!"
            (String.length (string_of_int total)) done_ total (Scenario.to_string scenario)
    in
    let results = Sweep.run ~jobs ~on_done scenarios in
    let wall = Unix.gettimeofday () -. t0 in
    let failures =
      List.filter_map
        (fun (r : Sweep.result) ->
          match r.Sweep.outcome with
          | Ok _ -> None
          | Error msg -> Some (Scenario.to_string r.Sweep.scenario, msg))
        results
    in
    (match Sweep.digests results with
    | [] -> ()
    | ds ->
        Printf.printf "trace digests (deterministic: same scenario, same digest, any -j):\n";
        List.iter (fun (id, d) -> Printf.printf "  %s  %s\n" d id) ds);
    (match out with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        if Filename.check_suffix file ".csv" then Sweep.write_csv oc results
        else Sweep.write_json oc results;
        close_out oc;
        Printf.printf "wrote %s (%d results)\n" file (List.length results));
    (* Wall-clock summary goes to the console only, never into the
       results document, which must be identical across -j values. *)
    Printf.printf "swept %d scenarios in %.1fs of wall-clock time (-j %d)\n" (List.length results)
      wall jobs;
    if failures <> [] then begin
      Printf.printf "%d scenario(s) failed:\n" (List.length failures);
      List.iter (fun (id, msg) -> Printf.printf "  %s\n%s\n" id msg) failures;
      exit 1
    end
  in
  let term =
    Term.(const go $ matrices $ smoke $ jobs $ full $ trace $ out $ scenario_ids $ seeds)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a matrix of simulated deployments across OCaml 5 domains and aggregate the \
          reports into one versioned document.  Deterministic: for a fixed scenario list the \
          ordered results (and every trace digest) are identical for any -j.")
    term

let matrix_cmd =
  let go () = Resilientdb.Experiments.Tables.Table1.print_configured () in
  Cmd.v
    (Cmd.info "matrix" ~doc:"Print the Table 1 latency/bandwidth calibration matrix.")
    Term.(const go $ const ())

(* -- check and attack -------------------------------------------------------- *)

module Check = Resilientdb.Check
module Perturb = Resilientdb.Perturb
module Mutation = Resilientdb.Mutation
module Adversary = Resilientdb.Adversary

(* One command body for both counterexample searches; the arguments are
   what `check` and `attack` spell differently. *)
let search_cmd (type a) (search : a Check.search) ~attempts ~searcher ~caught
    ~(minimal : a list -> string) ~(replaying : a list -> string) ~artifact ~doc ~budget_doc
    ~seed_doc ~scenario_doc ~mutate_doc ~mutants_doc ~replay_doc =
  let cmd = search.Check.command and noun = search.Check.index_key in
  let budget = Arg.(value & opt int 64 & info [ "budget" ] ~docv:"N" ~doc:budget_doc) in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:seed_doc) in
  let scenario_ids =
    Arg.(value & opt_all string [] & info [ "scenario"; "s" ] ~docv:"ID" ~doc:scenario_doc)
  in
  let mutate =
    Arg.(value & opt (some string) None & info [ "mutate" ] ~docv:"ID" ~doc:mutate_doc)
  in
  let mutants_flag = Arg.(value & flag & info [ "mutants" ] ~doc:mutants_doc) in
  let replay_file =
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc:replay_doc)
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"DIR"
             ~doc:
               (Printf.sprintf "Write every %s artifact as \\$(docv)/%s-<name>.json." artifact
                  cmd))
  in
  let write_artifact out name ce =
    match out with
    | None -> ()
    | Some dir ->
        (if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
        let file = Filename.concat dir (Printf.sprintf "%s-%s.json" cmd name) in
        let oc = open_out file in
        output_string oc (Check.counterexample_to_string search ce);
        output_char oc '\n';
        close_out oc;
        Printf.printf "  wrote %s\n%!" file
  in
  let describe (ce : a Check.counterexample) =
    Printf.printf "  VIOLATION %s at %s %d (%d runs): %s\n" ce.Check.violation.invariant noun
      ce.Check.index ce.Check.runs ce.Check.violation.detail;
    Printf.printf "  minimal %s\n" (minimal ce.Check.items);
    Option.iter (Printf.printf "  trace digest: %s\n%!") ce.Check.digest
  in
  let explore_label ~budget ~seed ?mutation ?provoke ~name scenario =
    Printf.printf "%s %-24s %s%s\n%!" cmd name
      (Scenario.to_string scenario)
      (match mutation with None -> "" | Some m -> Printf.sprintf "  [mutation %s]" m);
    let last = ref (-1) in
    let on_attempt k =
      if k / 16 > !last then begin
        last := k / 16;
        Printf.printf "  ... %s %d/%d\n%!" noun k budget
      end
    in
    Check.explore search ~budget ~seed ?mutation ?provoke ~on_attempt scenario
  in
  let go budget seed scenario_ids mutate mutants_flag replay_file out =
    match replay_file with
    | Some file -> (
        let contents =
          let ic = open_in_bin file in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic; s
        in
        match Check.counterexample_of_string search contents with
        | Error msg -> Printf.eprintf "cannot load %s: %s\n" file msg; exit 2
        | Ok ce ->
            Printf.printf "replaying %s: %s%s\n%!" file
              (Scenario.to_string ce.Check.scenario)
              (replaying ce.Check.items);
            let r = Check.replay search ce in
            (match r.Check.observed with
            | Some v -> Printf.printf "observed: %s\n" (Check.violation_to_string v)
            | None -> Printf.printf "observed: no violation\n");
            (match r.Check.digest_match with
            | Some true -> Printf.printf "trace digest matches the artifact\n"
            | Some false -> Printf.printf "trace digest DIFFERS from the artifact\n"
            | None -> ());
            if r.Check.reproduced then Printf.printf "reproduced\n"
            else begin
              Printf.printf "NOT reproduced\n";
              exit 1
            end)
    | None ->
        let explicit =
          List.map
            (fun id ->
              match Scenario.of_string id with
              | Some s -> s
              | None -> Printf.eprintf "unparseable scenario id %S\n" id; exit 2)
            scenario_ids
        in
        let escaped id =
          Printf.printf "  ESCAPED: mutation %s survived %d %s\n%!" id budget attempts
        in
        if mutants_flag then begin
          (* Every registered mutant must be caught and shrunk. *)
          let escapes = ref [] in
          List.iter
            (fun (id, (scenario, provoke)) ->
              match explore_label ~budget ~seed ~mutation:id ?provoke ~name:id scenario with
              | Some ce ->
                  describe ce;
                  write_artifact out id ce
              | None ->
                  escaped id;
                  escapes := id :: !escapes)
            search.Check.mutants;
          if !escapes <> [] then begin
            Printf.printf "%d mutation(s) escaped %s: %s\n" (List.length !escapes) searcher
              (String.concat ", " (List.rev !escapes));
            exit 1
          end;
          Printf.printf "all %d mutations %s and shrunk\n" (List.length search.Check.mutants) caught
        end
        else
          match mutate with
          | Some id -> (
              if not (List.mem id Mutation.known) then begin
                Printf.eprintf "unknown mutation %S (known: %s)\n" id
                  (String.concat ", " Mutation.known);
                exit 2
              end;
              let scenario, provoke =
                match (explicit, Check.mutant_scenario search id) with
                | s :: _, reg -> (s, Option.bind reg snd)
                | [], Some (s, p) -> (s, p)
                | [], None ->
                    (Check.default_scenario ~measure:search.Check.measure Scenario.Geobft, None)
              in
              match explore_label ~budget ~seed ~mutation:id ?provoke ~name:id scenario with
              | Some ce ->
                  describe ce;
                  write_artifact out id ce
              | None ->
                  escaped id;
                  exit 1)
          | None ->
              (* Bug hunt: the unmutated protocols must come out clean. *)
              let scenarios =
                if explicit <> [] then
                  List.map (fun s -> (Scenario.proto_name s.Scenario.proto, s)) explicit
                else
                  List.map
                    (fun p ->
                      ( Scenario.proto_name p,
                        Check.default_scenario ~seed ~measure:search.Check.measure p ))
                    Scenario.all_protocols
              in
              let dirty = ref [] in
              List.iter
                (fun (name, scenario) ->
                  match explore_label ~budget ~seed ~name scenario with
                  | Some ce ->
                      describe ce;
                      write_artifact out name ce;
                      dirty := name :: !dirty
                  | None -> Printf.printf "  clean over %d %s\n%!" budget attempts)
                scenarios;
              if !dirty <> [] then begin
                Printf.printf "%d scenario(s) violated an invariant: %s\n" (List.length !dirty)
                  (String.concat ", " (List.rev !dirty));
                exit 1
              end
  in
  let term =
    Term.(const go $ budget $ seed $ scenario_ids $ mutate $ mutants_flag $ replay_file $ out)
  in
  Cmd.v (Cmd.info cmd ~doc) term

let check_cmd =
  search_cmd Check.schedules ~attempts:"schedules" ~searcher:"the checker" ~caught:"caught"
    ~minimal:(fun ps ->
      Printf.sprintf "schedule (%d perturbations): [%s]" (List.length ps)
        (String.concat "; " (List.map Perturb.to_string ps)))
    ~replaying:(fun ps -> Printf.sprintf " (%d perturbations)" (List.length ps))
    ~artifact:"counterexample"
    ~doc:
      "Explore seeded schedule perturbations (delivery delays, tie-break permutations, \
       same-link reorders) of simulated deployments under an invariant oracle; shrink any \
       violation to a minimal replayable counterexample."
    ~budget_doc:"Schedules to explore per scenario (schedule 0 is unperturbed)."
    ~seed_doc:"Perturbation seed."
    ~scenario_doc:
      "Explore this scenario by its stable id (repeatable) instead of the default \
       per-protocol matrix."
    ~mutate_doc:
      "Activate one test-only protocol mutation and verify the checker catches it (the \
       scenario that exposes it is chosen automatically unless --scenario is given)."
    ~mutants_doc:
      "Validation sweep: explore every known mutation in turn; each must be caught and shrunk \
       within the budget."
    ~replay_doc:"Replay a counterexample artifact and report whether it reproduces."

let attack_cmd =
  let id rules = Adversary.Attack.to_id { Adversary.Attack.rules } in
  search_cmd Check.attacks ~attempts:"attack programs" ~searcher:"the attack search"
    ~caught:"exposed"
    ~minimal:(fun rules -> Printf.sprintf "attack (%d rules): %s" (List.length rules) (id rules))
    ~replaying:(fun rules -> " attack=" ^ id rules)
    ~artifact:"attack"
    ~doc:
      "Search the Byzantine-strategy space (silence, equivocation, delays, stale shares, \
       replays, deafness) of simulated deployments under the invariant oracle; shrink any \
       violation to a 1-minimal replayable attack program."
    ~budget_doc:"Attack programs to try per scenario (attempt 0 is the empty attack)."
    ~seed_doc:"Attack-sampler seed."
    ~scenario_doc:
      "Search this scenario by its stable id (repeatable) instead of the default per-protocol \
       matrix.  An attack=<id> token in the scenario pins attempt 0 to that program."
    ~mutate_doc:
      "Activate one test-only protocol mutation and verify the attack search exposes it (the \
       scenario is chosen automatically unless --scenario is given)."
    ~mutants_doc:
      "Validation sweep: search every registered attack mutant in turn; each must be caught \
       and shrunk within the budget."
    ~replay_doc:"Replay an attack artifact and report whether it reproduces."

let main =
  Cmd.group
    (Cmd.info "resilientdb-cli" ~version:"1.0.0"
       ~doc:"GeoBFT and the ResilientDB fabric: simulated geo-scale BFT deployments.")
    [ run_cmd; sweep_cmd; matrix_cmd; check_cmd; attack_cmd ]

let () = exit (Cmd.eval main)
