(* resilientdb-cli: run simulated deployments from the command line.
   Every command names a run by its scenario id (lib/experiments/
   scenario.mli); an omitted token takes its default.

   Examples:
     resilientdb-cli run geobft                   # z4 n7 b100 i64 seed1 w1000+4000
     resilientdb-cli run "pbft z6 n10 b200 w3000+30000"
     resilientdb-cli run "geobft z2 n4 fault=primary" --trace out.json
     resilientdb-cli sweep fig13 -j 8             # run and print Figure 13
     resilientdb-cli sweep table2 fig10 --out results.json
     resilientdb-cli sweep --smoke -j 2           # the CI smoke matrix
     resilientdb-cli sweep all --full -j 16       # paper-length windows
     resilientdb-cli sweep --scenario "geobft z4 n7 b100 i64 seed1 w1000+4000"
     resilientdb-cli matrix            # print Table 1 *)

open Cmdliner
module Runner = Resilientdb.Experiments.Runner
module Scenario = Resilientdb.Scenario
module Sweep = Resilientdb.Sweep
module Matrices = Resilientdb.Experiments.Matrices
module Time = Resilientdb.Time
module Report = Resilientdb.Report

let scenario_of_id id =
  match Scenario.of_string id with
  | Some s -> s
  | None ->
      Printf.eprintf "unparseable scenario id %S\n" id;
      exit 2

let run_cmd =
  let id =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ID"
             ~doc:
               "The scenario to run, by its stable id, as $(b,sweep --scenario) takes it: a \
                protocol (geobft, pbft, zyzzyva, hotstuff or steward), then any of \
                z<clusters> n<replicas> b<batch> i<inflight> seed<seed> \
                w<warmup ms>+<measure ms>, fault=none|one|f|primary|chaos[:SEED], \
                attack=<program>, trace and knob=value tokens (reads=, scans=, storage=mem|disk, \
                ckpt=, cost.sign=, ...), e.g. \"pbft z2 n4 b50 w1000+3000 fault=chaos:6\".  \
                An omitted token takes its default: z4 n7 b100 i64 seed1 w1000+4000.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:
               "Record a consensus-path trace and write it as Chrome trace-event JSON to \
                $(docv) (load it at ui.perfetto.dev or chrome://tracing).  Also prints the \
                per-phase latency breakdown and the deterministic trace digest: same seed, \
                same digest.")
  in
  let go id trace_out =
    let scenario = scenario_of_id id in
    let scenario =
      if Option.is_some trace_out then { scenario with Scenario.trace = true } else scenario
    in
    Printf.printf "scenario: %s\n%!" (Scenario.to_string scenario);
    let tracer =
      Option.map (fun _ -> Resilientdb.Trace.create ~keep_events:true ()) trace_out
    in
    let t0 = Unix.gettimeofday () in
    let report = Runner.run ?tracer scenario in
    Printf.printf "%s\n" (Report.to_string report);
    Printf.printf "%s\n" (Format.asprintf "%a" Report.pp_recovery report);
    (match report.Report.trace with
    | Some s ->
        Printf.printf "%s" (Format.asprintf "%a" Report.pp_trace report);
        Printf.printf "trace digest: %s\n" s.Resilientdb.Trace.digest_hex
    | None -> ());
    (match (trace_out, tracer) with
    | Some file, Some tr ->
        let oc = open_out file in
        Resilientdb.Trace.write_chrome_json tr oc;
        close_out oc;
        Printf.printf "wrote %s (%d events)\n" file (Resilientdb.Trace.events_kept tr)
    | _ -> ());
    let w = scenario.Scenario.windows in
    Printf.printf "(simulated %gs in %.1fs of wall-clock time)\n"
      (Time.to_sec_f (Time.add w.Scenario.warmup w.Scenario.measure))
      (Unix.gettimeofday () -. t0)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one simulated geo-scale deployment and report its metrics.")
    Term.(const go $ id $ trace_out)

(* -- sweep ----------------------------------------------------------------- *)

let sweep_cmd =
  let matrices =
    Arg.(value & pos_all string []
         & info [] ~docv:"MATRIX"
             ~doc:
               (Printf.sprintf
                  "Scenario matrices to sweep: %s.  After the sweep, each matrix that has a \
                   paper table prints it.  Combine freely with --scenario."
                  (String.concat ", " Matrices.names)))
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
               "Write the aggregated results document to $(docv): CSV if it ends in .csv, \
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
      match Matrices.seed_range seeds with
      | Some seeds -> seeds
      | None -> prerr_endline "--seeds must be LO-HI"; exit 2
    in
    let matrices = if smoke then "smoke" :: matrices else matrices in
    if matrices = [] && scenario_ids = [] then begin
      Printf.eprintf "nothing to sweep: name a matrix (%s) or pass --scenario ID\n"
        (String.concat ", " Matrices.names);
      exit 2
    end;
    let matrices =
      List.concat_map
        (fun m ->
          match Matrices.expand ~windows ~seeds m with
          | Some ms -> ms
          | None ->
              Printf.eprintf "unknown matrix %S (expected one of: %s, or --scenario ID)\n" m
                (String.concat " " Matrices.names);
              exit 2)
        matrices
    in
    let from_matrices = List.concat_map (fun (m : Matrices.t) -> m.Matrices.scenarios) matrices in
    let scenarios = from_matrices @ List.map scenario_of_id scenario_ids in
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
    (* Each matrix's paper table, from its slice of the ordered
       results; a slice with a failed run prints none. *)
    let rec print_tables results = function
      | [] -> ()
      | (m : Matrices.t) :: ms ->
          let k = List.length m.Matrices.scenarios in
          let slice = List.filteri (fun i _ -> i < k) results in
          (match m.Matrices.render with
          | Some render
            when List.for_all (fun (r : Sweep.result) -> Result.is_ok r.Sweep.outcome) slice ->
              print_string (render (Sweep.reports_exn slice))
          | _ -> ());
          print_tables (List.filteri (fun i _ -> i >= k) results) ms
    in
    print_tables results matrices;
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
  let go () = print_string (Matrices.table1 ()) in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Print Table 1: the configured inter-region RTT and bandwidth matrices, then the \
          same two measured inside the simulator.")
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
               (Printf.sprintf "Write every %s artifact as $(docv)/%s-<name>.json." artifact
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
  let explore_label ~budget ~seed ?mutation ~name scenario =
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
    Check.explore search ~budget ~seed ?mutation ~on_attempt scenario
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
        let explicit = List.map scenario_of_id scenario_ids in
        let escaped id =
          Printf.printf "  ESCAPED: mutation %s survived %d %s\n%!" id budget attempts
        in
        if mutants_flag then begin
          (* Every registered mutant must be caught and shrunk. *)
          let escapes = ref [] in
          List.iter
            (fun (id, scenario) ->
              match explore_label ~budget ~seed ~mutation:id ~name:id scenario with
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
              let scenario =
                match (explicit, Check.mutant_scenario search id) with
                | s :: _, _ | [], Some s -> s
                | [], None -> Check.default_scenario ~measure:search.Check.measure Scenario.Geobft
              in
              match explore_label ~budget ~seed ~mutation:id ~name:id scenario with
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
