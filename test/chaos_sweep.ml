(* Chaos seed sweep: every protocol absorbs its full fault envelope
   across a range of planner seeds with the continuous invariant
   monitor armed.  Any violation raises Chaos.Violation with the
   offending seed and timeline in the payload, so a red run is always
   reproducible with the failing scenario's id, e.g.
   `resilientdb-cli run "pbft z2 n4 b20 i8 seed1 w1000+11000 fault=chaos:SEED"`.

   The protocol x seed grid is submitted through the multicore sweep
   engine (the Chaos.Violation of a failing run surfaces as that
   scenario's [Error] outcome, in canonical order).  The default seed
   set is deliberately small so the sweep rides along in tier-1 `dune
   runtest` (alias chaos-sweep); set CHAOS_SEEDS=LO-HI (e.g.
   CHAOS_SEEDS=1-16) for the wider validation sweep, and CHAOS_JOBS=N
   to override the worker-domain count. *)

module Scenario = Rdb_experiments.Scenario
module Matrices = Rdb_experiments.Matrices
module Sweep = Rdb_sweep.Sweep
module Report = Rdb_fabric.Report

(* Seeds every protocol runs.  HotStuff additionally runs
   [hotstuff_extra]: the seeds whose crash/link-outage timelines used
   to outrun the bounded ledger archive before state transfer was
   wired through lib/recovery (DESIGN.md §17), now the one path that
   heals every stalled instance — kept in tier-1 as the regression
   gate for that catch-up.  CHAOS_SEEDS=LO-HI replaces both
   lists with an explicit range for the wide validation sweep. *)
let hotstuff_extra = [ 6; 8; 9; 12; 13; 14; 16 ]

let seeds () =
  match Sys.getenv_opt "CHAOS_SEEDS" with
  | None -> [ 1; 2; 3; 4 ]
  | Some s -> (
      match Matrices.seed_range s with
      | Some seeds -> seeds
      | None -> failwith "CHAOS_SEEDS must be LO-HI")

let () =
  let seeds = seeds () in
  let explicit_range = Sys.getenv_opt "CHAOS_SEEDS" <> None in
  let seeds_for proto =
    if (not explicit_range) && proto = Scenario.Hotstuff then seeds @ hotstuff_extra
    else seeds
  in
  let scenarios = Matrices.chaos ~seeds:seeds_for in
  let jobs =
    match Option.bind (Sys.getenv_opt "CHAOS_JOBS") int_of_string_opt with
    | Some j when j >= 1 -> j
    | _ -> Sweep.default_jobs ()
  in
  let results = Sweep.run ~jobs scenarios in
  let failures = ref 0 in
  List.iter
    (fun (r : Sweep.result) ->
      let s = r.Sweep.scenario in
      let name = Scenario.proto_name s.Scenario.proto in
      let seed = match s.Scenario.fault with Scenario.Chaos seed -> seed | _ -> -1 in
      match r.Sweep.outcome with
      | Ok report ->
          if report.Report.completed_txns = 0 then begin
            incr failures;
            Printf.printf "FAIL %-8s seed %2d: no progress under chaos\n%!" name seed
          end
          else
            Printf.printf "ok   %-8s seed %2d: %6d txns | st %d | holes %d | rtx %d\n%!" name seed
              report.Report.completed_txns report.Report.state_transfers
              report.Report.holes_filled report.Report.retransmissions
      | Error msg ->
          incr failures;
          Printf.printf "FAIL %-8s seed %2d:\n%s\n%!" name seed msg)
    results;
  if !failures > 0 then begin
    Printf.printf "%d chaos sweep failure(s)\n%!" !failures;
    exit 1
  end
  else
    Printf.printf "chaos sweep clean: %d protocols, %d scenarios (-j %d)\n%!"
      (List.length Scenario.all_protocols)
      (List.length scenarios) jobs
