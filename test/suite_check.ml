(* Schedule-exploration checker tests: artifact determinism, shrinker
   idempotence, one pinned mutant-catch per protocol, and a small
   unmutated clean sweep.  The checker is strictly sequential (the
   mutation/evidence hooks are process-global), which Alcotest's
   in-order runner already guarantees. *)

module Check = Rdb_check.Check
module Perturb = Rdb_check.Perturb
module Scenario = Rdb_experiments.Scenario
module Time = Rdb_sim.Time
module Runner = Rdb_experiments.Runner
module Adversary = Rdb_adversary.Adversary

(* -- artifact determinism ------------------------------------------------- *)

let test_artifact_bytes_deterministic () =
  (* Same scenario, seed, and mutation: two independent explorations
     must produce byte-identical violation artifacts. *)
  let explore () =
    match Check.mutant_scenario Check.schedules "pbft-prepare-quorum" with
    | None -> Alcotest.fail "pbft-prepare-quorum not registered"
    | Some s ->
        (match
           Check.explore Check.schedules ~budget:2 ~seed:1 ~mutation:"pbft-prepare-quorum" s
         with
        | Some ce -> Check.counterexample_to_string Check.schedules ce
        | None -> Alcotest.fail "pbft-prepare-quorum escaped a 2-schedule budget")
  in
  let a = explore () and b = explore () in
  Alcotest.(check string) "identical artifact bytes" a b;
  (* And the artifact round-trips through its own parser. *)
  match Check.counterexample_of_string Check.schedules a with
  | Error e -> Alcotest.fail e
  | Ok ce ->
      Alcotest.(check string) "round-trip" a (Check.counterexample_to_string Check.schedules ce)

(* -- shrinker ------------------------------------------------------------- *)

let perturbations =
  [
    Perturb.Delay { nth = 3; extra = Time.ms 40 };
    Perturb.Defer { nth = 11 };
    Perturb.Swap { nth = 5 };
    Perturb.Delay { nth = 90; extra = Time.ms 120 };
    Perturb.Defer { nth = 200 };
    Perturb.Swap { nth = 77 };
    Perturb.Delay { nth = 300; extra = Time.ms 5 };
  ]

let test_ddmin_idempotent () =
  (* Failure needs both the nth=11 defer and the nth=77 swap. *)
  let test subset =
    List.exists (function Perturb.Defer { nth = 11 } -> true | _ -> false) subset
    && List.exists (function Perturb.Swap { nth = 77 } -> true | _ -> false) subset
  in
  let once, _ = Check.ddmin ~test perturbations in
  Alcotest.(check int) "1-minimal" 2 (List.length once);
  Alcotest.(check bool) "minimal subset still fails" true (test once);
  let twice, reruns = Check.ddmin ~test once in
  Alcotest.(check (list string)) "idempotent"
    (List.map Perturb.to_string once)
    (List.map Perturb.to_string twice);
  (* Shrinking an already-minimal list only spends the probes that
     confirm minimality. *)
  Alcotest.(check bool) "cheap on minimal input" true (reruns <= 8)

let test_ddmin_single_cause () =
  let test subset =
    List.exists (function Perturb.Delay { nth = 90; _ } -> true | _ -> false) subset
  in
  let minimal, _ = Check.ddmin ~test perturbations in
  match minimal with
  | [ Perturb.Delay { nth = 90; _ } ] -> ()
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected the single cause, got [%s]"
           (String.concat "; " (List.map Perturb.to_string l)))

(* ddmin is polymorphic: over any item list, with a "contains all of S"
   failure predicate, its result is an in-order sublist of the input
   that still fails and is 1-minimal — dropping any one element passes. *)
let ddmin_one_minimal =
  QCheck.Test.make ~name:"ddmin 1-minimal sublist" ~count:300
    QCheck.(list (pair (int_bound 20) bool))
    (fun marked ->
      let items = List.map fst marked in
      let s = List.filter_map (fun (x, keep) -> if keep then Some x else None) marked in
      let test l = List.for_all (fun x -> List.mem x l) s in
      let minimal, _ = Check.ddmin ~test items in
      let rec sublist sub l =
        match (sub, l) with
        | [], _ -> true
        | _, [] -> false
        | x :: sub', y :: l' -> if x = y then sublist sub' l' else sublist sub l'
      in
      sublist minimal items
      && test minimal
      && List.for_all
           (fun i -> not (test (List.filteri (fun j _ -> j <> i) minimal)))
           (List.init (List.length minimal) Fun.id))

(* -- artifact kinds ------------------------------------------------------- *)

let test_cross_kind_rejected () =
  (* Each codec refuses the other search's artifact, naming its kind and
     the subcommand that replays it. *)
  let ce () =
    {
      Check.scenario = Check.default_scenario ~measure:Check.schedules.measure Scenario.Pbft;
      mutation = None;
      seed = 1;
      index = 0;
      items = [];
      violation = { Check.at = Time.ms 2500; invariant = "quorum-evidence"; detail = "d" };
      digest = None;
      runs = 2;
    }
  in
  let schedule_bytes = Check.counterexample_to_string Check.schedules (ce ())
  and attack_bytes = Check.counterexample_to_string Check.attacks (ce ()) in
  let error = function Ok _ -> "loaded" | Error e -> e in
  Alcotest.(check string) "check refuses an attack artifact"
    "artifact: kind \"attack\"; replay it with the \"attack\" subcommand"
    (error (Check.counterexample_of_string Check.schedules attack_bytes));
  Alcotest.(check string) "attack refuses a schedule artifact"
    "artifact: kind \"schedule\"; replay it with the \"check\" subcommand"
    (error (Check.counterexample_of_string Check.attacks schedule_bytes));
  Alcotest.(check string) "own kind loads" "loaded"
    (error (Check.counterexample_of_string Check.attacks attack_bytes))

(* A key the codec does not read must be absent or null: a null one
   (what older schedule artifacts wrote for an unused input) loads, a
   non-null one is a run input the replay could not reinstall and is
   refused. *)
let test_unknown_fields () =
  let ce =
    {
      Check.scenario = Check.default_scenario ~measure:Check.schedules.measure Scenario.Pbft;
      mutation = None;
      seed = 1;
      index = 0;
      items = [];
      violation = { Check.at = Time.ms 2500; invariant = "quorum-evidence"; detail = "d" };
      digest = None;
      runs = 2;
    }
  in
  let with_field v =
    match Check.counterexample_to_json Check.schedules ce with
    | Rdb_fabric.Json.Obj fields ->
        Rdb_fabric.Json.to_string (Rdb_fabric.Json.Obj (fields @ [ ("window", v) ]))
    | _ -> Alcotest.fail "artifact is not an object"
  in
  let bytes = Check.counterexample_to_string Check.schedules ce in
  (match Check.counterexample_of_string Check.schedules (with_field Rdb_fabric.Json.Null) with
  | Ok ce' ->
      Alcotest.(check string) "null field loads" bytes
        (Check.counterexample_to_string Check.schedules ce')
  | Error e -> Alcotest.fail e);
  let refused = with_field (Rdb_fabric.Json.String "w") in
  match Check.counterexample_of_string Check.schedules refused with
  | Ok _ -> Alcotest.fail "an artifact with an unreadable input loaded"
  | Error e ->
      Alcotest.(check string) "refused, pointing at the attack token"
        "artifact: cannot replay \"window\"; script it as an attack=<id> token" e

(* -- pinned mutant catches ------------------------------------------------ *)

(* One mutation per protocol, each caught within a small budget and
   shrunk to a 1-minimal (here: empty — the violation is
   schedule-independent) perturbation list.  The full seven-mutation
   matrix runs in CI via `rdb_cli check --mutants`. *)
let caught mutation =
  match Check.mutant_scenario Check.schedules mutation with
  | None -> Alcotest.fail (mutation ^ " not registered")
  | Some s -> (
      match Check.explore Check.schedules ~budget:4 ~seed:1 ~mutation s with
      | None -> Alcotest.fail (mutation ^ " escaped a 4-schedule budget")
      | Some ce ->
          Alcotest.(check bool) "violation reported" true (ce.Check.violation.invariant <> "");
          Alcotest.(check int) "caught unperturbed (schedule 0)" 0 ce.Check.index;
          Alcotest.(check int) "shrunk to empty" 0 (List.length ce.Check.items);
          ce)

let catch mutation () = ignore (caught mutation)

(* The weakened remote view-change honor quorum needs a scripted window
   of share silence: its scenario carries it as an attack, which the
   artifact's scenario id records and the replay reinstalls. *)
let test_rvc_weak_window () =
  let ce = caught "geobft-rvc-weak" in
  Alcotest.(check bool) "scenario scripts the window" true
    (ce.Check.scenario.Scenario.attack <> None);
  let bytes = Check.counterexample_to_string Check.schedules ce in
  match Check.counterexample_of_string Check.schedules bytes with
  | Error e -> Alcotest.fail e
  | Ok ce' ->
      Alcotest.(check bool) "artifact records the attack" true
        (Scenario.equal ce.Check.scenario ce'.Check.scenario);
      let outcome = Check.replay Check.schedules ce' in
      Alcotest.(check bool) "replay reproduces" true outcome.Check.reproduced;
      Alcotest.(check (option bool)) "deterministic trace digest" (Some true)
        outcome.Check.digest_match

let test_replay_reproduces () =
  match Check.mutant_scenario Check.schedules "hotstuff-qc-quorum" with
  | None -> Alcotest.fail "hotstuff-qc-quorum not registered"
  | Some s -> (
      match Check.explore Check.schedules ~budget:4 ~seed:1 ~mutation:"hotstuff-qc-quorum" s with
      | None -> Alcotest.fail "hotstuff-qc-quorum escaped"
      | Some ce ->
          let outcome = Check.replay Check.schedules ce in
          Alcotest.(check bool) "replay reproduces" true outcome.Check.reproduced;
          Alcotest.(check (option bool)) "deterministic trace digest" (Some true)
            outcome.Check.digest_match)

(* -- unmutated clean sweep ------------------------------------------------ *)

let test_clean_sweep_small () =
  List.iter
    (fun p ->
      let s = Check.default_scenario ~seed:1 ~measure:Check.schedules.measure p in
      match Check.explore Check.schedules ~budget:2 ~seed:1 s with
      | None -> ()
      | Some ce ->
          Alcotest.fail
            (Printf.sprintf "%s violated %s: %s" (Scenario.proto_name p)
               ce.Check.violation.invariant ce.Check.violation.detail))
    Scenario.all_protocols

(* -- search runs are figure runs ----------------------------------------- *)

(* With no perturbation a checker run is the figure run: its trace
   digest equals [Runner.run]'s for the same scenario, for every
   protocol, under a chaos timeline and under an attack. *)
let test_unperturbed_is_figure_run () =
  let parity name s =
    let figure =
      Option.map (fun t -> t.Rdb_trace.Trace.digest_hex) (Runner.run s).Rdb_fabric.Report.trace
    in
    let search = Check.run_one s ~hooks:(Perturb.replay []) in
    Alcotest.(check bool) (name ^ ": traced") true (figure <> None);
    Alcotest.(check (option string)) (name ^ ": digest") figure search.Check.digest
  in
  let stock p = Check.default_scenario ~measure:(Time.ms 1000) p in
  List.iter (fun p -> parity (Scenario.proto_name p) (stock p)) Scenario.all_protocols;
  parity "chaos" { (stock Scenario.Geobft) with Scenario.fault = Scenario.Chaos 3 };
  let attacked = stock Scenario.Pbft in
  parity "attack"
    { attacked with Scenario.attack = Some (Check.sample_attack ~seed:1 ~attempt:1 attacked) }

(* -- regressions ---------------------------------------------------------- *)

(* A client retry rotates to another HotStuff leader, so two instances
   order the same batch; the replica must execute it once.  The rule is
   the attack search's shrunk counterexample (attempt 7, seed 1). *)
let test_hotstuff_executes_batch_once () =
  let s = Check.default_scenario ~measure:Check.attacks.measure Scenario.Hotstuff in
  match Adversary.rule_of_id "2@588:3063!lag784.c0" with
  | None -> Alcotest.fail "rule id does not parse"
  | Some rule -> (
      match (Check.run_attack s { Adversary.Attack.rules = [ rule ] }).Check.violation with
      | None -> ()
      | Some v -> Alcotest.failf "%s: %s" v.Check.invariant v.Check.detail)

let suite =
  [
    ("ddmin idempotent", `Quick, test_ddmin_idempotent);
    ("ddmin single cause", `Quick, test_ddmin_single_cause);
    ("artifact determinism", `Slow, test_artifact_bytes_deterministic);
    ("mutant catch pbft", `Slow, catch "pbft-prepare-quorum");
    ("mutant catch geobft", `Slow, catch "geobft-share-stale");
    ("mutant catch zyzzyva", `Slow, catch "zyzzyva-spec-history");
    ("mutant catch hotstuff", `Slow, catch "hotstuff-qc-quorum");
    ("mutant catch steward", `Slow, catch "steward-certify-quorum");
    ("replay reproduces", `Slow, test_replay_reproduces);
    ("clean sweep small", `Slow, test_clean_sweep_small);
    ("artifact cross-kind rejected", `Quick, test_cross_kind_rejected);
    ("unperturbed run is the figure run", `Slow, test_unperturbed_is_figure_run);
    ("hotstuff executes a batch once", `Slow, test_hotstuff_executes_batch_once);
    QCheck_alcotest.to_alcotest ddmin_one_minimal;
    ("artifact unknown fields", `Quick, test_unknown_fields);
    ("mutant catch geobft rvc window", `Slow, test_rvc_weak_window);
  ]
