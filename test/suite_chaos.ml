(* Chaos fault-injection tests: each protocol survives a fixed-seed
   fault timeline under the continuous invariant monitor, the timeline
   is reproducible event for event from its seed, and the monitor has
   teeth — an intentionally over-budget crash set (> f in one cluster)
   trips the liveness invariant. *)

module Config = Rdb_types.Config
module Time = Rdb_sim.Time
module Ledger = Rdb_ledger.Ledger
module Chaos = Rdb_chaos.Chaos
module Runner = Rdb_experiments.Runner
module Scenario = Rdb_experiments.Scenario
module Report = Rdb_fabric.Report

(* Matches the envelope the seeds were validated against: default
   timeouts, mid-size batches, an 12 s horizon leaving room for the
   fault window plus the fault-free recovery tail. *)
let chaos_cfg ?(z = 2) ?(n = 4) () =
  Config.make ~z ~n ~batch_size:20 ~client_inflight:8 ~seed:1 ()

let windows = { Runner.warmup = Time.sec 1; measure = Time.sec 11 }
let seed = 7

let smoke proto () =
  let cfg = chaos_cfg () in
  (* A vacuous pass would be worthless: the sampled timeline must
     actually contain faults. *)
  let tl = Runner.chaos_timeline proto ~windows ~seed cfg in
  Alcotest.(check bool) "timeline non-empty" true (List.length tl > 0);
  (* Runner.run raises Chaos.Violation — seed, timeline and first broken
     invariant in the payload — if safety or liveness is ever violated. *)
  let report = Runner.run (Scenario.make ~windows ~fault:(Runner.Chaos seed) proto cfg) in
  Alcotest.(check bool) "progress under chaos" true
    (report.Report.completed_txns > 0)

let test_timeline_reproducible () =
  let cfg = chaos_cfg () in
  List.iter
    (fun proto ->
      let a = Runner.chaos_timeline proto ~windows ~seed cfg in
      let b = Runner.chaos_timeline proto ~windows ~seed cfg in
      Alcotest.(check string)
        (Scenario.proto_name proto ^ " same seed, same timeline")
        (Chaos.describe a) (Chaos.describe b);
      Alcotest.(check bool)
        (Scenario.proto_name proto ^ " event-for-event equal")
        true (a = b))
    Scenario.all_protocols

let test_timeline_respects_budget () =
  (* Sampled crash windows never put a cluster beyond its f tolerance:
     at any fault boundary, each cluster has at most f replicas down. *)
  let cfg = chaos_cfg () in
  let f = Config.f cfg in
  List.iter
    (fun s ->
      let tl = Runner.chaos_timeline Runner.Geobft ~windows ~seed:s cfg in
      let crash_events =
        List.filter_map
          (fun (e : Chaos.event) ->
            match e.Chaos.action with
            | Chaos.Crash v -> Some (e.Chaos.at, e.Chaos.until, v)
            | _ -> None)
          tl
      in
      List.iter
        (fun (at, _, _) ->
          for c = 0 to cfg.Config.z - 1 do
            let down =
              List.length
                (List.filter
                   (fun (a, u, v) ->
                     v / cfg.Config.n = c && Time.(a <= at) && Time.(at < u))
                   crash_events)
            in
            if down > f then
              Alcotest.failf "seed %d: cluster %d has %d > f=%d concurrent crashes"
                s c down f
          done)
        crash_events)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* -- the monitor has teeth ---------------------------------------------- *)

module PbftDep = Rdb_fabric.Deployment.Make (Rdb_pbft.Replica)

let test_over_budget_trips_liveness () =
  (* Two of four replicas crashed at once is f + 1 = 2 > f: quorum is
     gone, the system stalls, and since the liveness clock deliberately
     keeps ticking through crash windows (BFT must stay live under
     <= f crashes), the monitor must report it. *)
  let cfg = Config.make ~z:1 ~n:4 ~batch_size:20 ~client_inflight:8 ~seed:1 () in
  let d = PbftDep.create ~retain_payloads:false cfg in
  let surface = Runner.chaos_surface (module PbftDep) d Runner.Pbft cfg in
  let timeline =
    [
      { Chaos.at = Time.ms 1500; until = Time.sec 60; action = Chaos.Crash 1 };
      { Chaos.at = Time.ms 1500; until = Time.sec 60; action = Chaos.Crash 2 };
    ]
  in
  Chaos.install surface timeline;
  let mon = Chaos.monitor ~liveness_window_ms:3000. surface timeline in
  let _report = PbftDep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 7) d in
  Chaos.check_now mon;
  Alcotest.(check bool) "monitor sampled during the run" true (Chaos.samples mon > 4);
  match Chaos.first_violation mon with
  | Some v ->
      Alcotest.(check string) "liveness invariant tripped" "liveness-after-heal"
        v.Chaos.invariant
  | None -> Alcotest.fail "over-budget crash set was not caught by the monitor"

let test_in_budget_stays_clean () =
  (* The same deployment with only f = 1 concurrent crash (transient,
     non-primary) keeps all invariants green under the same monitor. *)
  let cfg = Config.make ~z:1 ~n:4 ~batch_size:20 ~client_inflight:8 ~seed:1 () in
  let d = PbftDep.create ~retain_payloads:false cfg in
  let surface = Runner.chaos_surface (module PbftDep) d Runner.Pbft cfg in
  let timeline =
    [ { Chaos.at = Time.ms 1500; until = Time.ms 3500; action = Chaos.Crash 1 } ]
  in
  Chaos.install surface timeline;
  let mon = Chaos.monitor ~liveness_window_ms:3000. surface timeline in
  let _report = PbftDep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 7) d in
  Chaos.check_now mon;
  match Chaos.first_violation mon with
  | None -> ()
  | Some v -> Alcotest.failf "unexpected violation: %s" (Chaos.violation_to_string v)

(* -- the recovery subsystem has teeth too -------------------------------- *)

(* Seed 13's Pbft timeline stacks transient crashes: replicas that
   rejoin WITHOUT [on_recover] (no cursor resync, no state transfer,
   no view adoption) come back stale, and once enough of the group has
   been cycled through a crash the live non-stale set drops below
   quorum — the group wedges and the monitor's liveness invariant
   trips.  With the recovery subsystem on, the identical timeline is
   green (it is part of the seeds 1-16 sweep). *)
let stale_rejoin_seed = 13

let run_stale_rejoin ~with_recovery =
  let cfg = chaos_cfg () in
  let tl = Runner.chaos_timeline Runner.Pbft ~windows ~seed:stale_rejoin_seed cfg in
  let d = PbftDep.create ~retain_payloads:false cfg in
  let surface = Runner.chaos_surface (module PbftDep) d Runner.Pbft cfg in
  let surface =
    if with_recovery then surface
    else begin
      (* The pre-recovery-subsystem behaviour: rejoin without
         [on_recover], and no behind-the-window catch-up anywhere (a
         lossy-but-alive replica would otherwise rescue itself). *)
      for i = 0 to Config.n_replicas cfg - 1 do
        Rdb_pbft.Engine.set_on_behind (Rdb_pbft.Replica.engine (PbftDep.replica d i)) None
      done;
      { surface with Chaos.recover = (fun v -> Rdb_sim.Network.recover (PbftDep.network d) v) }
    end
  in
  Chaos.install surface tl;
  let mon = Chaos.monitor surface tl in
  let report = PbftDep.run ~warmup:windows.Runner.warmup ~measure:windows.Runner.measure d in
  Chaos.check_now mon;
  (Chaos.first_violation mon, report)

let test_recovery_disabled_run_trips_monitor () =
  match run_stale_rejoin ~with_recovery:false with
  | Some v, _ ->
      Alcotest.(check string) "group wedge caught" "liveness-after-heal" v.Chaos.invariant
  | None, _ -> Alcotest.fail "recovery-disabled rejoin was not caught by the monitor"

let test_same_timeline_with_recovery_stays_green () =
  match run_stale_rejoin ~with_recovery:true with
  | Some v, _ -> Alcotest.failf "unexpected violation: %s" (Chaos.violation_to_string v)
  | None, report ->
      Alcotest.(check bool) "progress across the crashes" true
        (report.Rdb_fabric.Report.completed_txns > 0)

(* Planning is pinned: the SHA-256 of the described timelines of seeds
   1-4 on the suite's deployment, per protocol.  A change to the planner,
   its RNG split or a protocol's fault menu moves these. *)
let test_planning_pinned () =
  let cfg = chaos_cfg () in
  List.iter
    (fun (proto, expected) ->
      let described =
        List.map
          (fun seed -> Chaos.describe (Runner.chaos_timeline proto ~windows ~seed cfg))
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check string)
        (Scenario.proto_name proto ^ " timelines of seeds 1-4")
        expected
        (Rdb_crypto.Sha256.digest_hex (String.concat "" described)))
    [
      (Runner.Geobft, "6b0d199003c411a7230d40e81344792dedec3cf37cc05387669e15691fdf7ad8");
      (Runner.Pbft, "1fbde4760684de93e6b7ed924861f3eb6c481449c3020129d4341c48275372c9");
      (Runner.Zyzzyva, "7289335a08527083df8a817b351dc1a53e7bbc93b00da135e4be16d0ff13f22c");
      (Runner.Hotstuff, "1fbde4760684de93e6b7ed924861f3eb6c481449c3020129d4341c48275372c9");
      (Runner.Steward, "9ec89ba0a9696355cf485b6935f7e5f526796e0411ab3b04bc318606718583fd");
    ]

let suite =
  [
    ("geobft survives seeded chaos", `Slow, smoke Runner.Geobft);
    ("pbft survives seeded chaos", `Slow, smoke Runner.Pbft);
    ("zyzzyva survives seeded chaos", `Slow, smoke Runner.Zyzzyva);
    ("hotstuff survives seeded chaos", `Slow, smoke Runner.Hotstuff);
    ("steward survives seeded chaos", `Slow, smoke Runner.Steward);
    ("timeline reproducible from seed", `Quick, test_timeline_reproducible);
    ("crash budget never exceeds f per cluster", `Quick, test_timeline_respects_budget);
    ("over-budget crashes trip the liveness invariant", `Slow, test_over_budget_trips_liveness);
    ("in-budget crash keeps invariants green", `Slow, test_in_budget_stays_clean);
    ( "recovery-disabled rejoin trips the monitor",
      `Slow,
      test_recovery_disabled_run_trips_monitor );
    ( "same timeline with recovery stays green",
      `Slow,
      test_same_timeline_with_recovery_stays_green );
    ("timeline planning pinned", `Quick, test_planning_pinned);
  ]
