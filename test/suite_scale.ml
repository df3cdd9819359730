(* DESIGN.md §17: large-topology scaling.  Three contracts:

   - the aggregated client-group model is *exactly* conservative over
     the legacy per-cluster client: at [clients = z*1000] with default
     knobs every derived quantity (population, id stride, inflight)
     collapses to the legacy constants, and the reports are
     byte-identical;
   - tiled topologies (z > 6) keep a positive cross-region lookahead,
     so the per-cluster shards still run in conservative epochs at the
     new scales (z = 8, n = 31, 16k aggregated clients), and the bytes
     of that run are pinned;
   - the [clients=] scenario token and JSON field round-trip exactly. *)

module Config = Rdb_types.Config
module Topology = Rdb_sim.Topology
module Time = Rdb_sim.Time
module Report = Rdb_fabric.Report
module Runner = Rdb_experiments.Runner
module Scenario = Rdb_experiments.Scenario
module Trace = Rdb_trace.Trace

(* -- client-group arithmetic -------------------------------------------- *)

let test_group_population () =
  let cfg = Config.make ~z:3 ~n:4 ~clients:1_000_000 () in
  let pops = List.init 3 (fun c -> Config.group_population cfg ~cluster:c) in
  Alcotest.(check int) "population conserved" 1_000_000 (List.fold_left ( + ) 0 pops);
  let mn = List.fold_left min max_int pops and mx = List.fold_left max 0 pops in
  Alcotest.(check bool) "split is even to within one" true (mx - mn <= 1);
  (* The id spaces of adjacent clusters must not overlap. *)
  Alcotest.(check bool) "stride covers the largest group" true
    (Config.client_id_stride cfg >= mx);
  (* Legacy model: population/stride/inflight are the historical
     constants, so every pre-existing pinned digest stands. *)
  let legacy = Config.make ~z:3 ~n:4 () in
  Alcotest.(check int) "legacy population" 1000 (Config.group_population legacy ~cluster:0);
  Alcotest.(check int) "legacy stride" 10_000 (Config.client_id_stride legacy);
  Alcotest.(check int) "legacy inflight" legacy.Config.client_inflight
    (Config.group_inflight legacy ~cluster:0)

(* -- tiled topology ----------------------------------------------------- *)

let test_tiled_topology () =
  let t = Topology.clustered ~z:8 ~n:31 in
  Alcotest.(check int) "8 regions" 8 (Topology.n_regions t);
  Alcotest.(check int) "replicas + client groups" ((8 * 31) + 8) (Topology.n_nodes t);
  (* Region 6 tiles onto paper region 0 (Oregon): same intra-region
     RTT, 10 ms to its paper twin, Table 1 numbers to everyone else. *)
  let node_of_region r = r * 31 in
  let rtt a b = Topology.rtt_ms t ~a:(node_of_region a) ~b:(node_of_region b) in
  Alcotest.(check (float 1e-9)) "tile twin RTT" 10.0 (rtt 6 0);
  Alcotest.(check (float 1e-9)) "tile inherits Table 1 row" (rtt 1 0) (rtt 6 1);
  Alcotest.(check bool) "lookahead stays positive" true
    (Topology.min_cross_region_one_way_ms t > 0.0);
  (* The <= 6-region path must be byte-identical to the paper matrix. *)
  let small = Topology.clustered ~z:4 ~n:7 in
  Alcotest.(check (float 1e-9)) "untiled path unchanged"
    Topology.paper_rtt_ms.(0).(3)
    (Topology.rtt_ms small ~a:0 ~b:(3 * 7))

(* -- scenario grammar --------------------------------------------------- *)

let test_clients_round_trip () =
  let windows = { Scenario.warmup = Time.ms 500; measure = Time.ms 1500 } in
  let cfg = Config.make ~z:8 ~n:31 ~clients:1_600_000 () in
  let s = Scenario.make ~windows Scenario.Geobft cfg in
  let id = Scenario.to_string s in
  Alcotest.(check bool) "id spells clients=" true
    (String.length id > 0
    && Option.is_some
         (String.index_opt id 'c' (* cheap guard; the real check is the round-trip *)));
  (match Scenario.of_string id with
  | Some s' -> Alcotest.(check bool) "string round-trip" true (Scenario.equal s s')
  | None -> Alcotest.failf "unparseable id %S" id);
  (* Legacy ids (no clients= token) must keep parsing to clients = 0. *)
  match Scenario.of_string "geobft z4 n7 b100 i64 seed1 w1000+4000" with
  | Some s' -> Alcotest.(check int) "absent token defaults" 0 s'.Scenario.cfg.Config.clients
  | None -> Alcotest.fail "legacy id no longer parses"

(* -- runs --------------------------------------------------------------- *)

let run_to_bytes s =
  let tracer = Trace.create () in
  let r = Runner.run ~tracer s in
  let digest =
    match r.Report.trace with
    | Some tr -> tr.Trace.digest_hex
    | None -> Alcotest.fail "run produced no trace summary"
  in
  (r, Report.to_json_string r, digest)

(* Aggregation is conservative over the legacy client: with default
   batch/inflight knobs, [clients = z*1000] derives exactly the legacy
   population (1000), stride (10 000) and inflight — so the two
   spellings must produce byte-identical reports and digests. *)
let test_group_equivalence () =
  let windows = { Scenario.warmup = Time.ms 500; measure = Time.ms 1500 } in
  let legacy = Config.make ~z:2 ~n:4 ~seed:3 () in
  let grouped = Config.make ~base:legacy ~clients:2000 () in
  let _, json_l, dig_l =
    run_to_bytes (Scenario.make ~windows Scenario.Geobft legacy)
  in
  let _, json_g, dig_g =
    run_to_bytes (Scenario.make ~windows Scenario.Geobft grouped)
  in
  Alcotest.(check string) "digest equal" dig_l dig_g;
  (* The reports differ only in the scenario-independent fields — and
     since Report carries none, the whole document must match. *)
  Alcotest.(check string) "report JSON equal" json_l json_g

(* Large-topology smoke doubling as the determinism witness: z = 8
   tiled regions, 31 replicas per cluster, 16k aggregated clients — the
   deployment must make progress, and its trace digest and report JSON
   hash are pinned. *)
let test_large_topology_smoke () =
  (* 16k aggregated clients keep the group inflight at the legacy
     floor, so the tier-1 run stays cheap; the million-client load
     points live in the fig11 sweep matrix. *)
  let windows = { Scenario.warmup = Time.ms 300; measure = Time.ms 700 } in
  let cfg = Config.make ~z:8 ~n:31 ~clients:16_000 ~seed:1 () in
  let s = Scenario.make ~windows Scenario.Geobft cfg in
  let r, json, digest = run_to_bytes s in
  Alcotest.(check bool) "progress at scale" true (r.Report.completed_txns > 0);
  Alcotest.(check string) "trace digest at scale"
    "a598e5ab737f9c422229cd0cb082be5a4b72b6fd2a0741650bc81c61fe26de37" digest;
  Alcotest.(check string) "report JSON hash at scale"
    "a1784eb5ca16270a198fb72d671fd04d68bfddba87b028bbb6227070f748f38c"
    (Rdb_crypto.Sha256.digest_hex json)

let suite =
  [
    ("group population arithmetic", `Quick, test_group_population);
    ("tiled topology (z = 8)", `Quick, test_tiled_topology);
    ("clients= round-trips", `Quick, test_clients_round_trip);
    ("group size 1000 == legacy bytes", `Slow, test_group_equivalence);
    ("z=8 n=31 smoke", `Slow, test_large_topology_smoke);
  ]
