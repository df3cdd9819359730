(* One repetition of one benchmark workload, measured from outside the
   libraries.

   Builds the scenario's deployment through the public fabric API
   (Deployment.Make(P).create / run / close, with the arguments
   Runner.run passes), runs it on one domain, checks its outputs and
   prints one JSON object on stdout: set-up and run cost on the process
   CPU clock, peak RSS, GC and I/O deltas, the engine's event count,
   whole-run network counters, the output checks, and the report.

   Options:
     --scenario ID     the scenario id (Scenario.of_string syntax)
     --trace           attach a summary tracer (Scenario.trace)
     --sample          SIGPROF-sample run+close, rolled up by library
     --store-dir DIR   root of the disk backend's per-replica stores
     --probes DIR      afterwards, time unit-cost calls into each layer
                       at the workload's shape (DIR holds scratch files)

   A chaos scenario's fault timeline is always planned under config
   seed 1, so one timeline is replayed under every workload seed.

   perfbench/run.py starts one such process per repetition. *)

module Config = Rdb_types.Config
module Batch = Rdb_types.Batch
module Txn = Rdb_types.Txn
module Scenario = Rdb_experiments.Scenario
module Runner = Rdb_experiments.Runner
module Report = Rdb_fabric.Report
module Json = Rdb_fabric.Json
module Time = Rdb_sim.Time
module Engine = Rdb_sim.Engine
module Network = Rdb_sim.Network
module Stats = Rdb_sim.Stats
module Topology = Rdb_sim.Topology
module Ledger = Rdb_ledger.Ledger
module Chaos = Rdb_chaos.Chaos
module Trace = Rdb_trace.Trace
module Sha256 = Rdb_crypto.Sha256
module Keychain = Rdb_crypto.Keychain
module Kv = Rdb_storage.Kv
module Blockstore = Rdb_storage.Blockstore
module Workload = Rdb_ycsb.Workload

(* -- clocks, spans, /proc ------------------------------------------------ *)

(* User+sys CPU seconds of the process (getrusage, microsecond
   resolution). *)
let cpu_now = Sys.time

let wall_now = Unix.gettimeofday

(* The benchmark's own spans around each call into a layer: name, CPU
   seconds, wall seconds, in call order. *)
let spans = ref []

let span name f =
  let c0 = cpu_now () and w0 = wall_now () in
  let r = f () in
  spans := (name, cpu_now () -. c0, wall_now () -. w0) :: !spans;
  r

(* An integer field ("VmHWM:   1234 kB", "wchar: 5678") of a /proc
   file; 0 where the file or field is missing. *)
let proc_field path key =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = key -> (
                 let rest = String.sub line (i + 1) (String.length line - i - 1) in
                 try Some (Scanf.sscanf rest " %d" Fun.id) with _ -> None)
             | _ -> None)
      |> Option.value ~default:0

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Median wall seconds of [reps] calls of [f]. *)
let time_median ?(reps = 5) f =
  median
    (List.init reps (fun _ ->
         let w = wall_now () in
         f ();
         wall_now () -. w))

(* -- one deployment run --------------------------------------------------- *)

type opts = { scenario : Scenario.t; sample : bool; store_dir : string option }

type outcome = {
  report : Report.t;
  setup_cpu : float;
  setup_wall : float;
  run_cpu : float;
  run_wall : float;
  gc_minor_words : float;
  gc_major_words : float;
  gc_major_collections : int;
  events : int;
  net : Stats.snapshot;
  wchar : int;
  verified : bool;
  agreement : bool;
  violation : string option;
}

(* Same per-replica record count as Runner.run. *)
let n_records cfg =
  let nr = Config.n_replicas cfg in
  if nr <= 128 then Rdb_ycsb.Table.default_records
  else max 10_000 (Rdb_ycsb.Table.default_records * 128 / nr)

module Drive (P : Rdb_types.Protocol.S) = struct
  module D = Rdb_fabric.Deployment.Make (P)

  (* The chaos surface Runner.run wires, minus equivocation, which the
     pbft fault menu never draws. *)
  let surface d (cfg : Config.t) caps agreement : Chaos.surface =
    {
      Chaos.z = cfg.Config.z;
      n = cfg.Config.n;
      f = Config.f cfg;
      caps;
      agreement;
      crash = D.crash_replica d;
      recover = D.recover_replica d;
      partition = (fun ~ca ~cb -> D.partition_clusters d ~ca ~cb);
      heal = (fun ~ca ~cb -> D.heal_clusters d ~ca ~cb);
      sever_link = (fun ~src ~dst -> D.sever_link d ~src ~dst);
      restore_link = (fun ~src ~dst -> D.restore_link d ~src ~dst);
      set_link_loss = (fun ~src ~dst ~p -> D.set_link_loss d ~src ~dst ~p);
      set_link_dup = (fun ~src ~dst ~p -> D.set_link_dup d ~src ~dst ~p);
      equivocate =
        (fun ~cluster:_ ~skip:_ -> failwith "perfbench: equivocation is not wired");
      stop_equivocate = (fun ~cluster:_ -> ());
      ledger = (fun r -> D.ledger d ~replica:r);
      now = (fun () -> Engine.now (D.engine d));
      at = (fun time k -> D.at d ~time k);
    }

  let arm_chaos d (s : Scenario.t) timeline =
    let cfg = s.Scenario.cfg in
    let caps, agreement, liveness_window_ms = Runner.chaos_profile s.Scenario.proto cfg in
    let surface = surface d cfg caps agreement in
    Chaos.install surface timeline;
    Chaos.monitor ~liveness_window_ms surface timeline

  let go (o : opts) : outcome =
    let s = o.scenario in
    let cfg = s.Scenario.cfg in
    let tracer = if s.Scenario.trace then Some (Trace.create ()) else None in
    (* Planning builds a deployment of its own, so it runs before the
       set-up clock starts. *)
    let timeline =
      match s.Scenario.fault with
      | Runner.No_fault -> None
      | Runner.Chaos seed ->
          Some
            (span "plan" (fun () ->
                 Runner.chaos_timeline s.Scenario.proto ~windows:s.Scenario.windows ~seed
                   { cfg with Config.seed = 1 }))
      | _ -> failwith "perfbench: only fault-free and chaos scenarios are supported"
    in
    let c0 = cpu_now () and w0 = wall_now () in
    let d =
      span "create" (fun () ->
          D.create ?tracer ~n_records:(n_records cfg) ~retain_payloads:false
            ?store_dir:o.store_dir cfg)
    in
    let monitor = Option.map (arm_chaos d s) timeline in
    let setup_cpu = cpu_now () -. c0 and setup_wall = wall_now () -. w0 in
    let gc0 = Gc.quick_stat () and io0 = proc_field "/proc/self/io" "wchar" in
    let c1 = cpu_now () and w1 = wall_now () in
    if o.sample then Sampler.start ();
    let report =
      span "run" (fun () ->
          D.run ~warmup:s.Scenario.windows.Runner.warmup
            ~measure:s.Scenario.windows.Runner.measure ~jobs:1 d)
    in
    span "close" (fun () -> D.close d);
    if o.sample then Sampler.stop ();
    let run_cpu = cpu_now () -. c1 and run_wall = wall_now () -. w1 in
    let gc1 = Gc.quick_stat () and io1 = proc_field "/proc/self/io" "wchar" in
    (* Output checks: every ledger's hash chain, prefix agreement across
       the replicas that are up at the end, and the chaos monitor. *)
    let replicas = List.init (Config.n_replicas cfg) Fun.id in
    let ledgers = List.map (fun r -> D.ledger d ~replica:r) replicas in
    let live = List.filter (fun r -> not (D.is_crashed d r)) replicas in
    let violation =
      Option.bind monitor (fun mon ->
          Chaos.check_now mon;
          Option.map Chaos.violation_to_string (Chaos.first_violation mon))
    in
    {
      report;
      setup_cpu;
      setup_wall;
      run_cpu;
      run_wall;
      gc_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      gc_major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
      gc_major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      events = Engine.executed_events (D.engine d);
      net = Stats.snapshot (Network.stats (D.network d));
      wchar = io1 - io0;
      verified = List.for_all Ledger.verify ledgers;
      agreement = Ledger.agreement (List.map (fun r -> D.ledger d ~replica:r) live);
      violation;
    }
end

let drive (o : opts) =
  match o.scenario.Scenario.proto with
  | Runner.Geobft ->
      let module M = Drive (Rdb_geobft.Replica) in
      M.go o
  | Runner.Pbft ->
      let module M = Drive (Rdb_pbft.Replica) in
      M.go o
  | _ -> failwith "perfbench: unsupported protocol"

(* -- unit-cost probes ------------------------------------------------------ *)

(* Engine: schedule + pop + execute of one event at a steady heap depth
   of [backlog] pending events, each event re-arming itself a random
   0-1 ms ahead.  Nanoseconds per executed event. *)
let probe_event_ns () =
  let e = Engine.create ~seed:1 () in
  let rng = Rdb_prng.Rng.create 1L in
  let backlog = 4096 in
  let rec tick () =
    ignore (Engine.schedule_after e ~delay:(Time.ns (1 + Rdb_prng.Rng.int rng 1_000_000)) tick)
  in
  for _ = 1 to backlog do
    ignore (Engine.schedule_at e ~at:(Time.ns (Rdb_prng.Rng.int rng 1_000_000)) tick)
  done;
  let horizon = ref (Time.ms 1) in
  Engine.run_until e ~until:!horizon;
  let per_event = ref [] in
  for _ = 1 to 5 do
    let before = Engine.executed_events e in
    let w = wall_now () in
    horizon := Time.add !horizon (Time.ms 50);
    Engine.run_until e ~until:!horizon;
    let dt = wall_now () -. w in
    per_event := (dt /. float_of_int (Engine.executed_events e - before)) :: !per_event
  done;
  median !per_event *. 1e9

(* Network: one multicast from node 0 to the rest of [group] on the
   workload's topology, issued inside an event (the pooled fan-out path
   the protocols take), deliveries included, no-op deliver.
   Nanoseconds per recipient. *)
let probe_multicast_ns (cfg : Config.t) ~group =
  let topo = Topology.clustered ~z:cfg.Config.z ~n:cfg.Config.n in
  let e = Engine.create ~seed:1 () in
  let net =
    Network.create ~wan_egress_mbps:cfg.Config.wan_egress_mbps ~engine:e ~topo ~jitter_ms:0.2
      ~deliver:(fun ~src:_ ~dst:_ () -> ())
      ()
  in
  let dsts = List.filter (fun v -> v <> 0) group in
  let rounds = 2000 in
  let clock = ref Time.zero in
  let dt =
    time_median (fun () ->
        ignore
          (Engine.schedule_at e ~at:!clock (fun () ->
               for _ = 1 to rounds do
                 Network.multicast net ~src:0 ~dsts ~size:512 ()
               done));
        clock := Time.add !clock (Time.sec 30);
        Engine.run_until e ~until:!clock)
  in
  dt /. float_of_int (rounds * List.length dsts) *. 1e9

let batches (cfg : Config.t) ~n_records ~read_fraction ~scan_fraction count =
  let w =
    Workload.create ~n_records ~read_fraction ~scan_fraction ~seed:cfg.Config.seed ~client_base:0 ()
  in
  let keychain = Keychain.create ~seed:"perfbench" ~n_nodes:1 in
  Array.init count (fun id ->
      Batch.create ~keychain ~id ~cluster:0 ~origin:0
        ~txns:(Workload.next_batch_txns w ~batch_size:cfg.Config.batch_size)
        ~created:Time.zero)

let serialize (b : Batch.t) =
  let buf = Buffer.create 4096 in
  Array.iter (Txn.serialize_into buf) b.Batch.txns;
  Buffer.contents buf

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

(* Every probe at the workload's shape: batch size, record count,
   topology and consensus group.  Each value is the median of several
   timed repetitions. *)
let probes (s : Scenario.t) ~scratch =
  let cfg = s.Scenario.cfg in
  let n_records = n_records cfg in
  let bsz = cfg.Config.batch_size in
  let group =
    match s.Scenario.proto with
    | Runner.Pbft -> List.init (Config.n_replicas cfg) Fun.id
    | _ -> Config.replicas_of_cluster cfg 0
  in
  let writes = batches cfg ~n_records ~read_fraction:0. ~scan_fraction:0. 64 in
  let scans = batches cfg ~n_records ~read_fraction:0. ~scan_fraction:1. 64 in
  let per_batch n f = time_median (fun () -> for _ = 1 to n do f () done) /. float_of_int n in
  let event_ns = span "probe.event" probe_event_ns in
  let multicast_ns = span "probe.multicast" (fun () -> probe_multicast_ns cfg ~group) in
  let sha_us =
    span "probe.sha256" (fun () ->
        let payload = serialize writes.(0) in
        per_batch 500 (fun () -> ignore (Sha256.digest payload)) *. 1e6)
  in
  let table_init_ms =
    span "probe.table_init" (fun () ->
        time_median ~reps:3 (fun () -> ignore (Kv.memory ~n_records ())) *. 1e3)
  in
  let kv = Kv.memory ~n_records () in
  let kv_write_us =
    span "probe.kv_write" (fun () ->
        per_batch 1 (fun () -> Array.iter (fun b -> ignore (Kv.apply kv b)) writes)
        /. float_of_int (Array.length writes) *. 1e6)
  in
  let kv_scan_us =
    span "probe.kv_scan" (fun () ->
        per_batch 1 (fun () -> Array.iter (fun b -> ignore (Kv.read kv b)) scans)
        /. float_of_int (Array.length scans) *. 1e6)
  in
  (* Block store: a full 64-block compaction cycle (63 frame appends and
     one append that also writes the snapshot) amortised per block, and
     one stand-alone compaction. *)
  let dir = Filename.concat scratch "probe-store" in
  let bs = Blockstore.open_or_create ~dir ~n_records () in
  let keys = Array.init bsz (fun i -> i * 7919 mod n_records) in
  let values = Array.init bsz Int64.of_int in
  let height = ref 0 in
  let log_block_us =
    span "probe.log_block" (fun () ->
        time_median ~reps:3 (fun () ->
            for _ = 1 to 64 do
              Blockstore.log_block bs ~height:!height ~keys ~values ~count:bsz;
              incr height
            done)
        /. 64. *. 1e6)
  in
  let snapshot_ms =
    span "probe.snapshot" (fun () ->
        time_median ~reps:3 (fun () -> Blockstore.note_restore bs ~height:!height) *. 1e3)
  in
  Blockstore.close bs;
  remove_tree dir;
  [
    ("sim.event_ns", event_ns);
    ("sim.multicast_ns_per_dst", multicast_ns);
    ("crypto.sha256_us_per_batch", sha_us);
    ("storage.kv_write_us_per_batch", kv_write_us);
    ("storage.kv_scan_us_per_batch", kv_scan_us);
    ("storage.log_block_us", log_block_us);
    ("storage.snapshot_ms", snapshot_ms);
    ("storage.table_init_ms", table_init_ms);
  ]

(* -- output ------------------------------------------------------------------ *)

let to_json (o : opts) (r : outcome) probe_rows =
  let n = r.net in
  let samples, sample_total = Sampler.result () in
  Json.Obj
    [
      ("scenario", Json.String (Scenario.to_string o.scenario));
      ("setup_cpu_s", Json.Float r.setup_cpu);
      ("setup_wall_s", Json.Float r.setup_wall);
      ("cpu_s", Json.Float r.run_cpu);
      ("wall_s", Json.Float r.run_wall);
      ("vmhwm_kb", Json.Int (proc_field "/proc/self/status" "VmHWM"));
      ("gc_minor_words", Json.Float r.gc_minor_words);
      ("gc_major_words", Json.Float r.gc_major_words);
      ("gc_major_collections", Json.Int r.gc_major_collections);
      ("events", Json.Int r.events);
      ("msgs_local", Json.Int n.Stats.l_msgs);
      ("msgs_global", Json.Int n.Stats.g_msgs);
      ("bytes_local", Json.Int n.Stats.l_bytes);
      ("bytes_global", Json.Int n.Stats.g_bytes);
      ("msgs_dropped", Json.Int n.Stats.d_msgs);
      ("wchar_bytes", Json.Int r.wchar);
      ("ledgers_verified", Json.Bool r.verified);
      ("agreement", Json.Bool r.agreement);
      ("violation", match r.violation with Some v -> Json.String v | None -> Json.Null);
      ("report", Report.to_json r.report);
      ("sample_total", Json.Int sample_total);
      ("samples", Json.Obj (List.map (fun (lib, k) -> (lib, Json.Int k)) samples));
      ( "spans",
        Json.List
          (List.rev_map
             (fun (name, c, w) ->
               Json.Obj
                 [ ("name", Json.String name); ("cpu_s", Json.Float c); ("wall_s", Json.Float w) ])
             !spans) );
      ("probes", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) probe_rows));
    ]

let () =
  let scenario = ref "" and trace = ref false and sample = ref false in
  let store_dir = ref "" and probe_dir = ref "" in
  Arg.parse
    [
      ("--scenario", Arg.Set_string scenario, "ID scenario id");
      ("--trace", Arg.Set trace, " attach a summary tracer");
      ("--sample", Arg.Set sample, " SIGPROF-sample run+close by library");
      ("--store-dir", Arg.Set_string store_dir, "DIR disk backend root");
      ("--probes", Arg.Set_string probe_dir, "DIR run the unit-cost probes, scratch in DIR");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --scenario ID [options]";
  let scenario =
    match Scenario.of_string !scenario with
    | Some s -> { s with Scenario.trace = s.Scenario.trace || !trace }
    | None ->
        prerr_endline ("bench: bad scenario id: " ^ !scenario);
        exit 2
  in
  let o =
    { scenario; sample = !sample; store_dir = (if !store_dir = "" then None else Some !store_dir) }
  in
  let outcome = drive o in
  let probe_rows = if !probe_dir = "" then [] else probes scenario ~scratch:!probe_dir in
  print_endline (Json.to_string_compact (to_json o outcome probe_rows))
