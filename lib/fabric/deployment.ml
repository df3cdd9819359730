(* The ResilientDB fabric: wires a consensus protocol into a simulated
   geo-scale deployment (paper §3).

   For a configuration (z clusters × n replicas, one client group per
   cluster) the deployment builds:
   - the Table-1-calibrated WAN ([Rdb_sim.Topology.clustered]);
   - the per-node CPU pipeline ([Rdb_sim.Cpu], Figure 9's threads);
   - keys for all nodes ([Rdb_crypto.Keychain]);
   - a ledger and a Kv state machine (the replica's YCSB table) per
     replica, over memory or a persistent block store;
   - protocol replicas and client agents, each handed a [Ctx.t];
   - closed-loop YCSB client drivers per cluster, keeping
     [client_inflight] batches outstanding (modeling the paper's 160 k
     saturating clients);
   - metrics with warm-up / measurement windows (§4's methodology).

   Failure injection for the §4.3 experiments and the chaos harness:
   crash any replica, add message-drop rules, partition regions, sever
   or degrade links, all scheduled at simulated times. *)

module Time = Rdb_sim.Time
module Engine = Rdb_sim.Engine
module Network = Rdb_sim.Network
module Topology = Rdb_sim.Topology
module Cpu = Rdb_sim.Cpu
module Stats = Rdb_sim.Stats
module Keychain = Rdb_crypto.Keychain
module Config = Rdb_types.Config
module Ctx = Rdb_types.Ctx
module Batch = Rdb_types.Batch
module Txn = Rdb_types.Txn
module App = Rdb_types.App
module Protocol = Rdb_types.Protocol
module Wire = Rdb_types.Wire
module Ledger = Rdb_ledger.Ledger
module Workload = Rdb_ycsb.Workload
module Kv = Rdb_storage.Kv
module Backend = Rdb_storage.Backend

(* What travels on the simulated wire: the protocol payload plus its
   receive cost, priced at the send by [P.wire]. *)
type 'm packet = 'm Deployment_intf.packet = { payload : 'm; vcost : Time.t }

module type S = Deployment_intf.S

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

module Make (P : Protocol.S) = struct
  type msg = P.msg
  type replica = P.replica
  type client = P.client
  type node_kind = Replica of P.replica | Client of P.client

  type client_driver = {
    cluster : int;
    workload : Workload.t;
    mutable outstanding : int;
    mutable next_id : int;
    mutable agent : P.client option;
  }

  type t = {
    cfg : Config.t;
    engine : Engine.t;
    net : P.msg packet Network.t;
    cpu : Cpu.t;
    keychain : Keychain.t;
    metrics : Metrics.t;
    ledgers : Ledger.t array;            (* per replica *)
    kvs : Kv.t array;                    (* state machine per replica *)
    scratch_root : string option;        (* store root this deployment created *)
    mutable nodes : node_kind array;
    drivers : client_driver array;
    (* Engine shard owning each node: cluster c (replicas and its
       co-located client group) = shard c when z > 1, everything on
       shard 0 otherwise. *)
    shard_of : int -> int;
    (* Structured consensus-path tracer (Rdb_trace); None = off, and
       every probe degrades to a no-op closure or a single match. *)
    tracer : Rdb_trace.Trace.t option;
    (* When false, ledgers keep block headers/digests but drop txn
       payloads — the memory-friendly mode for long benchmark sweeps
       (a 60-replica run otherwise retains every batch 60 times). *)
    retain_payloads : bool;
    (* The last state snapshot a replica served.  The serving replicas
       of one state transfer mostly sit at one height with identical
       state, so [Kv.snapshot ~share] hands each of them this string
       instead of a fresh n_records * 8 byte copy.  Per deployment, not
       global: sweeps run deployments on parallel domains. *)
    mutable served : App.snapshot option;
  }

  let cfg t = t.cfg
  let engine t = t.engine
  let network t = t.net
  let metrics t = t.metrics
  let ledger t ~replica = t.ledgers.(replica)
  let kv t ~replica = t.kvs.(replica)
  let keychain t = t.keychain
  let set_delivery_hook t h = Network.set_delivery_hook t.net h

  (* Release the block stores' open log channels, and remove the store
     root if this deployment created it (a caller's [store_dir] stays).
     Idempotent; a no-op for Memory. *)
  let close t =
    Array.iter Kv.close t.kvs;
    Option.iter rm_rf t.scratch_root

  (* Adversarial interposition: adapt the protocol-payload hooks of
     lib/adversary to the packet-level hooks of the network.  Forged or
     delayed emissions keep the original packet's size and vcost — the
     adversary rewrites content and timing, not link economics. *)
  let adversary_view : P.msg Rdb_types.Interpose.view = P.adversary

  let set_interposer t (ip : P.msg Rdb_types.Interpose.t option) =
    match ip with
    | None -> Network.set_interposer t.net None
    | Some ip ->
        let on_send ~src ~dst (pkt : P.msg packet) =
          List.map
            (fun (e : P.msg Rdb_types.Interpose.emission) ->
              ({ pkt with payload = e.emit }, e.after))
            (ip.obtrude ~src ~dst pkt.payload)
        in
        let on_recv ~src ~dst (pkt : P.msg packet) =
          ip.admit ~src ~dst pkt.payload
        in
        Network.set_interposer t.net (Some { Network.on_send; on_recv })

  let replica t i =
    match t.nodes.(i) with Replica r -> r | Client _ -> invalid_arg "Deployment.replica"

  let client t ~cluster =
    match t.nodes.(Config.client_node t.cfg ~cluster) with
    | Client c -> c
    | Replica _ -> invalid_arg "Deployment.client"

  (* -- node contexts ---------------------------------------------------- *)

  let rec make_ctx (t : t) ~node : P.msg Ctx.t =
    let cfg = t.cfg in
    let is_replica = Config.is_replica cfg node in
    let send ~dsts payload =
      let w = P.wire cfg payload in
      Network.multicast t.net ~src:node ~dsts ~size:w.Wire.bytes
        { payload; vcost = Config.recv_cost cfg w }
    in
    let charge ~stage ~cost k =
      if Network.is_crashed t.net node then () else Cpu.charge t.cpu ~node ~stage ~cost k
    in
    let shard = t.shard_of node in
    let set_timer ~delay k =
      (* Route onto the node's own shard: timers armed from outside the
         node's execution (construction, control actions) must not land
         on whichever shard happens to be current. *)
      Engine.schedule_at_shard t.engine ~shard
        ~at:(Time.add (Engine.now t.engine) delay)
        (fun () -> if not (Network.is_crashed t.net node) then k ())
    in
    let execute (batch : Batch.t) ~cert ~on_done =
      let txns = Array.length batch.Batch.txns in
      let cost =
        Time.add (Config.exec_cost cfg ~txns) (Config.hash_cost cfg ~bytes:Wire.small)
      in
      Cpu.charge t.cpu ~node ~stage:Cpu.Execute ~cost (fun () ->
          if not (Network.is_crashed t.net node) then begin
            let ledger = t.ledgers.(node) in
            let height = Ledger.length ledger in
            let apply =
              (* Apply to the Kv iff it sits exactly at the append
                 height with an intact payload.  A stripped batch (its
                 payload was dropped for ledger compactness) cannot
                 reproduce state, and a Kv already past this height
                 (a state snapshot was installed while this execute was
                 in flight) must not re-apply — either way the block is
                 appended ledger-only and the protocol skips its reply. *)
              Kv.height t.kvs.(node) = height && not (Batch.stripped batch)
            in
            let result = if apply then Some (Kv.apply t.kvs.(node) batch) else None in
            let stored = if t.retain_payloads then batch else Batch.strip batch in
            ignore
              (Ledger.append ledger ~round:height ~cluster:batch.Batch.cluster ~batch:stored
                 ~cert);
            if node = 0 then begin
              Metrics.record_decision t.metrics;
              match t.tracer with
              | None -> ()
              | Some tr -> Rdb_trace.Trace.note_decision tr
            end;
            on_done result
          end)
    in
    (* The consensus-bypass read path: serve a read-only batch from
       current state, charged at the execute stage like any execution,
       but without consensus, without the ledger, and without moving
       the Kv height. *)
    let read_execute (batch : Batch.t) ~on_done =
      let txns = Array.length batch.Batch.txns in
      let cost =
        Time.add (Config.exec_cost cfg ~txns) (Config.hash_cost cfg ~bytes:Wire.small)
      in
      Cpu.charge t.cpu ~node ~stage:Cpu.Execute ~cost (fun () ->
          if not (Network.is_crashed t.net node) then on_done (Kv.read t.kvs.(node) batch))
    in
    let state_snapshot () =
      (* With payloads retained, ledger replay rebuilds state for free;
         only the stripped configuration needs the state piggyback. *)
      if (not is_replica) || t.retain_payloads then None
      else begin
        let s = Kv.snapshot ?share:t.served t.kvs.(node) in
        t.served <- Some s;
        Some s
      end
    in
    let app_restore snap =
      if is_replica then Kv.restore t.kvs.(node) snap
    in
    let ledger_read ~height =
      if is_replica then begin
        (* A recovering requester may be ahead of this peer: clamp so a
           fetch past our frontier reads as the empty suffix. *)
        let ledger = t.ledgers.(node) in
        let height = max 0 (min height (Ledger.length ledger)) in
        List.map
          (fun (b : Rdb_ledger.Block.t) -> (b.Rdb_ledger.Block.batch, b.Rdb_ledger.Block.cert))
          (Ledger.read_from ledger ~height)
      end
      else []
    in
    let complete (batch : Batch.t) =
      let now = Engine.now t.engine in
      (* Per-op-class counts, taken client-side from the submitted
         payload (the client always holds the full batch). *)
      let reads = ref 0 and scans = ref 0 and writes = ref 0 in
      Array.iter
        (fun (x : Txn.t) ->
          match x.Txn.op with
          | Txn.Read -> incr reads
          | Txn.Scan -> incr scans
          | Txn.Write -> incr writes)
        batch.Batch.txns;
      Metrics.record_completion t.metrics ~now ~txns:(Array.length batch.Batch.txns)
        ~reads:!reads ~scans:!scans ~writes:!writes
        ~latency:(Time.sub now batch.Batch.created) ();
      let d = t.drivers.(batch.Batch.cluster) in
      d.outstanding <- d.outstanding - 1;
      refill t d
    in
    let phase =
      match t.tracer with
      | None -> fun ~key:_ ~name:_ -> ()
      | Some tr ->
          fun ~key ~name ->
            Rdb_trace.Trace.phase_mark tr ~node ~key ~name ~now:(Engine.now t.engine)
    in
    {
      Ctx.id = node;
      config = cfg;
      keychain = t.keychain;
      rng = Rdb_prng.Rng.split (Engine.rng t.engine) ~index:node;
      now = (fun () -> Engine.now t.engine);
      send;
      charge;
      set_timer;
      cancel_timer = Engine.cancel;
      execute;
      read_execute;
      state_snapshot;
      app_restore;
      ledger_read;
      complete = (if is_replica then fun _ -> () else complete);
      phase;
    }

  (* -- closed-loop client drivers ---------------------------------------- *)

  and refill (t : t) (d : client_driver) =
    match d.agent with
    | None -> ()
    | Some agent ->
        (* One aggregated group tick per batch: the loop body costs
           O(1) events regardless of how many real clients the group
           models (Config.group_inflight scales the outstanding window
           with the population instead). *)
        while d.outstanding < Config.group_inflight t.cfg ~cluster:d.cluster do
          d.outstanding <- d.outstanding + 1;
          let id = (d.cluster * 1_000_000) + d.next_id in
          d.next_id <- d.next_id + 1;
          let txns = Workload.next_batch_txns d.workload ~batch_size:t.cfg.Config.batch_size in
          let batch =
            Batch.create ~keychain:t.keychain ~id ~cluster:d.cluster
              ~origin:(Config.client_node t.cfg ~cluster:d.cluster) ~txns
              ~created:(Engine.now t.engine)
          in
          P.submit agent batch
        done

  (* -- construction -------------------------------------------------------- *)

  let create ?tracer ?(n_records = Rdb_ycsb.Table.default_records) ?(retain_payloads = true)
      ?store_dir (cfg : Config.t) =
    if cfg.Config.z < 1 then invalid_arg "Deployment.create: z must be >= 1";
    let topo = Topology.clustered ~z:cfg.Config.z ~n:cfg.Config.n in
    (* Conservative sharding (DESIGN.md §15): one shard per cluster —
       each cluster and its co-located client group live in one region,
       so all cross-shard traffic is cross-region and the WAN's minimum
       one-way latency bounds how soon it can land.  The shard count is
       fixed by the topology, and it fixes the event order. *)
    let lookahead_ms = Topology.min_cross_region_one_way_ms topo in
    let shards = if cfg.Config.z > 1 && lookahead_ms < infinity then cfg.Config.z else 1 in
    let engine =
      if shards > 1 then
        Engine.create ~seed:cfg.Config.seed ~shards ~lookahead:(Time.of_ms_f lookahead_ms) ()
      else Engine.create ~seed:cfg.Config.seed ()
    in
    let shard_of =
      if shards > 1 then fun node -> Config.cluster_of_node cfg node else fun _ -> 0
    in
    let n_nodes = Config.n_nodes cfg in
    let keychain = Keychain.create ~seed:(Printf.sprintf "rdb-%d" cfg.Config.seed) ~n_nodes in
    let cpu = Cpu.create ?trace:tracer ~shard_of ~engine ~n_nodes () in
    let metrics = Metrics.create () in
    (match tracer with
    | Some tr when shards > 1 ->
        Rdb_trace.Trace.set_shards tr ~n:shards ~shard_of_now:(fun () ->
            Engine.current_shard_id engine)
    | _ -> ());
    let n_repl = Config.n_replicas cfg in
    let ledgers = Array.init n_repl (fun _ -> Ledger.create ()) in
    (* Identical initial state on every replica: derive the master
       image once and memcpy, instead of re-mixing 600 k records per
       node.  Each replica's Kv keeps its state in memory, over a
       block store under [store_root] for Disk; replica 0 of the
       Memory configuration adopts the master directly (no extra
       copy). *)
    let master = Backend.init_records ~n_records in
    let store_root =
      match (cfg.Config.storage, store_dir) with
      | Config.Memory, _ -> None
      | Config.Disk, Some d -> Some d
      | Config.Disk, None ->
          (* A unique scratch directory per deployment: claim a unique
             temp-file name and use it as the directory root. *)
          let stamp = Filename.temp_file "rdb-store-" "" in
          Sys.remove stamp;
          Some stamp
    in
    (* [close] removes the root only if it is ours. *)
    let scratch_root = if Option.is_none store_dir then store_root else None in
    let kvs =
      Array.init n_repl (fun i ->
          match store_root with
          | None -> if i = 0 then Kv.of_records master else Kv.of_master master
          | Some root ->
              Kv.disk ~init:master
                ~dir:(Filename.concat root (Printf.sprintf "r%d" i))
                ~n_records ())
    in
    let drivers =
      Array.init cfg.Config.z (fun cluster ->
          {
            cluster;
            workload =
              Workload.create ~n_records ~read_fraction:cfg.Config.read_fraction
                ~scan_fraction:cfg.Config.scan_fraction
                ~n_clients:(Config.group_population cfg ~cluster)
                ~seed:(cfg.Config.seed + (7919 * (cluster + 1)))
                ~client_base:(cluster * Config.client_id_stride cfg) ();
            outstanding = 0;
            next_id = 0;
            agent = None;
          })
    in
    let t_ref = ref None in
    (* Replicas verify incoming messages on their two input threads
       (paper §3, Figure 9: "all replicas have two input threads for
       processing all other messages"); alternate between them. *)
    let input_toggle = Array.make n_nodes false in
    let deliver ~src ~dst (pkt : P.msg packet) =
      match !t_ref with
      | None -> ()
      | Some t ->
          if not (Network.is_crashed t.net dst) then begin
            let stage =
              if Config.is_replica cfg dst then begin
                input_toggle.(dst) <- not input_toggle.(dst);
                if input_toggle.(dst) then Cpu.Input0 else Cpu.Input1
              end
              else Cpu.Misc
            in
            Cpu.charge t.cpu ~node:dst ~stage ~cost:pkt.vcost (fun () ->
                if not (Network.is_crashed t.net dst) then
                  match t.nodes.(dst) with
                  | Replica r -> P.on_message r ~src pkt.payload
                  | Client c -> P.on_client_message c ~src pkt.payload)
          end
    in
    let net =
      Network.create ~wan_egress_mbps:cfg.Config.wan_egress_mbps ?trace:tracer ~shard_of ~engine
        ~topo ~jitter_ms:0.2 ~deliver ()
    in
    (* One Chrome/Perfetto track per node, labeled with its role. *)
    (match tracer with
    | None -> ()
    | Some tr ->
        for node = 0 to n_nodes - 1 do
          let name =
            if Config.is_replica cfg node then
              Printf.sprintf "replica %d (cluster %d, idx %d)" node
                (Config.cluster_of_replica cfg node) (Config.local_index cfg node)
            else Printf.sprintf "clients (cluster %d)" (Config.cluster_of_client cfg node)
          in
          Rdb_trace.Trace.set_track_name tr ~node name
        done);
    let t =
      {
        cfg;
        engine;
        net;
        cpu;
        keychain;
        metrics;
        ledgers;
        kvs;
        scratch_root;
        nodes = [||];
        drivers;
        shard_of;
        tracer;
        retain_payloads;
        served = None;
      }
    in
    t_ref := Some t;
    t.nodes <-
      Array.init n_nodes (fun node ->
          if Config.is_replica cfg node then Replica (P.create_replica (make_ctx t ~node))
          else
            let cluster = Config.cluster_of_client cfg node in
            let agent = P.create_client (make_ctx t ~node) ~cluster in
            drivers.(cluster).agent <- Some agent;
            Client agent);
    t

  (* Stop cluster [cluster]'s client group from submitting new batches
     (already-submitted batches complete normally).  Used to exercise
     GeoBFT's no-op rounds: a cluster without client requests must not
     stall the others (§2.5). *)
  let pause_client t ~cluster = t.drivers.(cluster).agent <- None

  (* -- fault injection ------------------------------------------------------ *)

  let crash_replica t node = Network.crash t.net node

  (* Un-crash a node: it resumes sending/receiving with the state it
     had at crash time.  Timers armed before the crash were dropped
     while the node was down, so the protocol's [on_recover] hook runs
     to restart its self-rearming tasks and kick off state transfer /
     catch-up. *)
  let recover_replica t node =
    Network.recover t.net node;
    match t.nodes.(node) with
    | Replica r -> P.on_recover r
    | Client _ -> ()

  let is_crashed t node = Network.is_crashed t.net node

  let add_drop_rule t rule = Network.add_drop_rule t.net rule
  let clear_drop_rules t = Network.clear_drop_rules t.net

  (* Sever all traffic between two clusters' regions (both ways). *)
  let partition_clusters t ~ca ~cb = Network.partition_regions t.net ~ra:ca ~rb:cb

  (* Inverse of [partition_clusters] on the same pair. *)
  let heal_clusters t ~ca ~cb = Network.heal_regions t.net ~ra:ca ~rb:cb

  let sever_link t ~src ~dst = Network.sever_link t.net ~src ~dst
  let restore_link t ~src ~dst = Network.restore_link t.net ~src ~dst
  let set_link_loss t ~src ~dst ~p = Network.set_link_loss t.net ~src ~dst ~p
  let set_link_dup t ~src ~dst ~p = Network.set_link_dup t.net ~src ~dst ~p

  (* Schedule a global action at an absolute simulated time.  Fault
     injection, chaos steps and monitors observe and mutate cross-shard
     state, so they run as engine controls: at an epoch barrier with
     every shard stopped, at exactly [time], before same-time ordinary
     events. *)
  let at t ~time k = Engine.schedule_control t.engine ~at:time (fun () -> k ())

  (* -- running ---------------------------------------------------------------- *)

  let start_clients t = Array.iter (fun d -> refill t d) t.drivers

  let view_changes t =
    let acc = ref 0 in
    Array.iter
      (fun node -> match node with Replica r -> acc := !acc + P.view_changes r | Client _ -> ())
      t.nodes;
    !acc

  (* Recovery-subsystem totals across all replicas. *)
  let recovery_totals t =
    Array.fold_left
      (fun acc node ->
        match node with
        | Replica r -> Protocol.add_recovery acc (P.recovery r)
        | Client _ -> acc)
      Protocol.no_recovery t.nodes

  let run ?(warmup = Time.sec 15) ?(measure = Time.sec 45) ?(jobs = 1) (t : t) : Report.t =
    (* [jobs] stays only for callers that still pass [~jobs:1]. *)
    if jobs <> 1 then invalid_arg "Deployment.run: runs execute on one domain; jobs must be 1";
    start_clients t;
    Engine.run_until t.engine ~until:warmup;
    Metrics.open_window t.metrics ~now:(Engine.now t.engine);
    let before = Stats.snapshot (Network.stats t.net) in
    let vc_before = view_changes t in
    Engine.run_until t.engine ~until:(Time.add warmup measure);
    Metrics.close_window t.metrics ~now:(Engine.now t.engine);
    let after = Stats.snapshot (Network.stats t.net) in
    let d = Stats.diff ~after ~before in
    let lat = Metrics.latency_summary t.metrics in
    let rlat = Metrics.read_latency_summary t.metrics in
    {
      Report.protocol = P.name;
      z = t.cfg.Config.z;
      n = t.cfg.Config.n;
      batch_size = t.cfg.Config.batch_size;
      throughput_txn_s = Metrics.throughput_txn_s t.metrics;
      avg_latency_ms = lat.Metrics.avg_ms;
      p50_latency_ms = lat.Metrics.p50_ms;
      p95_latency_ms = lat.Metrics.p95_ms;
      p99_latency_ms = lat.Metrics.p99_ms;
      completed_batches = Metrics.completed_batches t.metrics;
      completed_txns = Metrics.completed_txns t.metrics;
      decisions = Metrics.decisions t.metrics;
      local_msgs = d.Stats.l_msgs;
      global_msgs = d.Stats.g_msgs;
      local_mb = float_of_int d.Stats.l_bytes /. 1e6;
      global_mb = float_of_int d.Stats.g_bytes /. 1e6;
      view_changes = view_changes t - vc_before;
      state_transfers = (recovery_totals t).Protocol.state_transfers;
      holes_filled = (recovery_totals t).Protocol.holes_filled;
      retransmissions = (recovery_totals t).Protocol.retransmissions;
      storage = Config.storage_name t.cfg.Config.storage;
      read_txns = Metrics.read_txns t.metrics;
      scan_txns = Metrics.scan_txns t.metrics;
      write_txns = Metrics.write_txns t.metrics;
      read_p50_latency_ms = rlat.Metrics.p50_ms;
      read_p95_latency_ms = rlat.Metrics.p95_ms;
      read_p99_latency_ms = rlat.Metrics.p99_ms;
      window_sec = Metrics.window_sec t.metrics;
      (* Finalizes the digest: [run] is the end of the traced stream. *)
      trace = Option.map Rdb_trace.Trace.summary t.tracer;
    }
end
