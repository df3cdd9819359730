(* Uniform driver used by every experiment: pick a protocol, a
   configuration and a failure scenario, run one simulated deployment,
   return its report. *)

module Config = Rdb_types.Config
module Interpose = Rdb_types.Interpose
module Time = Rdb_sim.Time
module Engine = Rdb_sim.Engine
module Rng = Rdb_prng.Rng
module Keychain = Rdb_crypto.Keychain
module Report = Rdb_fabric.Report
module Ledger = Rdb_ledger.Ledger
module Chaos = Rdb_chaos.Chaos
module Adversary = Rdb_adversary.Adversary
module Deployment = Rdb_fabric.Deployment

module GeoDep = Deployment.Make (Rdb_geobft.Replica)
module PbftDep = Deployment.Make (Rdb_pbft.Replica)
module ZyzDep = Deployment.Make (Rdb_zyzzyva.Replica)
module HsDep = Deployment.Make (Rdb_hotstuff.Replica)
module StwDep = Deployment.Make (Rdb_steward.Replica)

(* The scenario vocabulary (protocols, faults, windows) lives in
   {!Scenario}.  Its types are re-exported here with type equations
   because perfbench/bench.ml, which is frozen with the benchmark,
   matches [Runner.Geobft] and [Runner.No_fault] and reads
   [Runner.warmup]. *)

type proto = Scenario.proto = Geobft | Pbft | Zyzzyva | Hotstuff | Steward

type fault = Scenario.fault =
  | No_fault
  | One_nonprimary
  | F_nonprimary
  | Primary_failure
  | Chaos of int

type windows = Scenario.windows = { warmup : Time.t; measure : Time.t }

(* The deployment module of each protocol, which [run] unpacks. *)
let deployment : proto -> (module Deployment.S) = function
  | Geobft -> (module GeoDep)
  | Pbft -> (module PbftDep)
  | Zyzzyva -> (module ZyzDep)
  | Hotstuff -> (module HsDep)
  | Steward -> (module StwDep)

(* -- chaos wiring ------------------------------------------------------ *)

(* What each protocol is expected to absorb — the scheduler only draws
   faults a protocol must survive, so a violation is always a bug.
   The envelopes are empirical statements about *this codebase*, not
   aspirations (DESIGN.md documents each exclusion):
   - GeoBFT carries the paper's full recovery machinery (local view
     change, DRVC re-serve, remote view change with re-share), so it
     takes the whole menu: any replica may crash and recover, clusters
     may partition and heal, links may flap/lose/duplicate, and a
     Byzantine primary may equivocate at the sharing step;
   - Pbft recovers from message loss and severed links through its
     view-change timer, and — since the lib/recovery checkpoint
     state-transfer layer — any replica (the primary included) may
     crash and rejoin: it pulls the stable-checkpoint anchor plus the
     missing ledger suffix from f+1 agreeing peers and adopts the
     group's view;
   - Zyzzyva has no view change at all: node 0 is not crashable;
     backup crashes and link faults push clients onto the
     commit-certificate slow path, which recovers (kept as-is,
     faithful to the paper's Zyzzyva);
   - HotStuff replicas interleave independent instance logs
     (agreement is per-executed-batch-set with in-flight slack rather
     than prefix equality); a stalled instance fetches its log from
     the frontier through lib/recovery, so severed and lossy links
     heal and any replica may crash and rejoin (a crashed leader's own
     instance legitimately stalls while it is down);
   - Steward's inter-site traffic is threshold-signed shares routed
     through site representatives; the lib/recovery stall task
     re-proposes, re-accepts, re-forwards and catch-up-fetches with
     backoff + jitter, so link outages, loss and duplication on the
     representative channel now heal alongside non-representative
     crashes. *)
let chaos_profile (p : proto) (cfg : Config.t) :
    Chaos.caps * Chaos.agreement_mode * float =
  let everyone _ = true in
  match p with
  | Geobft ->
      ( { Chaos.crashable = everyone; partitions = true; link_down = true;
          link_loss = true; link_dup = true; equivocation = true },
        Chaos.Prefix,
        8000. )
  | Pbft ->
      ( { Chaos.crashable = everyone; partitions = false; link_down = true;
          link_loss = true; link_dup = true; equivocation = false },
        Chaos.Prefix,
        6000. )
  | Zyzzyva ->
      ( { Chaos.crashable = (fun v -> v <> 0); partitions = false;
          link_down = true; link_loss = true; link_dup = true;
          equivocation = false },
        Chaos.Prefix,
        6000. )
  | Hotstuff ->
      (* Crashes joined the menu when ledger state transfer was wired
         through lib/recovery (Fetch_log/Log_suffix catch-up): a
         recovering replica now closes arbitrarily long holes inside
         the liveness window, where the old bounded archive left them
         permanently unservable. *)
      ( { Chaos.crashable = everyone; partitions = false; link_down = true;
          link_loss = true; link_dup = true; equivocation = false },
        Chaos.Eventual_set 256,
        6000. )
  | Steward ->
      ( { Chaos.crashable = (fun v -> v mod cfg.Config.n <> 0);
          partitions = false; link_down = true; link_loss = true;
          link_dup = true; equivocation = false },
        Chaos.Prefix,
        6000. )

(* -- adversary wiring -------------------------------------------------- *)

(* What each protocol's implementation is required to absorb from a
   Byzantine minority — the attack sampler only draws strategies from
   this menu, so any violation the search finds is a bug.  Like the
   chaos envelopes these are empirical statements about *this
   codebase* (DESIGN.md §14 documents each exclusion):
   - GeoBFT gets the full menu: silence (shares, votes, or everything),
     sharing-step equivocation, delayed sending, stale share replays,
     duplicate replays and share-deafness — the Figure-7 remote
     view-change machinery plus the lib/recovery fetch path must heal
     all of them;
   - Pbft has view changes and checkpoint state transfer, so primaries
     may equivocate, go silent or drag their feet;
   - Zyzzyva has no view change: node 0 must stay honest (faithful to
     the paper), backups may stall or replay — the client
     commit-certificate slow path absorbs it;
   - HotStuff replicas run independent instances with log-transfer
     catch-up, but a silent leader legitimately stalls its own
     instance, so only delay and replay are on the menu;
   - Steward's site representatives are single points of coordination:
     only non-representatives may misbehave. *)
let adversary_profile (p : proto) (cfg : Config.t) : Adversary.caps =
  let everyone _ = true in
  let open Interpose in
  match p with
  | Geobft ->
      { Adversary.corruptible = everyone;
        silence = [ Some Share; Some Vote; None ];
        equivocate = true;
        delay = [ None; Some Share ];
        max_delay_ms = 800;
        stale = [ Share ];
        replay = [ Share; Vote ];
        deaf = [ Share ] }
  | Pbft ->
      { Adversary.corruptible = everyone;
        silence = [ Some Vote; None ];
        equivocate = true;
        delay = [ None; Some Vote ];
        max_delay_ms = 800;
        stale = [ Vote ];
        replay = [ Vote; Proposal ];
        deaf = [ Vote ] }
  | Zyzzyva ->
      { Adversary.corruptible = (fun v -> v <> 0);
        silence = [ Some Vote ];
        equivocate = false;
        delay = [ None ];
        max_delay_ms = 800;
        stale = [];
        replay = [ Vote; Sync ];
        deaf = [] }
  | Hotstuff ->
      { Adversary.corruptible = everyone;
        silence = [];
        equivocate = false;
        delay = [ None ];
        max_delay_ms = 800;
        stale = [];
        replay = [ Vote; Share ];
        deaf = [] }
  | Steward ->
      { Adversary.corruptible = (fun v -> v mod cfg.Config.n <> 0);
        silence = [ Some Share; None ];
        equivocate = false;
        delay = [ None ];
        max_delay_ms = 800;
        stale = [];
        replay = [ Share ];
        deaf = [] }

(* One adversary runtime per deployment, compiled into the network's
   interposition hook.  Also carries the generic implementation of the
   chaos equivocation action: every replica of the target cluster is
   given a silence-of-shares rule toward the [skip] clusters — the
   cluster-wide install means a local view change cannot silently cure
   the fault; healing must come through Figure 7's remote view change
   or the lib/recovery round-fetch path once the window closes. *)
let adversary_runtime (type a m)
    (module D : Deployment.S with type t = a and type msg = m) (d : a)
    (cfg : Config.t) : m Adversary.Runtime.t =
  Adversary.Runtime.create ~view:D.adversary_view ~keychain:(D.keychain d)
    ~now:(fun () -> Engine.now (D.engine d))
    ~n:cfg.Config.n
    ~install:(fun h -> D.set_interposer d h)

(* The chaos surface over a deployment, its equivocation going through
   the deployment's adversary runtime [rt]. *)
let surface (type a m) (module D : Deployment.S with type t = a and type msg = m) (d : a)
    (rt : m Adversary.Runtime.t) (p : proto) (cfg : Config.t) : Chaos.surface =
  let caps, agreement, _ = chaos_profile p cfg in
  let equiv_name cluster = "chaos-equiv-" ^ string_of_int cluster in
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
      (fun ~cluster ~skip ->
        Adversary.Runtime.set rt ~name:(equiv_name cluster)
          (List.init cfg.Config.n (fun i ->
               Adversary.always
                 ~actor:((cluster * cfg.Config.n) + i)
                 (Adversary.Silence
                    { cls = Some Interpose.Share; dst = Adversary.Clusters skip }))));
    stop_equivocate = (fun ~cluster -> Adversary.Runtime.clear rt ~name:(equiv_name cluster));
    ledger = (fun r -> D.ledger d ~replica:r);
    now = (fun () -> Engine.now (D.engine d));
    at = (fun time k -> D.at d ~time k);
  }

let chaos_surface (type a) (module D : Deployment.S with type t = a) (d : a) p cfg =
  surface (module D) d (adversary_runtime (module D) d cfg) p cfg

(* A negative chaos seed stands for the config's seed. *)
let chaos_seed (cfg : Config.t) seed = if seed >= 0 then seed else cfg.Config.seed

(* -- fault timelines ------------------------------------------------------ *)

(* Every scenario fault as a timeline of fault windows, without a
   deployment.  The §4.3 faults are crash windows that close 1 s after
   the horizon, so their recovery never runs (a recovery at the horizon
   itself would, and would add its messages to the report).  A chaos
   timeline is drawn from a stream split off a fresh RNG seeded like the
   engine's root stream, which building a deployment never advances, so
   the simulation consumes exactly the stream it would without chaos. *)
let timeline (s : Scenario.t) : Chaos.timeline =
  let { Scenario.proto = p; cfg; fault; windows; _ } = s in
  let horizon = Time.add windows.warmup windows.measure in
  let crash ?(at = Time.zero) ~cluster index =
    let v = Config.replica_id cfg ~cluster ~index in
    { Chaos.at; until = Time.add horizon (Time.sec 1); action = Chaos.Crash v }
  in
  match fault with
  | No_fault -> []
  | One_nonprimary -> [ crash ~cluster:0 (cfg.Config.n - 1) ]
  | F_nonprimary ->
      List.concat
        (List.init cfg.Config.z (fun cluster ->
             List.init (Config.f cfg) (fun i -> crash ~cluster (cfg.Config.n - 1 - i))))
  | Primary_failure -> [ crash ~at:(Time.add windows.warmup (Time.sec 2)) ~cluster:0 0 ]
  | Chaos seed ->
      let seed = chaos_seed cfg seed in
      let caps, _, liveness_window_ms = chaos_profile p cfg in
      let rng =
        Rng.split (Rng.create (Int64.of_int cfg.Config.seed)) ~index:(0x0C7A05 + seed)
      in
      let tail_ms =
        Float.min (liveness_window_ms +. 1000.) (Time.to_ms_f horizon /. 2.)
      in
      Chaos.plan ~rng ~z:cfg.Config.z ~n:cfg.Config.n ~f:(Config.f cfg) ~caps
        (Chaos.default_plan ~horizon ~tail:(Time.of_ms_f tail_ms))

(* What the schedule-exploration checker (lib/check) gets to see of a
   deployment it is about to run: the chaos-monitor surface (ledgers,
   clock, scheduling), the engine and network hook installers, and the
   protocol's liveness envelope. *)
type instrument = {
  inst_surface : Chaos.surface;
  inst_engine : Engine.t;
  inst_set_delivery_hook : Rdb_sim.Network.delivery_hook option -> unit;
  inst_liveness_window_ms : float;
}

(* The scenario-first entry point, shared by the figures and the
   searches.  [tracer] (an externally owned tracer, e.g. the CLI's
   keep_events one for Chrome JSON output) overrides the scenario's
   [trace] flag; otherwise [trace = true] creates a summary-only tracer
   so the report carries the per-phase breakdown and the deterministic
   digest.  [install] receives the deployment's instrument record after
   construction and before the first simulated event. *)
let run ?tracer ?install (s : Scenario.t) : Report.t =
  let tracer =
    match tracer with
    | Some _ as t -> t
    | None -> if s.Scenario.trace then Some (Rdb_trace.Trace.create ()) else None
  in
  let { Scenario.proto = p; cfg; fault; windows; attack; trace = _ } = s in
  let (module D) = deployment p in
  (* Experiments sweep many large deployments: keep ledgers compact,
     and shrink the YCSB table past 128 replicas.  The cap dates from
     when every replica held its own record array; the replicas of a
     memory deployment now share one image, so it no longer bounds
     memory, but every scale row's report is pinned at the capped
     count.  The record count is a pure function of the config, so
     reports stay deterministic. *)
  let n_records =
    let nr = Config.n_replicas cfg in
    if nr <= 128 then Rdb_ycsb.Table.default_records
    else max 10_000 (Rdb_ycsb.Table.default_records * 128 / nr)
  in
  let d = D.create ?tracer ~n_records ~retain_payloads:false cfg in
  Fun.protect ~finally:(fun () -> D.close d) @@ fun () ->
  let rt = adversary_runtime (module D) d cfg in
  Option.iter (Adversary.Runtime.set_attack rt) attack;
  let surface = surface (module D) d rt p cfg in
  let _, _, liveness_window_ms = chaos_profile p cfg in
  Option.iter
    (fun install ->
      install
        {
          inst_surface = surface;
          inst_engine = D.engine d;
          inst_set_delivery_hook = (fun h -> D.set_delivery_hook d h);
          inst_liveness_window_ms = liveness_window_ms;
        })
    install;
  let timeline = timeline s in
  Chaos.install surface timeline;
  (* Only chaos arms the monitor: its sampling controls would cut the
     scripted faults' epochs and move their digests. *)
  match fault with
  | Chaos seed ->
      let mon = Chaos.monitor ~liveness_window_ms surface timeline in
      let report = D.run ~warmup:windows.warmup ~measure:windows.measure d in
      Chaos.check_now mon;
      (match Chaos.first_violation mon with
      | Some violation ->
          Chaos.fail ~protocol:(Scenario.proto_name p) ~seed:(chaos_seed cfg seed)
            ~timeline ~violation
      | None -> report)
  | _ -> D.run ~warmup:windows.warmup ~measure:windows.measure d

(* The fault timeline a chaos run with this seed would execute, without
   running it — lets tests (and curious users) verify event-for-event
   reproducibility cheaply. *)
let chaos_timeline (p : proto) ?(windows = Scenario.default_windows) ~seed
    (cfg : Config.t) : Chaos.timeline =
  timeline (Scenario.make ~windows ~fault:(Chaos seed) p cfg)
