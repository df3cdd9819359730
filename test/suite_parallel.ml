(* DESIGN.md §15: the sharded engine's moving parts — pooled event
   records, tie-breaking at the defer offset, control barriers, the
   executing-shard lookup — and pinned bytes (report JSON and trace
   digest) of sharded runs across every protocol, under chaos and under
   attack. *)

module Engine = Rdb_sim.Engine
module Heap = Rdb_sim.Heap
module Time = Rdb_sim.Time
module Config = Rdb_types.Config
module Report = Rdb_fabric.Report
module Runner = Rdb_experiments.Runner
module Scenario = Rdb_experiments.Scenario
module Adversary = Rdb_adversary.Adversary
module Rng = Rdb_prng.Rng
module Trace = Rdb_trace.Trace

(* -- event pooling ------------------------------------------------------ *)

(* Executed records return to the freelist and are reused by later
   schedules: the steady-state scheduling path allocates no records. *)
let test_pool_reuse () =
  let e = Engine.create ~seed:1 () in
  for i = 1 to 3 do
    ignore (Engine.schedule_at e ~at:(Time.ms i) (fun () -> ()))
  done;
  Alcotest.(check int) "empty pool before first run" 0 (Engine.pooled_events e);
  Engine.run e;
  Alcotest.(check int) "all three records recycled" 3 (Engine.pooled_events e);
  ignore (Engine.schedule_at e ~at:(Time.ms 10) (fun () -> ()));
  ignore (Engine.schedule_at e ~at:(Time.ms 11) (fun () -> ()));
  Alcotest.(check int) "schedules draw from the pool" 1 (Engine.pooled_events e);
  Engine.run e;
  Alcotest.(check int) "records return again" 3 (Engine.pooled_events e)

(* Cancelling a timer whose record already fired — and was recycled
   into a *different* pending event — must not cancel the new event:
   the generation counter makes the stale handle a no-op. *)
let test_stale_cancel_is_noop () =
  let e = Engine.create ~seed:1 () in
  let fired_b = ref false in
  let ta = Engine.schedule_at e ~at:(Time.ms 1) (fun () -> ()) in
  Engine.run_until e ~until:(Time.ms 2);
  Alcotest.(check int) "record back in pool" 1 (Engine.pooled_events e);
  ignore (Engine.schedule_at e ~at:(Time.ms 3) (fun () -> fired_b := true));
  Alcotest.(check int) "reused the recycled record" 0 (Engine.pooled_events e);
  Engine.cancel ta;
  (* also: double-cancel of the stale handle stays harmless *)
  Engine.cancel ta;
  Engine.run_until e ~until:(Time.ms 4);
  Alcotest.(check bool) "stale cancel did not kill the new event" true !fired_b

(* Cancelling a pending event prevents execution and still recycles
   the record. *)
let test_cancel_recycles () =
  let e = Engine.create ~seed:1 () in
  let fired = ref false in
  let t1 = Engine.schedule_at e ~at:(Time.ms 1) (fun () -> fired := true) in
  Engine.cancel t1;
  Engine.run e;
  Alcotest.(check bool) "cancelled event never ran" false !fired;
  Alcotest.(check int) "cancelled record recycled" 1 (Engine.pooled_events e);
  Alcotest.(check int) "cancelled events do not count as executed" 0 (Engine.executed_events e)

(* The defer hook permutes equal-timestamp ties, and keeps doing so
   when the records involved are recycled pool records. *)
let test_defer_hook_under_pooling () =
  let e = Engine.create ~seed:1 () in
  (* Warm the pool so the deferred schedules reuse records. *)
  for i = 1 to 4 do
    ignore (Engine.schedule_at e ~at:(Time.ms i) (fun () -> ()))
  done;
  Engine.run e;
  Alcotest.(check int) "pool warmed" 4 (Engine.pooled_events e);
  let order = ref [] in
  let log tag () = order := tag :: !order in
  (* Defer the 0th schedule call behind its equal-timestamp group. *)
  Engine.set_defer_hook e (Some (fun n -> n = 0));
  ignore (Engine.schedule_at e ~at:(Time.ms 10) (log "a"));
  ignore (Engine.schedule_at e ~at:(Time.ms 10) (log "b"));
  ignore (Engine.schedule_at e ~at:(Time.ms 10) (log "c"));
  Alcotest.(check int) "hook observed all schedule calls" 3 (Engine.schedule_calls e);
  Engine.set_defer_hook e None;
  Engine.run e;
  Alcotest.(check (list string)) "deferred event runs behind its tie group" [ "b"; "c"; "a" ]
    (List.rev !order)

(* -- heap ordering ------------------------------------------------------ *)

(* FIFO stability at equal timestamps, including across the defer
   offset (deferred events sort behind every normally-sequenced event
   of the same timestamp while preserving their own relative order). *)
let test_heap_fifo_at_defer_offset () =
  let defer_offset = 1_000_000_000 in
  let h : string Heap.t = Heap.create () in
  Alcotest.(check int) "empty min_time" max_int (Heap.min_time h);
  Heap.push h ~time:5 ~seq:(defer_offset + 1) "d1";
  Heap.push h ~time:5 ~seq:1 "a";
  Heap.push h ~time:5 ~seq:(defer_offset + 2) "d2";
  Heap.push h ~time:5 ~seq:2 "b";
  Heap.push h ~time:4 ~seq:9 "early";
  Heap.push h ~time:5 ~seq:3 "c";
  Alcotest.(check int) "min_time sees the root" 4 (Heap.min_time h);
  let pop () =
    match Heap.pop h with Some { Heap.payload; _ } -> payload | None -> "<empty>"
  in
  Alcotest.(check (list string)) "time, then seq, with deferred behind"
    [ "early"; "a"; "b"; "c"; "d1"; "d2" ]
    (List.init 6 (fun _ -> pop ()))

(* -- control barriers --------------------------------------------------- *)

(* Controls run at exactly their scheduled time, before same-time
   ordinary events, with equal-time controls in scheduling order. *)
let test_control_ordering () =
  let e = Engine.create ~seed:1 ~shards:2 ~lookahead:(Time.ms 5) () in
  let order = ref [] in
  let log tag () = order := tag :: !order in
  ignore (Engine.schedule_at_shard e ~shard:0 ~at:(Time.ms 10) (log "ev0"));
  ignore (Engine.schedule_at_shard e ~shard:1 ~at:(Time.ms 10) (log "ev1"));
  Engine.schedule_control e ~at:(Time.ms 10) (log "ctl-a");
  Engine.schedule_control e ~at:(Time.ms 10) (log "ctl-b");
  Engine.schedule_control e ~at:(Time.ms 1) (log "ctl-early");
  Engine.run_until e ~until:(Time.ms 20);
  Alcotest.(check (list string)) "controls at barriers, before same-time events"
    [ "ctl-early"; "ctl-a"; "ctl-b"; "ev0"; "ev1" ]
    (List.rev !order);
  Alcotest.(check (float 0.0001)) "clock advanced to until" 20.0
    (Time.to_ms_f (Engine.now e))

(* -- executing-shard lookup ------------------------------------------------ *)

(* Inside an event, [now], [rng] and [current_shard_id] resolve to the
   shard executing it; in a control action, after [run_until] and
   before the first run they resolve to the global clock, the root RNG
   and shard 0, where [schedule_at] also lands. *)
let test_executing_shard () =
  let e = Engine.create ~seed:1 ~shards:3 ~lookahead:(Time.ms 5) () in
  let root = Engine.rng e in
  for sh = 0 to 2 do
    Alcotest.(check bool) (Printf.sprintf "shard %d has its own stream" sh) false
      (Engine.rng_of_shard e ~shard:sh == root)
  done;
  let seen = ref [] in
  let observe tag () =
    seen :=
      (tag, Engine.current_shard_id e, Time.to_ms_f (Engine.now e), Engine.rng e) :: !seen
  in
  observe "before" ();
  (* Same epoch, different clocks: shard 1 runs at 3 ms while shard 2
     is still at 1 ms and the global clock at 0. *)
  ignore (Engine.schedule_at_shard e ~shard:1 ~at:(Time.ms 3) (observe "ev1"));
  ignore (Engine.schedule_at_shard e ~shard:2 ~at:(Time.ms 1) (observe "ev2"));
  ignore (Engine.schedule_at e ~at:(Time.ms 2) (observe "outside"));
  Engine.schedule_control e ~at:(Time.ms 8) (fun () ->
      observe "control" ();
      ignore (Engine.schedule_at e ~at:(Time.ms 9) (observe "from-control")));
  Engine.run_until e ~until:(Time.ms 20);
  observe "after" ();
  let expect tag sh ms rng =
    match List.find_opt (fun (t, _, _, _) -> t = tag) !seen with
    | None -> Alcotest.failf "%s never ran" tag
    | Some (_, sh', ms', rng') ->
        Alcotest.(check int) (tag ^ ": shard") sh sh';
        Alcotest.(check (float 1e-9)) (tag ^ ": clock") ms ms';
        Alcotest.(check bool) (tag ^ ": rng") true (rng' == rng)
  in
  let shard_rng sh = Engine.rng_of_shard e ~shard:sh in
  expect "before" 0 0.0 root;
  expect "ev1" 1 3.0 (shard_rng 1);
  expect "ev2" 2 1.0 (shard_rng 2);
  expect "outside" 0 2.0 (shard_rng 0);
  expect "control" 0 8.0 root;
  expect "from-control" 0 9.0 (shard_rng 0);
  expect "after" 0 20.0 root

(* -- pinned bytes of sharded runs ----------------------------------------- *)

let small_cfg seed =
  Config.make ~z:3 ~n:4 ~batch_size:50 ~client_inflight:8 ~seed ()

let windows = { Scenario.warmup = Time.ms 500; measure = Time.ms 1500 }

(* Trace digest and SHA-256 of the report JSON of one traced run. *)
let run_to_bytes s =
  let tracer = Trace.create () in
  let r = Runner.run ~tracer s in
  let digest =
    match r.Report.trace with
    | Some tr -> tr.Trace.digest_hex
    | None -> Alcotest.fail "run produced no trace summary"
  in
  (digest, Rdb_crypto.Sha256.digest_hex (Report.to_json_string r))

let sampled_attack proto cfg =
  let caps = Runner.adversary_profile proto cfg in
  let rng = Rng.create 77L in
  Adversary.sample ~rng ~caps ~z:cfg.Config.z ~n:cfg.Config.n ~f:(Config.f cfg)
    ~horizon_ms:2000 ~tail_ms:400 ()

(* Three-shard runs of every protocol: healthy (seed 1), under a seeded
   chaos timeline (seed 2), under a sampled Byzantine attack (seed 3)
   and with half the batches point reads and a tenth range scans (seed
   4: the consensus-bypass read path, where the protocol has one).
   Each pins its trace digest and report-JSON hash, so any change to
   the epoch schedule, the outbox drain, a shard's RNG stream or the
   client agent's routing moves one of them.  The first three are the
   bytes the sequential and the domain-parallel executor both produced
   when the engine had two ("seq=par"); the one remaining executor must
   still reproduce them. *)
let pinned_runs =
  [
    (Runner.Geobft, `Healthy,
     "0980f44a3a1393e131f6ac6c2b882f9c0426c768dca0497fc8a790a5f7e6c92f",
     "71d90472cebed504377702f61642e55ff0a83eac4296580ee49bb1c32f9304c5");
    (Runner.Geobft, `Chaos,
     "5dda807356ae71fbd264f1c960bbd690d9bed201dcc905176c28105df518b8c8",
     "ea25399af60eeaf3949e6ab71f312deca47d8a79f4b96697d30f91ed483d4cbc");
    (Runner.Geobft, `Attack,
     "7b6cfb72896ce90ac1b6f36aa52f2cb0268cdc3ddeefe42363e6f31a7baba33e",
     "a121dfb387c868d5577dca3a5e67179e2a2d6e9b5b03beb5ddbe40bafb7b793a");
    (Runner.Geobft, `Reads,
     "0925f0059cde84a50bc22917563667ec7aeb054ef604b8383bd1258e893d570b",
     "7957c13c5f3f9797353592d4ef71e48346a26d8fdc742993e13659cf8087677e");
    (Runner.Pbft, `Healthy,
     "125fc3e28596c531314ab1b196d48f81eba4f2043e7d4f57492be07391920dc4",
     "f64738499a0645960fcb485ce46c8e3a852624fc75be233ba44922f4a3a38aca");
    (Runner.Pbft, `Chaos,
     "8e29d660b4cde1bf51f7ef12797faa83954a044360456b9ee7e7d1b5e996e161",
     "2d86684acbccdee421264982de3dcd45062dc60efc7089f71192690f8aeb3c12");
    (Runner.Pbft, `Attack,
     "e3c0b4578c563a5a886901cc07dad9509f20312c06ce010d47a49ac0cc4c8f34",
     "4e1bec51b454f7d37181d5267cf3ac30e1b69b635148f71521af6162e39f2b59");
    (Runner.Pbft, `Reads,
     "758723513136db759908f4fc9ebda81709148ec6032f13a92836d58d6cb034e8",
     "ce3ab6936dc0d9d50e5825223d7ac35e845f5bb554292da7e06991c114c6d4fc");
    (Runner.Zyzzyva, `Healthy,
     "3ed60ae869181f8bdc6f5b7338c9b8ec34b4174352a3b2606ac66fc5ea945616",
     "c33232c2a91be91bedde34b0df3ca7657b2647429e66a2f8973bb026dc2fcec1");
    (Runner.Zyzzyva, `Chaos,
     "660cb0038d02a3b35013f2826c61f08dcaae5f17eac380b20817f1d106827c50",
     "69d332e6e320e6c0825d61e132bb35fddbe13923c8e335f96c1f8881e2652ca1");
    (Runner.Zyzzyva, `Attack,
     "4658e5dbad6d13ae1b2144c2ca94f4c3fb3c88ebdb0c445b52de3f612bb2911b",
     "38466768e815052026f9b07f4d742c5c9692871acc885a644fae8eddfb232f43");
    (Runner.Zyzzyva, `Reads,
     "8a847540266132b41ce6ad2f5bf297e792547dad6ee2870be7d5543e02fe0e8c",
     "aa8fdaf6ef2ea9c9d128840c4e7b49923af9ed057a9acebeed723babb1c8e6b2");
    (Runner.Hotstuff, `Healthy,
     "a90424a8a0aa3621f57ee571e732adf18605b4e4da4f7bacc9add948c70b74da",
     "8f711647dce144ce69a8232ea1fb9adbe1df94680cdadf118a5128e3df874c27");
    (Runner.Hotstuff, `Chaos,
     "e8f126452fead44c3139c4f15a6c1ae0493b3216bd735cd9b1b154e6c214cadd",
     "11d2be837c1806de7d1ae32bcb548f0d480037464235d4ba98e09f810ea835e7");
    (Runner.Hotstuff, `Attack,
     "94ef2dc53c3929d37759386852f9f77cdd569fcc78a53a1b562b62d0cd363b63",
     "ad43ab28a975d10074fa2b76225047ab9dbfb119f8233a49b6af1bb1dfd309d2");
    (Runner.Hotstuff, `Reads,
     "212904d2078886675c3c4859c1b3c343b85eb8f87d98b39a98b10b676f508d2a",
     "4caf41df3ce7e54cac871d21a5363d33f9c01f346bb9d9834a6c00e854358167");
    (Runner.Steward, `Healthy,
     "a549ddf2bcdcbab522e760e9366c564855c1a7a98ad9d571e2e259ef5507e9ca",
     "0b66a81a11f0d1c383a32b35353515cef266cbeab7a1ac0775c09950fa0c5590");
    (Runner.Steward, `Chaos,
     "c3b26dbeb268fc1ff7293bffeb6206fd6c1139d958b1332ef54c561c16544ce7",
     "5ec6c0bcbb469cbb9c20d6a947736654793915ec68725fa39077c0c5c3ff5d33");
    (Runner.Steward, `Attack,
     "4096f437f4ccc0ea2a6a9148ddd24d015019273a408969a76e1a553b6cd81733",
     "92caa14c9066c6288e2e6330aedb2b36cb168fd46eefd4a06e95532b8fc6ab62");
    (Runner.Steward, `Reads,
     "6d6686a91cb9ee1d0628866d3d595f1b56f28338e88f25122dbd88745fdd5936",
     "377c472b0288d304c03d0c4d6a67b3c4340e80e758b3b3dd46d29ef9fc877444");
  ]

let test_pinned_protocol_digests proto () =
  let runs = List.filter (fun (p, _, _, _) -> p = proto) pinned_runs in
  Alcotest.(check int) "healthy, chaos, attack and reads runs" 4 (List.length runs);
  List.iter
    (fun (_, kind, digest, report) ->
      let s =
        match kind with
        | `Healthy -> Scenario.make ~windows proto (small_cfg 1)
        | `Chaos -> Scenario.make ~windows ~fault:(Runner.Chaos 1) proto (small_cfg 2)
        | `Attack ->
            let cfg = small_cfg 3 in
            Scenario.make ~windows ~attack:(sampled_attack proto cfg) proto cfg
        | `Reads ->
            Scenario.make ~windows proto
              { (small_cfg 4) with Config.read_fraction = 0.5; scan_fraction = 0.1 }
      in
      let name =
        Scenario.proto_name proto
        ^
        match kind with
        | `Healthy -> " healthy"
        | `Chaos -> " chaos"
        | `Attack -> " attack"
        | `Reads -> " reads"
      in
      let d, h = run_to_bytes s in
      Alcotest.(check string) (name ^ ": trace digest") digest d;
      Alcotest.(check string) (name ^ ": report JSON hash") report h)
    runs

(* -- pinned fault-path digests -------------------------------------------- *)

(* Trace digests of three runs whose messages take the faulted branches
   of the network's send path, pinned to the values the simulator
   produced before that path was merged into the pooled fan-out.  Any
   change to how a faulted send is admitted, delayed, duplicated or
   sequenced moves one of them. *)
let test_pinned_fault_digests () =
  let module A = Adversary in
  let module Check = Rdb_check.Check in
  let module Perturb = Rdb_check.Perturb in
  let digest_of s = fst (run_to_bytes s) in
  let cfg = Config.make ~z:2 ~n:4 ~batch_size:20 ~client_inflight:8 ~seed:1 () in
  let windows = { Scenario.warmup = Time.ms 500; measure = Time.ms 1000 } in
  (* Interposed emissions: a delayed sender (held emissions re-admitted
     later) and a replaying primary (two emissions per send). *)
  let attack =
    {
      A.Attack.rules =
        [
          { A.actor = 4; prim = A.Delay { cls = None; dst = A.Everyone; ms = 7 };
            from_ms = 600; until_ms = 1400 };
          { A.actor = 0; prim = A.Replay { cls = Rdb_types.Interpose.Proposal; every = 2 };
            from_ms = 600; until_ms = 1400 };
        ];
    }
  in
  Alcotest.(check string) "attack: delay + replay"
    "31a8ebf6d4086577c4b4d1002e71a5db8bb051af4e6e71878b046b0b3bfcb070"
    (digest_of (Scenario.make ~windows ~attack Scenario.Pbft cfg));
  (* A checker schedule editing both counters: engine deferrals and
     delivery-hook delay/swap edits, on the sharded engine the figures
     run. *)
  let edits =
    [ Perturb.Delay { nth = 40; extra = Time.ms 3 }; Perturb.Defer { nth = 120 };
      Perturb.Defer { nth = 500 }; Perturb.Swap { nth = 300 } ]
  in
  let r =
    Check.run_one (Scenario.make ~windows ~trace:true Scenario.Pbft cfg)
      ~hooks:(Perturb.replay edits)
  in
  Alcotest.(check (list string)) "every edit landed" (List.map Perturb.to_string edits)
    (List.map Perturb.to_string r.Check.applied);
  Alcotest.(check (option string)) "check: defer + delivery hook"
    (Some "2005b7d4f6ae4984e4e5c6dcb4e8210d517afddedbf633c6a02f834914345b92")
    r.Check.digest;
  (* Cross-shard staging with faults: three shards under a timeline
     with a partition, link loss, duplication and a severed link. *)
  let chaos_cfg = Config.make ~z:3 ~n:4 ~batch_size:20 ~client_inflight:4 ~seed:2 () in
  let chaos_windows = { Scenario.warmup = Time.ms 1000; measure = Time.ms 3000 } in
  Alcotest.(check string) "chaos z3"
    "b9fade1a44e0b317d1be64f19faf739c5e8b43a422a11eb6b9dfa0cc8f53405a"
    (digest_of
       (Scenario.make ~windows:chaos_windows ~fault:(Runner.Chaos 8) Scenario.Geobft chaos_cfg))

(* -- pinned recovery and read-bypass digests ------------------------------ *)

(* Trace digests and recovery counters of the catch-up path of every
   protocol with a recovery task, and of the consensus-bypass read
   server of pbft and steward.  The counters must be non-zero (and the
   read runs must complete reads) so each pin keeps covering the path
   it names; any change to when a replica fetches, installs or answers
   a read moves one of them. *)
let test_pinned_recovery_digests () =
  let run id =
    match Scenario.of_string id with
    | None -> Alcotest.failf "bad scenario id %S" id
    | Some s ->
        let tracer = Trace.create () in
        let r = Runner.run ~tracer s in
        let digest =
          match r.Report.trace with
          | Some tr -> tr.Trace.digest_hex
          | None -> Alcotest.fail "run produced no trace summary"
        in
        (r, digest)
  in
  let catchup id ~st ~holes ~rtx digest =
    let r, d = run id in
    Alcotest.(check string) (id ^ ": trace digest") digest d;
    Alcotest.(check (list int)) (id ^ ": recovery counters") [ st; holes; rtx ]
      [ r.Report.state_transfers; r.Report.holes_filled; r.Report.retransmissions ];
    Alcotest.(check bool) (id ^ ": counters cover the path") true (st > 0 && holes > 0 && rtx > 0)
  in
  let reads id digest =
    let r, d = run id in
    Alcotest.(check string) (id ^ ": trace digest") digest d;
    Alcotest.(check bool) (id ^ ": bypass reads completed") true (r.Report.read_txns > 0)
  in
  let base = "z2 n4 b20 i8 seed1" in
  catchup (Printf.sprintf "pbft %s w1000+3000 fault=chaos:6" base) ~st:5 ~holes:188 ~rtx:3
    "bafb8690e572e37a0ed5b4050f9e3871d944bff25da24522cc81061ae2185e81";
  catchup (Printf.sprintf "geobft %s w1000+3000 fault=chaos:3" base) ~st:37 ~holes:3386 ~rtx:8
    "5059ac4377e2df2fca03c7ffa546ea60ca943d63d180956da28a500781a67da9";
  catchup (Printf.sprintf "hotstuff %s w1000+5000 fault=chaos:1" base) ~st:4 ~holes:160 ~rtx:11
    "ef618b5a8ba3bd099b17b74b09d400b23ecdcc481340d421f0a568c21bc4e589";
  catchup (Printf.sprintf "steward %s w1000+5000 fault=chaos:13" base) ~st:2 ~holes:112 ~rtx:2
    "f3f9b5159432929498cfd8bdfa48966f2eb7a966c8e08a94b464b33d49d05566";
  let rw = "z2 n4 b50 i16 seed1 w1000+3000 reads=0.5 scans=0.1" in
  reads ("pbft " ^ rw) "2b42eec5b0c3d7678c8722cd0a7e06e328ccce04aa696de8de4bdf3a29c23d26";
  reads ("steward " ^ rw) "194bcc24bf63cee44a5d8e55ea24da4226ba0613d7d3443e2e0f5534950d69e3"

(* -- pinned event count ----------------------------------------------------- *)

module PbftDep = Rdb_fabric.Deployment.Make (Rdb_pbft.Replica)

(* Events one short four-region pbft run executes.  The count is a pure
   function of the event schedule, so any change that adds, removes or
   merges events fails here, not only in a perfbench row.  A run
   executes on one domain, so [run] rejects any [jobs] but 1. *)
let test_pinned_executed_events () =
  let cfg = Config.make ~z:4 ~n:7 ~batch_size:100 ~client_inflight:16 ~seed:1 () in
  let d = PbftDep.create ~n_records:10_000 ~retain_payloads:false cfg in
  Alcotest.check_raises "jobs 2 rejected"
    (Invalid_argument "Deployment.run: runs execute on one domain; jobs must be 1") (fun () ->
      ignore (PbftDep.run ~jobs:2 d));
  ignore (PbftDep.run ~warmup:(Time.ms 200) ~measure:(Time.ms 300) d);
  PbftDep.close d;
  Alcotest.(check int) "pbft z4 n7" 475_907 (Engine.executed_events (PbftDep.engine d))

(* -- a deferred cross-shard landing ------------------------------------------ *)

(* The checker's Defer edit reaches an entry the epoch barrier lands
   on another shard: schedule call 96214 is a WAN delivery landed at
   1.315002656 s beside a same-time peer (the landing at call 96216),
   so deferring it swaps their order and moves the digest off the
   unperturbed run's.  Were landings numbered outside the Defer counter,
   call 96214 would name another event and this pin would move. *)
let test_deferred_landing () =
  let module Check = Rdb_check.Check in
  let module Perturb = Rdb_check.Perturb in
  let cfg = Config.make ~z:2 ~n:4 ~batch_size:20 ~client_inflight:8 ~seed:1 () in
  let windows = { Scenario.warmup = Time.ms 500; measure = Time.ms 1000 } in
  let run edits =
    Check.run_one (Scenario.make ~windows ~trace:true Scenario.Pbft cfg)
      ~hooks:(Perturb.replay edits)
  in
  let unperturbed = "7f06acf61d95fad195841a0a0f3f3f7fdca3f73832ca95f23f5756a50a37c5ae" in
  Alcotest.(check (option string)) "unperturbed" (Some unperturbed) (run []).Check.digest;
  let edit = Perturb.Defer { nth = 96214 } in
  let r = run [ edit ] in
  Alcotest.(check (list string)) "the edit landed" [ Perturb.to_string edit ]
    (List.map Perturb.to_string r.Check.applied);
  Alcotest.(check (option string)) "deferred landing"
    (Some "5106e9ef3d5bd1925bb9bee6928c4eacdc61405ee0cac67e25251daf50d05b1a")
    r.Check.digest

let suite =
  [
    ("event pool reuse", `Quick, test_pool_reuse);
    ("stale cancel is no-op", `Quick, test_stale_cancel_is_noop);
    ("cancel recycles record", `Quick, test_cancel_recycles);
    ("defer hook under pooling", `Quick, test_defer_hook_under_pooling);
    ("heap FIFO at defer offset", `Quick, test_heap_fifo_at_defer_offset);
    ("control barrier ordering", `Quick, test_control_ordering);
    ("seq=par: GeoBFT", `Slow, test_pinned_protocol_digests Runner.Geobft);
    ("seq=par: Pbft", `Slow, test_pinned_protocol_digests Runner.Pbft);
    ("seq=par: Zyzzyva", `Slow, test_pinned_protocol_digests Runner.Zyzzyva);
    ("seq=par: HotStuff", `Slow, test_pinned_protocol_digests Runner.Hotstuff);
    ("seq=par: Steward", `Slow, test_pinned_protocol_digests Runner.Steward);
    ("pinned fault-path digests", `Slow, test_pinned_fault_digests);
    ("pinned recovery and read digests", `Slow, test_pinned_recovery_digests);
    ("pinned executed events", `Quick, test_pinned_executed_events);
    ("executing shard lookup", `Quick, test_executing_shard);
    ("deferred cross-shard landing", `Slow, test_deferred_landing);
  ]
