(* DESIGN.md §15: the sharded engine's moving parts — pooled event
   records, tie-breaking at the defer offset, control barriers — and
   the headline contract: a domain-parallel run is byte-identical to
   the sequential run of the same scenario (report JSON and trace
   digest), across every protocol, under chaos and under attack. *)

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

(* -- sequential vs parallel byte-equality ------------------------------- *)

let small_cfg seed =
  Config.make ~z:3 ~n:4 ~batch_size:50 ~client_inflight:8 ~seed ()

let windows = { Scenario.warmup = Time.ms 500; measure = Time.ms 1500 }

let run_to_bytes ~jobs s =
  let tracer = Trace.create () in
  let r = Runner.run ~tracer ~jobs s in
  let digest =
    match r.Report.trace with
    | Some tr -> tr.Trace.digest_hex
    | None -> Alcotest.fail "run produced no trace summary"
  in
  (Report.to_json_string r, digest)

let check_equal name s =
  let json1, dig1 = run_to_bytes ~jobs:1 s in
  let json4, dig4 = run_to_bytes ~jobs:4 s in
  Alcotest.(check string) (name ^ ": trace digest") dig1 dig4;
  Alcotest.(check string) (name ^ ": report JSON") json1 json4

let sampled_attack proto cfg =
  let caps = Runner.adversary_profile proto cfg in
  let rng = Rng.create 77L in
  Adversary.sample ~rng ~caps ~z:cfg.Config.z ~n:cfg.Config.n ~f:(Config.f cfg)
    ~horizon_ms:2000 ~tail_ms:400 ()

let test_digest_equality proto () =
  let name = Runner.proto_name proto in
  (* Healthy run. *)
  check_equal (name ^ " healthy") (Scenario.make ~windows proto (small_cfg 1));
  (* Seeded chaos timeline (faults + liveness monitor). *)
  check_equal (name ^ " chaos")
    (Scenario.make ~windows ~fault:(Runner.Chaos 1) proto (small_cfg 2));
  (* Sampled Byzantine attack (interposer installed: the run drops to
     one domain internally — the jobs knob must still be a no-op). *)
  let cfg = small_cfg 3 in
  check_equal (name ^ " attack")
    (Scenario.make ~windows ~attack:(sampled_attack proto cfg) proto cfg)

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
  let digest_of ~jobs s = snd (run_to_bytes ~jobs s) in
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
    (digest_of ~jobs:1 (Scenario.make ~windows ~attack Scenario.Pbft cfg));
  (* A checker schedule editing both counters: engine deferrals and
     delivery-hook delay/swap edits. *)
  let edits =
    [ Perturb.Delay { nth = 40; extra = Time.ms 3 }; Perturb.Defer { nth = 120 };
      Perturb.Defer { nth = 500 }; Perturb.Swap { nth = 300 } ]
  in
  let r =
    Check.run_one (Scenario.make ~windows ~trace:true Scenario.Pbft cfg)
      ~hooks:(Perturb.replay edits) ~provoke:None
  in
  Alcotest.(check (list string)) "every edit landed" (List.map Perturb.to_string edits)
    (List.map Perturb.to_string r.Check.applied);
  Alcotest.(check (option string)) "check: defer + delivery hook"
    (Some "abc51ab6926827b15b88fe8ba1e5cc9060b11b891f9ae51bfd2c38d723095eac")
    r.Check.digest;
  (* Cross-shard staging with faults: three shards on two domains under
     a timeline with a partition, link loss, duplication and a severed
     link. *)
  let chaos_cfg = Config.make ~z:3 ~n:4 ~batch_size:20 ~client_inflight:4 ~seed:2 () in
  let chaos_windows = { Scenario.warmup = Time.ms 1000; measure = Time.ms 3000 } in
  Alcotest.(check string) "chaos z3 --jobs 2"
    "e2e7c27b8e5a09e9abff3784db3cfe43159afc9cbac8a9d9dec8edacd7ee1e17"
    (digest_of ~jobs:2
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
  catchup (Printf.sprintf "geobft %s w1000+3000 fault=chaos:3" base) ~st:7 ~holes:648 ~rtx:3
    "a59ebf1bfcd818bc8ee4836a20bb7583adbbdec245ce0078c492ef337aafac76";
  catchup (Printf.sprintf "hotstuff %s w1000+5000 fault=chaos:1" base) ~st:4 ~holes:160 ~rtx:11
    "ef618b5a8ba3bd099b17b74b09d400b23ecdcc481340d421f0a568c21bc4e589";
  catchup (Printf.sprintf "steward %s w1000+5000 fault=chaos:13" base) ~st:2 ~holes:112 ~rtx:2
    "f3f9b5159432929498cfd8bdfa48966f2eb7a966c8e08a94b464b33d49d05566";
  let rw = "z2 n4 b50 i16 seed1 w1000+3000 reads=0.5 scans=0.1" in
  reads ("pbft " ^ rw) "2b42eec5b0c3d7678c8722cd0a7e06e328ccce04aa696de8de4bdf3a29c23d26";
  reads ("steward " ^ rw) "194bcc24bf63cee44a5d8e55ea24da4226ba0613d7d3443e2e0f5534950d69e3"

(* -- pinned event count ----------------------------------------------------- *)

module PbftDep = Rdb_fabric.Deployment.Make (Rdb_pbft.Replica)

(* Events one short four-region pbft run executes, at --jobs 1 and 2.
   The count is a pure function of the event schedule, so any change
   that adds, removes or merges events fails here, not only in a
   perfbench row. *)
let test_pinned_executed_events () =
  let executed ~jobs =
    let cfg = Config.make ~z:4 ~n:7 ~batch_size:100 ~client_inflight:16 ~seed:1 () in
    let d = PbftDep.create ~n_records:10_000 ~retain_payloads:false cfg in
    ignore (PbftDep.run ~warmup:(Time.ms 200) ~measure:(Time.ms 300) ~jobs d);
    PbftDep.close d;
    Engine.executed_events (PbftDep.engine d)
  in
  Alcotest.(check int) "pbft z4 n7 --jobs 1" 475_907 (executed ~jobs:1);
  Alcotest.(check int) "pbft z4 n7 --jobs 2" 475_907 (executed ~jobs:2)

let suite =
  [
    ("event pool reuse", `Quick, test_pool_reuse);
    ("stale cancel is no-op", `Quick, test_stale_cancel_is_noop);
    ("cancel recycles record", `Quick, test_cancel_recycles);
    ("defer hook under pooling", `Quick, test_defer_hook_under_pooling);
    ("heap FIFO at defer offset", `Quick, test_heap_fifo_at_defer_offset);
    ("control barrier ordering", `Quick, test_control_ordering);
    ("seq=par: GeoBFT", `Slow, test_digest_equality Runner.Geobft);
    ("seq=par: Pbft", `Slow, test_digest_equality Runner.Pbft);
    ("seq=par: Zyzzyva", `Slow, test_digest_equality Runner.Zyzzyva);
    ("seq=par: HotStuff", `Slow, test_digest_equality Runner.Hotstuff);
    ("seq=par: Steward", `Slow, test_digest_equality Runner.Steward);
    ("pinned fault-path digests", `Slow, test_pinned_fault_digests);
    ("pinned recovery and read digests", `Slow, test_pinned_recovery_digests);
    ("pinned executed events", `Quick, test_pinned_executed_events);
  ]
