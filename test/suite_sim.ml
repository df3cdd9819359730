(* Discrete-event simulator tests: event heap ordering, engine
   semantics (determinism, cancellation, horizons), the Table-1
   topology, the network model (latency, bandwidth queueing, FIFO,
   faults) and the pipelined CPU model. *)

open Rdb_sim

(* -- Heap --------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Heap.create () in
  let seq = ref 0 in
  List.iter
    (fun t ->
      incr seq;
      Heap.push h ~time:t ~seq:!seq t)
    [ 5; 3; 9; 1; 7; 3; 0; 8 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some e ->
        out := e.Heap.payload :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted pop" [ 0; 1; 3; 3; 5; 7; 8; 9 ] (List.rev !out)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 1 to 100 do
    Heap.push h ~time:42 ~seq:i i
  done;
  let prev = ref 0 in
  let rec drain () =
    match Heap.pop h with
    | Some e ->
        Alcotest.(check bool) "insertion order on ties" true (e.Heap.payload = !prev + 1);
        prev := e.Heap.payload;
        drain ()
    | None -> ()
  in
  drain ()

(* The schedule-exploration checker's tie-break perturbations assume
   equal-timestamp events pop in push order (the (time, seq) key makes
   insertion order the tie-break).  Pin that FIFO guarantee through
   array growth and interleaved pops, where an unstable heap would
   scramble it. *)
let test_heap_fifo_stress () =
  let h = Heap.create () in
  let popped = ref [] in
  let next = ref 0 in
  let push_batch time count =
    for _ = 1 to count do
      incr next;
      Heap.push h ~time ~seq:!next (time, !next)
    done
  in
  let pop_phase count =
    (* Each contiguous drain must come out time-sorted. *)
    let last = ref min_int in
    for _ = 1 to count do
      match Heap.pop h with
      | Some e ->
          let t, _ = e.Heap.payload in
          Alcotest.(check bool) "time nondecreasing within a drain" true (t >= !last);
          last := t;
          popped := e.Heap.payload :: !popped
      | None -> Alcotest.fail "heap empty too early"
    done
  in
  (* Three equal-time cohorts interleaved with pops; cohort sizes push
     the backing array through its 64-entry initial capacity twice. *)
  push_batch 10 70;
  pop_phase 30;
  push_batch 10 100;
  push_batch 5 40;
  pop_phase 120;
  push_batch 10 50;
  pop_phase (Heap.length h);
  Alcotest.(check bool) "drained" true (Heap.is_empty h);
  (* Within each timestamp, pops must follow push order exactly — the
     FIFO stability the simulation's determinism rests on. *)
  let last_seq : (int, int) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (t, s) ->
      (match Hashtbl.find_opt last_seq t with
      | Some prev ->
          Alcotest.(check bool)
            (Printf.sprintf "FIFO within t=%d: %d after %d" t s prev)
            true (s > prev)
      | None -> ());
      Hashtbl.replace last_seq t s)
    (List.rev !popped)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap always pops in nondecreasing time order" ~count:100
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Heap.create () in
      List.iteri (fun i t -> Heap.push h ~time:t ~seq:i t) times;
      let rec drain last =
        match Heap.pop h with
        | None -> true
        | Some e -> e.Heap.payload >= last && drain e.Heap.payload
      in
      drain min_int)

(* -- Engine --------------------------------------------------------------- *)

let test_engine_ordering_and_time () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule_after e ~delay:(Time.ms 10) (fun () -> log := (10, Engine.now e) :: !log));
  ignore (Engine.schedule_after e ~delay:(Time.ms 5) (fun () -> log := (5, Engine.now e) :: !log));
  ignore (Engine.schedule_after e ~delay:(Time.ms 20) (fun () -> log := (20, Engine.now e) :: !log));
  Engine.run e;
  match List.rev !log with
  | [ (5, t5); (10, t10); (20, t20) ] ->
      Alcotest.(check int) "t5" (Time.ms 5) t5;
      Alcotest.(check int) "t10" (Time.ms 10) t10;
      Alcotest.(check int) "t20" (Time.ms 20) t20
  | _ -> Alcotest.fail "wrong event order"

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_after e ~delay:(Time.ms 1) (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "cancelled timer does not fire" false !fired

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule_after e ~delay:(Time.ms 10) tick)
  in
  ignore (Engine.schedule_after e ~delay:(Time.ms 10) tick);
  Engine.run_until e ~until:(Time.ms 105);
  Alcotest.(check int) "10 ticks in 105ms" 10 !count;
  Alcotest.(check int) "clock at horizon" (Time.ms 105) (Engine.now e);
  Engine.run_until e ~until:(Time.ms 205);
  Alcotest.(check int) "20 ticks in 205ms" 20 !count

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let order = ref [] in
  ignore
    (Engine.schedule_after e ~delay:(Time.ms 1) (fun () ->
         order := "a" :: !order;
         (* Schedule in the past: must still run, at current time. *)
         ignore (Engine.schedule_at e ~at:Time.zero (fun () -> order := "b" :: !order))));
  Engine.run e;
  Alcotest.(check (list string)) "causal order" [ "a"; "b" ] (List.rev !order)

(* -- Topology --------------------------------------------------------------- *)

let test_topology_table1 () =
  let t = Topology.clustered ~z:6 ~n:2 in
  Alcotest.(check int) "nodes" (12 + 6) (Topology.n_nodes t);
  (* Oregon <-> Sydney RTT from Table 1. *)
  Alcotest.(check (float 0.01)) "O-S rtt" 161.0 (Topology.rtt_ms t ~a:0 ~b:10);
  Alcotest.(check (float 0.01)) "symmetric" 161.0 (Topology.rtt_ms t ~a:10 ~b:0);
  Alcotest.(check (float 0.01)) "intra" 0.5 (Topology.rtt_ms t ~a:0 ~b:1);
  Alcotest.(check (float 0.01)) "B-T bw" 79.0 (Topology.bw_mbps t ~a:6 ~b:8);
  Alcotest.(check bool) "same region" true (Topology.same_region t 0 1);
  Alcotest.(check bool) "diff region" false (Topology.same_region t 0 2);
  (* Client node of cluster 3 lives in region 3. *)
  Alcotest.(check int) "client region" 3 (Topology.region_of t (12 + 3))

let test_topology_validation () =
  Alcotest.check_raises "n_regions < 1 rejected"
    (Invalid_argument "Topology.of_paper: n_regions must be >= 1") (fun () ->
      ignore (Topology.of_paper ~n_regions:0 ~node_region:[||]));
  Alcotest.check_raises "node region out of range rejected"
    (Invalid_argument "Topology.of_paper: node region out of range") (fun () ->
      ignore (Topology.of_paper ~n_regions:2 ~node_region:[| 0; 2 |]));
  (* z > 6 now tiles the Table 1 matrix (DESIGN.md §17) instead of
     being rejected — suite_scale.ml covers the tiled numbers. *)
  let t = Topology.of_paper ~n_regions:7 ~node_region:[| 0; 6 |] in
  Alcotest.(check int) "tiled regions accepted" 7 (Topology.n_regions t)

(* -- Network ------------------------------------------------------------------ *)

type probe = { mutable arrivals : (int * int * Time.t) list }

let mk_net ?(jitter = 0.) ~z ~n () =
  let engine = Engine.create () in
  let topo = Topology.clustered ~z ~n in
  let p = { arrivals = [] } in
  let net =
    Network.create ~engine ~topo ~jitter_ms:jitter
      ~deliver:(fun ~src ~dst _msg -> p.arrivals <- (src, dst, Engine.now engine) :: p.arrivals)
      ()
  in
  (engine, net, p)

let test_network_latency () =
  let engine, net, p = mk_net ~z:2 ~n:1 () in
  (* Oregon (node 0) -> Iowa (node 1): one-way = 19 ms + transmission. *)
  Network.send net ~src:0 ~dst:1 ~size:250 ();
  Engine.run engine;
  match p.arrivals with
  | [ (0, 1, t) ] ->
      let ms = Time.to_ms_f t in
      Alcotest.(check bool) (Printf.sprintf "arrival ~19ms (got %.3f)" ms) true
        (ms >= 19.0 && ms < 19.2)
  | _ -> Alcotest.fail "expected one arrival"

let test_network_bandwidth_queueing () =
  let engine, net, p = mk_net ~z:2 ~n:1 () in
  (* Two 1 MB messages Oregon -> Iowa share the 669 Mbit/s uplink: the
     second's arrival is one transmission time (~12 ms) after the
     first. *)
  Network.send net ~src:0 ~dst:1 ~size:1_000_000 ();
  Network.send net ~src:0 ~dst:1 ~size:1_000_000 ();
  Engine.run engine;
  match List.rev p.arrivals with
  | [ (_, _, t1); (_, _, t2) ] ->
      let tx_ms = 1_000_000. *. 8. /. 669. /. 1000. in
      let gap = Time.to_ms_f (Time.sub t2 t1) in
      Alcotest.(check bool)
        (Printf.sprintf "gap ~%.2fms (got %.2f)" tx_ms gap)
        true
        (abs_float (gap -. tx_ms) < 0.5)
  | _ -> Alcotest.fail "expected two arrivals"

let test_network_parallel_uplinks () =
  (* Uplinks to different regions do not queue behind each other. *)
  let engine, net, p = mk_net ~z:3 ~n:1 () in
  Network.send net ~src:0 ~dst:1 ~size:1_000_000 ();
  Network.send net ~src:0 ~dst:2 ~size:250 ();
  Engine.run engine;
  let t_small =
    List.find_map (fun (_, d, t) -> if d = 2 then Some t else None) p.arrivals |> Option.get
  in
  (* Montreal one-way is 32.5 ms; the small message must not wait for
     the 1 MB transfer on the Iowa pipe. *)
  Alcotest.(check bool) "no cross-pipe queueing" true (Time.to_ms_f t_small < 33.0)

let test_network_crash_and_drop () =
  let engine, net, p = mk_net ~z:2 ~n:2 () in
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 ~size:100 ();   (* to crashed: dropped *)
  Network.send net ~src:1 ~dst:0 ~size:100 ();   (* from crashed: dropped *)
  Network.add_drop_rule net (fun ~src ~dst -> src = 0 && dst = 2);
  Network.send net ~src:0 ~dst:2 ~size:100 ();   (* dropped by rule *)
  Network.send net ~src:0 ~dst:3 ~size:100 ();   (* delivered *)
  Engine.run engine;
  Alcotest.(check int) "only one delivery" 1 (List.length p.arrivals);
  Alcotest.(check int) "dropped counted" 1 (Rdb_sim.Stats.dropped_msgs (Network.stats net))

let test_network_partition () =
  let engine, net, p = mk_net ~z:2 ~n:1 () in
  Network.partition_regions net ~ra:0 ~rb:1;
  Network.send net ~src:0 ~dst:1 ~size:100 ();
  Network.send net ~src:1 ~dst:0 ~size:100 ();
  Engine.run engine;
  Alcotest.(check int) "partitioned" 0 (List.length p.arrivals)

let test_network_stats_local_global () =
  let engine, net, _ = mk_net ~z:2 ~n:2 () in
  Network.send net ~src:0 ~dst:1 ~size:100 ();  (* same region *)
  Network.send net ~src:0 ~dst:2 ~size:200 ();  (* cross region *)
  Engine.run engine;
  let s = Network.stats net in
  Alcotest.(check int) "local" 1 (Rdb_sim.Stats.local_msgs s);
  Alcotest.(check int) "global" 1 (Rdb_sim.Stats.global_msgs s);
  Alcotest.(check int) "local bytes" 100 (Rdb_sim.Stats.local_bytes s);
  Alcotest.(check int) "global bytes" 200 (Rdb_sim.Stats.global_bytes s)

(* -- Network fault reversibility (the chaos substrate) ------------------ *)

let test_network_recover_and_clear_rules () =
  let engine, net, p = mk_net ~z:2 ~n:2 () in
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 ~size:100 ();
  (* dst-crash is checked at delivery time, so drain the in-flight
     message while the node is still down *)
  Engine.run engine;
  Network.recover net 1;
  Network.send net ~src:0 ~dst:1 ~size:100 ();   (* delivered again *)
  Network.add_drop_rule net (fun ~src ~dst:_ -> src = 0);
  Network.send net ~src:0 ~dst:2 ~size:100 ();   (* dropped by rule *)
  Network.clear_drop_rules net;
  Network.send net ~src:0 ~dst:2 ~size:100 ();   (* delivered again *)
  Engine.run engine;
  Alcotest.(check int) "delivery restored after recover and clear" 2
    (List.length p.arrivals)

let test_network_partition_heal () =
  let engine, net, p = mk_net ~z:2 ~n:1 () in
  Network.partition_regions net ~ra:0 ~rb:1;
  Network.send net ~src:0 ~dst:1 ~size:100 ();
  (* heal_regions is the exact inverse, insensitive to argument order *)
  Network.heal_regions net ~ra:1 ~rb:0;
  Network.send net ~src:0 ~dst:1 ~size:100 ();
  Network.send net ~src:1 ~dst:0 ~size:100 ();
  Engine.run engine;
  Alcotest.(check int) "both directions flow after heal" 2 (List.length p.arrivals)

let test_network_link_flap () =
  let engine, net, p = mk_net ~z:2 ~n:2 () in
  Network.sever_link net ~src:0 ~dst:1;
  Network.send net ~src:0 ~dst:1 ~size:100 ();   (* dropped *)
  Network.send net ~src:1 ~dst:0 ~size:100 ();   (* reverse direction unaffected *)
  Network.restore_link net ~src:0 ~dst:1;
  Network.send net ~src:0 ~dst:1 ~size:100 ();   (* delivered *)
  Engine.run engine;
  Alcotest.(check int) "sever is directed and restorable" 2 (List.length p.arrivals)

let test_network_loss_and_dup () =
  let engine, net, p = mk_net ~z:2 ~n:2 () in
  Network.set_link_loss net ~src:0 ~dst:1 ~p:1.0;
  Network.send net ~src:0 ~dst:1 ~size:100 ();   (* certainly lost *)
  Network.set_link_loss net ~src:0 ~dst:1 ~p:0.; (* p<=0 removes the rule *)
  Network.send net ~src:0 ~dst:1 ~size:100 ();   (* delivered *)
  Network.set_link_dup net ~src:2 ~dst:3 ~p:1.0;
  Network.send net ~src:2 ~dst:3 ~size:100 ();   (* delivered twice *)
  Network.set_link_dup net ~src:2 ~dst:3 ~p:0.;
  Network.send net ~src:2 ~dst:3 ~size:100 ();   (* delivered once *)
  Engine.run engine;
  let deliveries_to d =
    List.length (List.filter (fun (_, d', _) -> d' = d) p.arrivals)
  in
  Alcotest.(check int) "p=1 loss drops, p=0 clears" 1 (deliveries_to 1);
  Alcotest.(check int) "p=1 dup doubles, p=0 clears" 3 (deliveries_to 3);
  Alcotest.(check int) "lost message counted as dropped" 1
    (Rdb_sim.Stats.dropped_msgs (Network.stats net))

(* -- CPU ------------------------------------------------------------------------- *)

let test_cpu_stage_serialization () =
  let engine = Engine.create () in
  let cpu = Cpu.create ~engine ~n_nodes:2 () in
  let log = ref [] in
  (* Two 10 ms jobs on the same stage serialize; a job on another stage
     (or node) runs in parallel. *)
  Cpu.charge cpu ~node:0 ~stage:Cpu.Execute ~cost:(Time.ms 10) (fun () ->
      log := ("a", Engine.now engine) :: !log);
  Cpu.charge cpu ~node:0 ~stage:Cpu.Execute ~cost:(Time.ms 10) (fun () ->
      log := ("b", Engine.now engine) :: !log);
  Cpu.charge cpu ~node:0 ~stage:Cpu.Worker ~cost:(Time.ms 10) (fun () ->
      log := ("w", Engine.now engine) :: !log);
  Cpu.charge cpu ~node:1 ~stage:Cpu.Execute ~cost:(Time.ms 10) (fun () ->
      log := ("n1", Engine.now engine) :: !log);
  Engine.run engine;
  let at name = List.assoc name !log in
  Alcotest.(check int) "first exec at 10ms" (Time.ms 10) (at "a");
  Alcotest.(check int) "second exec serialized at 20ms" (Time.ms 20) (at "b");
  Alcotest.(check int) "other stage parallel" (Time.ms 10) (at "w");
  Alcotest.(check int) "other node parallel" (Time.ms 10) (at "n1")

let test_cpu_fast_path () =
  let engine = Engine.create () in
  let cpu = Cpu.create ~engine ~n_nodes:1 () in
  let ran = ref false in
  (* Tiny cost on an idle stage runs synchronously. *)
  Cpu.charge cpu ~node:0 ~stage:Cpu.Worker ~cost:(Time.us 1) (fun () -> ran := true);
  Alcotest.(check bool) "sync fast path" true !ran;
  let slow = ref false in
  Cpu.charge cpu ~node:0 ~stage:Cpu.Worker ~cost:(Time.ms 5) (fun () -> slow := true);
  Alcotest.(check bool) "costly charge waits for its stage" false !slow;
  Engine.run engine;
  Alcotest.(check bool) "costly charge completes" true !slow

(* -- pooled fan-out ≡ per-event scheduling ------------------------------- *)

(* A fan-out case: engine shard count, whether the fan-out is issued
   from inside an event on shard [cur] or from outside event execution,
   the (destination shard, time offset) of each entry — offset -1 is a
   time in the past for a shard the caller may schedule on directly —
   and a cyclic defer pattern for the schedule-exploration hook. *)
type fanout_case = {
  fz : int;
  inside : bool;
  cur : int;
  entries : (int * int) list;
  defer : bool list;
}

let gen_fanout_case =
  QCheck.Gen.(
    let* fz = int_range 1 3 in
    let* inside = bool in
    let* cur = int_bound (fz - 1) in
    let* entries = list_size (int_bound 12) (pair (int_bound (fz - 1)) (int_range (-1) 4)) in
    let* defer = list_size (int_range 0 5) bool in
    return { fz; inside; cur; entries; defer })

let print_fanout_case c =
  Printf.sprintf "z=%d %s cur=%d entries=[%s] defer=[%s]" c.fz
    (if c.inside then "inside" else "outside")
    c.cur
    (String.concat "; " (List.map (fun (sh, o) -> Printf.sprintf "%d@%d" sh o) c.entries))
    (String.concat "" (List.map (fun d -> if d then "1" else "0") c.defer))

(* Run one case and return the executed order as (shard, time, tag):
   entry [i] logs tag [i], background events log negative tags.
   [pooled] issues the entries through [Engine.fanout]; otherwise
   through one [schedule_at_shard] per entry, the reference. *)
let run_fanout_case ~pooled c =
  let lookahead = Time.ms 1 in
  let e = Engine.create ~seed:1 ~shards:c.fz ~lookahead () in
  (match c.defer with
  | [] -> ()
  | d ->
      let d = Array.of_list d in
      Engine.set_defer_hook e (Some (fun n -> d.(n mod Array.length d))));
  let log = ref [] in
  let note tag () = log := (Engine.current_shard_id e, Engine.now e, tag) :: !log in
  let trigger = Time.ms 10 in
  let at_off o = Time.add (Time.add trigger lookahead) (Time.us (500 * o)) in
  (* Background events on every shard, tied with the entries' times. *)
  for sh = 0 to c.fz - 1 do
    for o = 0 to 3 do
      ignore (Engine.schedule_at_shard e ~shard:sh ~at:(at_off o) (note (-1 - ((sh * 10) + o))))
    done
  done;
  let direct sh = (not c.inside) || sh = c.cur in
  let fire () =
    let shards = Array.of_list (List.map fst c.entries) in
    let times =
      Array.of_list
        (List.map
           (fun (sh, o) -> if o < 0 && direct sh then Time.zero else at_off (max o 0))
           c.entries)
    in
    let deliver i = note i () in
    if pooled then Engine.fanout e ~shards ~times ~deliver
    else
      Array.iteri
        (fun i sh ->
          ignore (Engine.schedule_at_shard e ~shard:sh ~at:times.(i) (fun () -> deliver i)))
        shards;
    (* Schedules made after the fan-out must still sort behind it. *)
    for sh = 0 to c.fz - 1 do
      ignore (Engine.schedule_at_shard e ~shard:sh ~at:(at_off 1) (note (-100 - sh)))
    done
  in
  if c.inside then ignore (Engine.schedule_at_shard e ~shard:c.cur ~at:trigger fire)
  else begin
    Engine.run_until e ~until:trigger;
    fire ()
  end;
  Engine.run e;
  List.rev !log

let prop_fanout_matches_per_event =
  QCheck.Test.make ~name:"Engine.fanout executes like per-event schedule_at_shard" ~count:300
    (QCheck.make ~print:print_fanout_case gen_fanout_case)
    (fun c -> run_fanout_case ~pooled:true c = run_fanout_case ~pooled:false c)

(* A cross-shard event takes its sequence number when the barrier lands
   it, through the defer hook: deferring that landing moves it behind
   a same-time event its destination shard scheduled later. *)
let test_defer_landed_cross_shard () =
  let order defer =
    let e = Engine.create ~seed:1 ~shards:2 ~lookahead:(Time.ms 1) () in
    Engine.set_defer_hook e (Some defer);
    let log = ref [] in
    let note tag () = log := tag :: !log in
    (* Calls 0 and 1.  The 10 ms event stages "remote" for shard 1,
       landed (call 2) at the barrier before 11.5 ms; the 11.5 ms event
       then schedules "local" (call 3) for the same time. *)
    ignore
      (Engine.schedule_at_shard e ~shard:0 ~at:(Time.ms 10) (fun () ->
           ignore (Engine.schedule_at_shard e ~shard:1 ~at:(Time.ms 12) (note "remote"))));
    ignore
      (Engine.schedule_at_shard e ~shard:1 ~at:(Time.us 11_500) (fun () ->
           ignore (Engine.schedule_at_shard e ~shard:1 ~at:(Time.ms 12) (note "local"))));
    Engine.run e;
    Alcotest.(check int) "every call numbered" 4 (Engine.schedule_calls e);
    List.rev !log
  in
  Alcotest.(check (list string)) "unperturbed: landed first" [ "remote"; "local" ]
    (order (fun _ -> false));
  Alcotest.(check (list string)) "deferred landing runs last" [ "local"; "remote" ]
    (order (fun n -> n = 2))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ("heap ordering", `Quick, test_heap_ordering);
    ("heap fifo ties", `Quick, test_heap_fifo_ties);
    ("heap fifo stress", `Quick, test_heap_fifo_stress);
    ("engine ordering", `Quick, test_engine_ordering_and_time);
    ("engine cancel", `Quick, test_engine_cancel);
    ("engine run_until", `Quick, test_engine_run_until);
    ("engine nested scheduling", `Quick, test_engine_nested_scheduling);
    ("topology table1", `Quick, test_topology_table1);
    ("topology validation", `Quick, test_topology_validation);
    ("network latency", `Quick, test_network_latency);
    ("network bandwidth queueing", `Quick, test_network_bandwidth_queueing);
    ("network parallel uplinks", `Quick, test_network_parallel_uplinks);
    ("network crash and drop", `Quick, test_network_crash_and_drop);
    ("network partition", `Quick, test_network_partition);
    ("network recover and clear rules", `Quick, test_network_recover_and_clear_rules);
    ("network partition heal", `Quick, test_network_partition_heal);
    ("network link flap", `Quick, test_network_link_flap);
    ("network loss and duplication", `Quick, test_network_loss_and_dup);
    ("network stats", `Quick, test_network_stats_local_global);
    ("cpu stage serialization", `Quick, test_cpu_stage_serialization);
    ("cpu fast path", `Quick, test_cpu_fast_path);
    ("defer reaches landed cross-shard events", `Quick, test_defer_landed_cross_shard);
  ]
  @ qsuite [ prop_heap_sorted; prop_fanout_matches_per_event ]

(* -- WAN egress cap ----------------------------------------------------- *)

let test_wan_egress_serialization () =
  (* With an aggregate WAN cap, two large messages to *different*
     regions serialize through the shared egress pipe; local traffic
     is unaffected. *)
  let engine = Engine.create () in
  let topo = Topology.clustered ~z:3 ~n:2 in
  let arrivals = ref [] in
  let net =
    Network.create ~wan_egress_mbps:100. ~engine ~topo ~jitter_ms:0.
      ~deliver:(fun ~src:_ ~dst _ -> arrivals := (dst, Engine.now engine) :: !arrivals)
      ()
  in
  (* 1 MB to Iowa (node 2) and 1 MB to Montreal (node 4): each takes
     80 ms through the 100 Mbit/s aggregate pipe, so the second cannot
     depart before 160 ms. *)
  Network.send net ~src:0 ~dst:2 ~size:1_000_000 ();
  Network.send net ~src:0 ~dst:4 ~size:1_000_000 ();
  (* A local message is not throttled by the WAN pipe. *)
  Network.send net ~src:0 ~dst:1 ~size:1_000_000 ();
  Engine.run engine;
  let at dst = List.assoc dst !arrivals in
  Alcotest.(check bool) "second WAN msg serialized behind first" true
    (Time.to_ms_f (at 4) > 160.);
  Alcotest.(check bool) "local msg unaffected by WAN cap" true (Time.to_ms_f (at 1) < 5.)

let test_wan_egress_disabled () =
  let engine = Engine.create () in
  let topo = Topology.clustered ~z:3 ~n:1 in
  let arrivals = ref [] in
  let net =
    Network.create ~engine ~topo ~jitter_ms:0.
      ~deliver:(fun ~src:_ ~dst _ -> arrivals := (dst, Engine.now engine) :: !arrivals)
      ()
  in
  Network.send net ~src:0 ~dst:1 ~size:1_000_000 ();
  Network.send net ~src:0 ~dst:2 ~size:1_000_000 ();
  Engine.run engine;
  (* Without the cap, the two transfers ride independent region pipes
     in parallel: Montreal (371 Mbit/s ~ 21.6ms + 32.5ms delay). *)
  Alcotest.(check bool) "parallel without cap" true
    (Time.to_ms_f (List.assoc 2 !arrivals) < 60.)

(* -- Stats drop accounting ---------------------------------------------- *)

let test_stats_count_dropped () =
  let s = Rdb_sim.Stats.create () in
  let before = Rdb_sim.Stats.snapshot s in
  Rdb_sim.Stats.count_sent s ~local:true ~size:100;
  Rdb_sim.Stats.count_dropped s ~size:70;
  Rdb_sim.Stats.count_dropped s ~size:30;
  Alcotest.(check int) "dropped msgs" 2 (Rdb_sim.Stats.dropped_msgs s);
  Alcotest.(check int) "dropped bytes" 100 (Rdb_sim.Stats.dropped_bytes s);
  let after = Rdb_sim.Stats.snapshot s in
  Alcotest.(check int) "snapshot d_msgs" 2 after.Rdb_sim.Stats.d_msgs;
  Alcotest.(check int) "snapshot d_bytes" 100 after.Rdb_sim.Stats.d_bytes;
  let w = Rdb_sim.Stats.diff ~after ~before in
  Alcotest.(check int) "diff d_msgs" 2 w.Rdb_sim.Stats.d_msgs;
  Alcotest.(check int) "diff d_bytes" 100 w.Rdb_sim.Stats.d_bytes;
  Alcotest.(check int) "diff l_msgs" 1 w.Rdb_sim.Stats.l_msgs

let test_network_dropped_bytes () =
  (* Drops observed through the network layer carry their sizes into
     the same counters. *)
  let engine, net, _ = mk_net ~z:2 ~n:2 () in
  Network.add_drop_rule net (fun ~src ~dst -> src = 0 && dst = 2);
  Network.send net ~src:0 ~dst:2 ~size:321 ();
  Engine.run engine;
  Alcotest.(check int) "dropped bytes via network" 321
    (Rdb_sim.Stats.dropped_bytes (Network.stats net))

let suite =
  suite
  @ [
      ("network wan egress serialization", `Quick, test_wan_egress_serialization);
      ("network wan egress disabled", `Quick, test_wan_egress_disabled);
      ("stats count_dropped", `Quick, test_stats_count_dropped);
      ("network dropped bytes", `Quick, test_network_dropped_bytes);
    ]

(* -- event-core allocation pins ------------------------------------------ *)

(* Minor words [f ()] allocates.  Exact on one domain: allocation is
   deterministic, [Gc.minor_words] counts the live minor heap too, and
   its unboxed result allocates nothing. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. w0)

(* Words of a heap block, header included. *)
let block_words v = Obj.size (Obj.repr v) + 1

(* A warmed single-shard engine: scheduling a preallocated closure and
   executing it allocates the timer handle and nothing else — the
   record comes from the freelist, the heap moves only ints, returning
   the record to the freelist allocates nothing. *)
let test_schedule_execute_allocation () =
  let e = Engine.create ~seed:1 () in
  let f () = () in
  let cycles n =
    for i = 1 to n do
      ignore (Engine.schedule_at e ~at:(Time.ns i) f);
      ignore (Engine.step e)
    done
  in
  (* Warm: grow the heap and the freelist, initialise the shard slot. *)
  for _ = 1 to 200 do
    ignore (Engine.schedule_at e ~at:Time.zero f)
  done;
  Engine.run e;
  let timer_words = block_words (Engine.schedule_at e ~at:Time.zero f) in
  Engine.run e;
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "%d cycles allocate %d timer handles" n n)
        (n * timer_words)
        (minor_words (fun () -> cycles n)))
    [ 1; 100; 10_000 ]

(* Once the heap has grown to its peak size, push and pop_payload
   allocate nothing, across free-slot reuse and any interleaving. *)
let test_heap_allocation () =
  let h = Heap.create () in
  let payload = "payload" in
  for i = 0 to 299 do
    Heap.push h ~time:(i mod 7) ~seq:i payload
  done;
  while not (Heap.is_empty h) do
    ignore (Heap.pop_payload h)
  done;
  let churn () =
    for round = 0 to 9 do
      for i = 0 to 299 do
        Heap.push h ~time:((i * 31) mod 17) ~seq:((round * 1000) + i) payload;
        if i mod 3 = 0 then ignore (Heap.pop_payload h)
      done;
      while Heap.min_time h < max_int do
        ignore (Heap.pop_payload h)
      done
    done
  in
  Alcotest.(check int) "push/pop_payload after growth" 0 (minor_words churn)

(* A pooled fan-out of m entries on one shard allocates its agenda (two
   ints per entry) plus a per-group constant, and delivering the m
   entries allocates nothing. *)
let test_fanout_allocation () =
  let e = Engine.create ~seed:1 () in
  let deliver _ = () in
  let fan m =
    let shards = Array.make m 0 and times = Array.init m (fun i -> Time.us i) in
    fun () ->
      Engine.fanout e ~shards ~times ~deliver;
      while Engine.step e do
        ()
      done
  in
  let words m =
    let go = fan m in
    go ();
    minor_words go
  in
  let w1 = words 1 in
  List.iter
    (fun m ->
      Alcotest.(check int)
        (Printf.sprintf "%d-entry fan-out: the agenda's 2 words per extra entry" m)
        (2 * (m - 1))
        (words m - w1))
    (* Past 127 entries the agenda exceeds Max_young_wosize (256 words)
       and is allocated in the major heap, off this count. *)
    [ 2; 27; 127 ]

(* -- slot-table heap against a sorted reference ------------------------- *)

let defer_offset = 1_000_000_000

(* A run: heap sizes to walk to in turn (every growth boundary is among
   the candidates), and a seed for the interleaving and the keys. *)
let gen_heap_run =
  QCheck.Gen.(
    pair
      (list_size (int_range 1 8)
         (oneof [ oneofl [ 0; 1; 63; 64; 65; 127; 128; 129 ]; int_bound 300 ]))
      int)

let print_heap_run (targets, seed) =
  Printf.sprintf "targets=[%s] seed=%d" (String.concat ";" (List.map string_of_int targets)) seed

(* Walk to each target size, mostly pushing on the way up and popping
   on the way down, with one step in five going the other way.  Times
   are drawn from a small range so ties are common, and a quarter of
   the sequence numbers sit above the defer offset.  After every step
   the heap agrees with a sorted list of the same keys. *)
let heap_matches_reference (targets, seed) =
  let rng = Random.State.make [| seed |] in
  let h = Heap.create () in
  let model = ref [] in
  let next_seq = ref 0 in
  let ok = ref true in
  let expect b = if not b then ok := false in
  let check_top () =
    expect (Heap.length h = List.length !model);
    match !model with
    | [] -> expect (Heap.min_time h = max_int && Heap.peek h = None)
    | (t, s) :: _ -> (
        expect (Heap.min_time h = t);
        match Heap.peek h with
        | Some { Heap.time; seq; payload } -> expect (time = t && seq = s && payload = (t, s))
        | None -> expect false)
  in
  let push () =
    incr next_seq;
    let t = Random.State.int rng 6 in
    let s = if Random.State.int rng 4 = 0 then !next_seq + defer_offset else !next_seq in
    Heap.push h ~time:t ~seq:s (t, s);
    model := List.merge compare [ (t, s) ] !model
  in
  let pop () =
    match (!model, Heap.pop h) with
    | k :: rest, Some { Heap.time; seq; payload } ->
        expect ((time, seq) = k && payload = k);
        model := rest
    | [], None -> ()
    | _ -> expect false
  in
  List.iter
    (fun target ->
      while List.length !model <> target do
        let against = Random.State.int rng 5 = 0 in
        if List.length !model < target then (if against && !model <> [] then pop () else push ())
        else if against then push ()
        else pop ();
        check_top ()
      done)
    targets;
  while !model <> [] do
    pop ();
    check_top ()
  done;
  !ok

let prop_heap_model =
  QCheck.Test.make ~name:"slot-table heap = sorted reference" ~count:200
    (QCheck.make ~print:print_heap_run gen_heap_run)
    heap_matches_reference

let test_heap_empty () =
  let h : string Heap.t = Heap.create () in
  let check_empty what =
    Alcotest.(check int) (what ^ ": min_time") max_int (Heap.min_time h);
    Alcotest.(check bool) (what ^ ": peek") true (Heap.peek h = None);
    Alcotest.(check bool) (what ^ ": pop") true (Heap.pop h = None);
    Alcotest.check_raises (what ^ ": pop_payload") (Invalid_argument "Heap.pop_payload: empty heap")
      (fun () -> ignore (Heap.pop_payload h))
  in
  check_empty "fresh";
  for i = 0 to 64 do
    Heap.push h ~time:0 ~seq:i "x"
  done;
  for _ = 0 to 64 do
    ignore (Heap.pop_payload h)
  done;
  check_empty "drained after growth"

(* A popped payload is not kept alive by its freed slot. *)
let test_heap_drops_popped () =
  let h = Heap.create () in
  let w = Weak.create 1 in
  Heap.push h ~time:0 ~seq:0 (Bytes.make 8 'a');
  (let p = Bytes.make 8 'b' in
   Weak.set w 0 (Some p);
   Heap.push h ~time:1 ~seq:1 p);
  ignore (Heap.pop_payload h);
  ignore (Heap.pop_payload h);
  Gc.full_major ();
  Alcotest.(check bool) "collected after pop" false (Weak.check w 0);
  (* [h] itself stays reachable up to here. *)
  Alcotest.(check int) "heap empty" 0 (Heap.length h)

let suite =
  suite
  @ [
      ("event core allocation: schedule + execute", `Quick, test_schedule_execute_allocation);
      ("event core allocation: heap", `Quick, test_heap_allocation);
      ("event core allocation: fan-out", `Quick, test_fanout_allocation);
      ("heap empty", `Quick, test_heap_empty);
      ("heap drops popped payloads", `Quick, test_heap_drops_popped);
    ]
  @ qsuite [ prop_heap_model ]
