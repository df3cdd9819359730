(* lib/recovery: the per-replica handle's stall-watch task (backoff
   schedule, progress resets, retirement, generation orphaning, RNG
   discipline) and the shared catch-up loop (chunking, wire size and
   cost, install, chaining and completion) — over a hand-built Ctx on a
   bare engine. *)

module Engine = Rdb_sim.Engine
module Time = Rdb_sim.Time
module Config = Rdb_types.Config
module Ctx = Rdb_types.Ctx
module Rng = Rdb_prng.Rng
module Recovery = Rdb_recovery.Recovery
module Catchup = Rdb_recovery.Catchup
module Batch = Rdb_types.Batch
module App = Rdb_types.App
module Wire = Rdb_types.Wire

let timeout_ms = 100.

let mk_ctx ?(seed = 42L) () =
  let engine = Engine.create () in
  let cfg = { (Config.make ~z:1 ~n:4 ()) with Config.local_timeout_ms = timeout_ms } in
  let rng = Rng.create seed in
  let ctx : unit Ctx.t =
    {
      Ctx.id = 0;
      config = cfg;
      keychain = Rdb_crypto.Keychain.create ~seed:"recovery-test" ~n_nodes:4;
      rng;
      now = (fun () -> Engine.now engine);
      send = (fun ~dsts:_ () -> ());
      charge = (fun ~stage:_ ~cost:_ k -> k ());
      set_timer = (fun ~delay k -> Engine.schedule_after engine ~delay k);
      cancel_timer = Engine.cancel;
      execute = (fun _ ~cert:_ ~on_done -> on_done None);
      read_execute = (fun _ ~on_done:_ -> ());
      state_snapshot = (fun () -> None);
      app_restore = (fun _ -> ());
      ledger_read = (fun ~height:_ -> []);
      complete = (fun _ -> ());
      phase = (fun ~key:_ ~name:_ -> ());
    }
  in
  (engine, ctx, rng)

(* A watched handle (always needed and always stalled unless the
   caller says otherwise) and the list of its fires as (ms, attempt),
   oldest first. *)
let mk_task ?(needed = fun () -> true) ?(progress = fun () -> 0) ctx engine =
  let t = Recovery.create ctx in
  let fires = ref [] in
  Recovery.watch t ~needed ~progress ~fire:(fun ~attempt ->
      fires := (Time.to_ms_f (Engine.now engine), attempt) :: !fires);
  (t, fun () -> List.rev !fires)

let run_to engine ms = Engine.run_until engine ~until:(Time.of_ms_f ms)

let test_backoff_schedule () =
  let engine, ctx, _ = mk_ctx () in
  let t, fires = mk_task ctx engine in
  Recovery.start t;
  run_to engine 6_000.;
  let fires = fires () in
  (match fires with
  | (at, 0) :: _ ->
      Alcotest.(check (float 1e-6)) "first fire one timeout after start" timeout_ms at
  | _ -> Alcotest.fail "no first fire at attempt 0");
  Alcotest.(check (list int)) "attempts count up" (List.init (List.length fires) Fun.id)
    (List.map snd fires);
  (* The gap after attempt k is the delay for attempt k+1:
     min 8x (2^(k+1) x timeout), stretched by at most 25%. *)
  let rec gaps = function
    | (a, k) :: ((b, _) :: _ as rest) ->
        let nominal = Float.min (8. *. timeout_ms) (timeout_ms *. Float.of_int (1 lsl (k + 1))) in
        let gap = b -. a in
        if gap < nominal -. 1e-6 || gap > (1.25 *. nominal) +. 1e-6 then
          Alcotest.failf "gap after attempt %d is %.3f ms, want [%.0f, %.0f]" k gap nominal
            (1.25 *. nominal);
        gaps rest
    | _ -> ()
  in
  gaps fires;
  Alcotest.(check bool) "reached the 8x cap" true (List.length fires >= 6)

let test_progress_resets_without_firing () =
  let engine, ctx, _ = mk_ctx () in
  (* A token that changes at every tick: the protocol is healing on
     its own, so the task watches at the base period and never fires. *)
  let calls = ref 0 in
  let t, fires = mk_task ~progress:(fun () -> incr calls; !calls) ctx engine in
  Recovery.start t;
  run_to engine 1_050.;
  Alcotest.(check int) "never fired" 0 (List.length (fires ()));
  Alcotest.(check int) "ticked every timeout (start + 10 ticks)" 11 !calls;
  (* A stalled token that then moves: the next fire starts over at
     attempt 0, one timeout after the tick that saw the change. *)
  let engine, ctx, _ = mk_ctx () in
  let token = ref 0 in
  let t, fires = mk_task ~progress:(fun () -> !token) ctx engine in
  Recovery.start t;
  run_to engine 1_000.;
  let before = fires () in
  Alcotest.(check bool) "backoff grew while stalled" true
    (List.exists (fun (_, k) -> k >= 2) before);
  token := 1;
  run_to engine 4_000.;
  match List.filteri (fun i _ -> i >= List.length before) (fires ()) with
  | (_, k) :: _ -> Alcotest.(check int) "first fire after progress is attempt 0" 0 k
  | [] -> Alcotest.fail "task stopped firing after progress"

let test_retires_when_not_needed () =
  let engine, ctx, _ = mk_ctx () in
  let needed = ref true in
  let t, fires = mk_task ~needed:(fun () -> !needed) ctx engine in
  Recovery.start t;
  run_to engine 350.;
  let n = List.length (fires ()) in
  Alcotest.(check bool) "fired while needed" true (n > 0);
  needed := false;
  run_to engine 5_000.;
  Alcotest.(check int) "no fire once not needed" n (List.length (fires ()));
  (* Retired means not running: [ensure] re-arms a fresh watch. *)
  needed := true;
  Recovery.ensure t;
  run_to engine (5_001. +. timeout_ms);
  Alcotest.(check int) "ensure re-armed the retired task" (n + 1) (List.length (fires ()))

let test_start_orphans_pending_tick () =
  let engine, ctx, _ = mk_ctx () in
  let t, fires = mk_task ctx engine in
  Recovery.start t;
  run_to engine 50.;
  Recovery.start t;
  run_to engine 149.;
  Alcotest.(check int) "the first start's tick was orphaned" 0 (List.length (fires ()));
  run_to engine 151.;
  Alcotest.(check (list (pair (float 1e-6) int))) "one fire, a timeout after the restart"
    [ (150., 0) ] (fires ());
  (* [ensure] on a running task does not restart it. *)
  Recovery.ensure t;
  run_to engine 1_000.;
  Alcotest.(check bool) "one chain of fires" true
    (List.for_all2 (fun (_, k) i -> k = i) (fires ()) (List.init (List.length (fires ())) Fun.id))

let test_no_fire_no_rng () =
  let engine, ctx, rng = mk_ctx ~seed:7L () in
  let calls = ref 0 in
  let t, fires = mk_task ~progress:(fun () -> incr calls; !calls) ctx engine in
  Recovery.start t;
  run_to engine 2_000.;
  Alcotest.(check int) "never fired" 0 (List.length (fires ()));
  Alcotest.(check int64) "RNG stream untouched" (Rng.next_int64 (Rng.create 7L))
    (Rng.next_int64 rng);
  (* One fire draws exactly one jitter value. *)
  let engine, ctx, rng = mk_ctx ~seed:7L () in
  let t, fires = mk_task ctx engine in
  Recovery.start t;
  run_to engine (timeout_ms +. 1.);
  Alcotest.(check int) "fired once" 1 (List.length (fires ()));
  let fresh = Rng.create 7L in
  ignore (Rng.float fresh);
  Alcotest.(check int64) "one draw per fire" (Rng.next_int64 fresh) (Rng.next_int64 rng)

(* -- the ledger suffix (Catchup) ------------------------------------------- *)

(* A ctx whose ledger holds [height] copies of one batch and whose App
   snapshot is [state]. *)
let mk_ledger_ctx ~height ~state =
  let _, ctx, _ = mk_ctx () in
  let batch =
    Batch.noop ~keychain:ctx.Ctx.keychain ~cluster:0 ~origin:0 ~created:Time.zero ~nonce:1
  in
  {
    ctx with
    Ctx.ledger_read =
      (fun ~height:from -> List.init (max 0 (height - from)) (fun _ -> (batch, None)));
    state_snapshot = (fun () -> state);
  }

let snapshot = { App.height = 96; state = String.make 1000 's' }

let test_suffix_wire () =
  let _, ctx, _ = mk_ctx () in
  let cfg = ctx.Ctx.config in
  let batch =
    Batch.noop ~keychain:ctx.Ctx.keychain ~cluster:0 ~origin:0 ~created:Time.zero ~nonce:1
  in
  List.iter
    (fun (blocks, state) ->
      let s = { Catchup.blocks = List.init blocks (fun _ -> (batch, None)); state } in
      let name =
        Printf.sprintf "%d blocks, %s" blocks (if state = None then "no state" else "state")
      in
      let bytes =
        Wire.snapshot_bytes ~batch_size:cfg.Config.batch_size ~sigs:(Config.cert_wire_sigs cfg)
          ~blocks
        + match state with Some st -> String.length st.App.state | None -> 0
      in
      let w = Catchup.wire cfg (Catchup.Chunk { from = 0; view = 0; suffix = s }) in
      Alcotest.(check int) (name ^ ": bytes") bytes w.Wire.bytes;
      (* Verified on the execute thread, not on receipt. *)
      Alcotest.(check int) (name ^ ": verifies") 0 w.Wire.verifies)
    [
      (0, None); (1, None); (96, None); (0, Some snapshot); (1, Some snapshot); (96, Some snapshot);
    ];
  let fetch = Catchup.wire cfg (Catchup.Fetch { from = 3 }) in
  Alcotest.(check (pair int int)) "a fetch is small" (Wire.fetch_bytes, 0)
    (fetch.Wire.bytes, fetch.Wire.verifies)

let test_suffix_chunks () =
  let ctx = mk_ledger_ctx ~height:200 ~state:(Some snapshot) in
  let full = Catchup.read ~limit:96 ctx ~from:0 in
  Alcotest.(check int) "full chunk: limit blocks" 96 (List.length full.Catchup.blocks);
  Alcotest.(check bool) "full chunk: no state" true (full.Catchup.state = None);
  let last = Catchup.read ~limit:96 ctx ~from:150 in
  Alcotest.(check int) "short chunk: the rest" 50 (List.length last.Catchup.blocks);
  Alcotest.(check bool) "short chunk: the state" true (last.Catchup.state = Some snapshot);
  let empty = Catchup.read ~limit:96 ctx ~from:200 in
  Alcotest.(check int) "at the frontier: empty" 0 (List.length empty.Catchup.blocks);
  Alcotest.(check bool) "at the frontier: the state" true (empty.Catchup.state = Some snapshot);
  let whole = Catchup.read ctx ~from:0 in
  Alcotest.(check int) "no limit: every block" 200 (List.length whole.Catchup.blocks);
  Alcotest.(check bool) "no limit: always the state" true (whole.Catchup.state = Some snapshot);
  let retained = Catchup.read (mk_ledger_ctx ~height:10 ~state:None) ~from:0 in
  Alcotest.(check bool) "payloads retained: no state" true (retained.Catchup.state = None)

let test_suffix_install () =
  let ctx = mk_ledger_ctx ~height:10 ~state:None in
  let restored = ref [] in
  let ctx = { ctx with Ctx.app_restore = (fun s -> restored := s :: !restored) } in
  let c = Catchup.create (Ctx.map_send ignore ctx) ~peers:[] in
  c.Catchup.issued <- 4;
  let applied = ref [] in
  let apply ~h _ _ = applied := h :: !applied in
  (* Only blocks at the frontier install, at most [count] of them. *)
  Catchup.install c ~from:2 ~count:5 (Catchup.read ctx ~from:2) ~apply;
  Alcotest.(check (list int)) "from the frontier, within count" [ 4; 5; 6 ] (List.rev !applied);
  Alcotest.(check int) "cursor advanced" 7 c.Catchup.issued;
  Alcotest.(check (list int)) "one transfer of 3 blocks" [ 1; 3 ]
    (let s = Recovery.stats c.Catchup.recovery in
     [ s.Rdb_types.Protocol.state_transfers; s.holes_filled ]);
  Alcotest.(check int) "no state restored" 0 (List.length !restored);
  Catchup.install c ~from:7 { Catchup.blocks = []; state = Some snapshot } ~apply;
  Alcotest.(check bool) "state restored first" true (!restored = [ snapshot ]);
  Alcotest.(check int) "empty install counts no transfer" 1
    (Recovery.stats c.Catchup.recovery).Rdb_types.Protocol.state_transfers

(* The loop between a requester at height 0 and a server whose ledger
   holds 150 blocks: the first fetch goes to the first peer, a full
   chunk chains a fetch to the server that sent it, a short chunk ends
   catch-up, and a chunk that is not at the frontier is ignored. *)
let test_loop_chains_until_short () =
  let server = mk_ledger_ctx ~height:150 ~state:None in
  let sent = ref [] in
  let ctx =
    {
      server with
      Ctx.id = 0;
      send = (fun ~dsts m -> sent := (dsts, m) :: !sent);
    }
  in
  let c = Catchup.create ctx ~peers:[ 0; 2; 3 ] in
  let resumed = ref 0 in
  Catchup.watch c ~resume:(fun () -> incr resumed) ~apply:(fun ~h:_ _ _ -> ()) ();
  let last () = match !sent with (dsts, m) :: _ -> (dsts, m) | [] -> Alcotest.fail "nothing sent" in
  Catchup.start c;
  (match last () with
  | [ 2 ], Catchup.Fetch { from = 0 } -> ()
  | _ -> Alcotest.fail "first fetch: from 0 to the first other peer");
  (* Serve it from the server's ledger: a full chunk. *)
  Catchup.on_message (Catchup.create { server with Ctx.send = ctx.Ctx.send } ~peers:[]) ~src:0
    (Catchup.Fetch { from = 0 });
  let full = match last () with _, (Catchup.Chunk _ as m) -> m | _ -> Alcotest.fail "no chunk" in
  Catchup.on_message c ~src:3 full;
  Alcotest.(check int) "full chunk installed" Catchup.chunk c.Catchup.issued;
  (match last () with
  | [ 3 ], Catchup.Fetch { from } when from = Catchup.chunk -> ()
  | _ -> Alcotest.fail "a full chunk chains a fetch to its sender");
  Catchup.on_message c ~src:3 full;
  Alcotest.(check int) "a chunk off the frontier is ignored" Catchup.chunk c.Catchup.issued;
  let short = Catchup.read ~limit:Catchup.chunk server ~from:Catchup.chunk in
  Catchup.on_message c ~src:3 (Catchup.Chunk { from = Catchup.chunk; view = 0; suffix = short });
  Alcotest.(check int) "short chunk installed" 150 c.Catchup.issued;
  Alcotest.(check bool) "done" false c.Catchup.recovering;
  Alcotest.(check int) "resumed once" 1 !resumed

let suite =
  [
    ("backoff doubles to the 8x cap", `Quick, test_backoff_schedule);
    ("progress resets without firing", `Quick, test_progress_resets_without_firing);
    ("retires when not needed", `Quick, test_retires_when_not_needed);
    ("start orphans a pending tick", `Quick, test_start_orphans_pending_tick);
    ("no fire, no RNG draw", `Quick, test_no_fire_no_rng);
    ("catch-up suffix size and cost", `Quick, test_suffix_wire);
    ("catch-up suffix chunks", `Quick, test_suffix_chunks);
    ("catch-up install at the frontier", `Quick, test_suffix_install);
    ("catch-up chains until a short chunk", `Quick, test_loop_chains_until_short);
  ]
