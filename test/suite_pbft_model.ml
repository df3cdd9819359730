(* Model-based Pbft engine tests over a loopback harness.

   Unlike the fabric-based integration tests (which deliver messages in
   near-FIFO order with realistic latencies), this harness drives four
   engines directly and delivers pending messages in a *seeded random
   order* — an adversarial asynchronous scheduler.  Pbft's safety must
   not depend on delivery order: for every seed, all replicas must emit
   exactly the same sequence of batches, in sequence order, with
   certificates that verify.

   The harness gives each engine a minimal Ctx: sends append to a
   global mailbag; CPU charges run immediately; timers are recorded but
   never fired (a fault-free asynchronous run needs no view changes). *)

module Batch = Rdb_types.Batch
module Certificate = Rdb_types.Certificate
module Config = Rdb_types.Config
module Ctx = Rdb_types.Ctx
module Keychain = Rdb_crypto.Keychain
module Engine = Rdb_pbft.Engine
module Rng = Rdb_prng.Rng

type harness = {
  kc : Keychain.t;
  cfg : Config.t;
  mailbag : (int * int * Rdb_pbft.Messages.msg) array ref;  (* src, dst, msg *)
  mutable bag_len : int;
  engines : Engine.t array;
  emitted : (int * string * Certificate.t) list ref array;  (* per replica *)
  engine_handle : Rdb_sim.Engine.t;  (* timer substrate only *)
}

let push_mail h entry =
  let arr = !(h.mailbag) in
  if h.bag_len = Array.length arr then begin
    let narr = Array.make (max 16 (2 * h.bag_len)) entry in
    Array.blit arr 0 narr 0 h.bag_len;
    h.mailbag := narr
  end;
  !(h.mailbag).(h.bag_len) <- entry;
  h.bag_len <- h.bag_len + 1

(* Remove and return a random pending message. *)
let pop_mail h rng =
  if h.bag_len = 0 then None
  else begin
    let i = Rng.int rng h.bag_len in
    let arr = !(h.mailbag) in
    let entry = arr.(i) in
    arr.(i) <- arr.(h.bag_len - 1);
    h.bag_len <- h.bag_len - 1;
    Some entry
  end

let make_harness ~n =
  let cfg = Config.make ~z:1 ~n ~batch_size:2 () in
  let kc = Keychain.create ~seed:"model" ~n_nodes:(n + 1) in
  let engine_handle = Rdb_sim.Engine.create () in
  (* Array filler; never delivered ([bag_len] guards every slot). *)
  let filler =
    (0, 0, Rdb_pbft.Messages.Forward (Batch.noop ~keychain:kc ~cluster:0 ~origin:0 ~created:0 ~nonce:0))
  in
  let mailbag = ref (Array.make 64 filler) in
  let h_ref = ref None in
  let emitted = Array.init n (fun _ -> ref []) in
  let mk_ctx id : Rdb_pbft.Messages.msg Ctx.t =
    {
      Ctx.id;
      config = cfg;
      keychain = kc;
      rng = Rng.create (Int64.of_int id);
      now = (fun () -> Rdb_sim.Engine.now engine_handle);
      send =
        (fun ~dsts m ->
          match !h_ref with
          | Some h -> List.iter (fun dst -> push_mail h (id, dst, m)) dsts
          | None -> ());
      charge = (fun ~stage:_ ~cost:_ k -> k ());
      set_timer =
        (fun ~delay k -> Rdb_sim.Engine.schedule_after engine_handle ~delay k);
      cancel_timer = Rdb_sim.Engine.cancel;
      execute = (fun _ ~cert:_ ~on_done -> on_done None);
      read_execute = (fun _ ~on_done:_ -> ());
      state_snapshot = (fun () -> None);
      app_restore = (fun _ -> ());
      ledger_read = (fun ~height:_ -> []);
      complete = (fun _ -> ());
      phase = (fun ~key:_ ~name:_ -> ());
    }
  in
  let engines =
    Array.init n (fun id ->
        Engine.create ~ctx:(mk_ctx id)
          ~members:(Array.init n Fun.id)
          ~cluster:0
          ~on_committed:(fun ~seq batch cert ->
            emitted.(id) := (seq, batch.Batch.digest, cert) :: !(emitted.(id)))
          ~on_view_change:(fun ~view:_ -> ())
          ())
  in
  let h = { kc; cfg; mailbag; bag_len = 0; engines; emitted; engine_handle } in
  h_ref := Some h;
  h

(* Deliver pending messages in random order until quiescent. *)
let run_to_quiescence h rng =
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < 1_000_000 do
    incr steps;
    match pop_mail h rng with
    | Some (src, dst, m) -> Engine.on_message h.engines.(dst) ~src m
    | None -> continue := false
  done

let mk_batch h id =
  let txns =
    [| Rdb_types.Txn.make ~key:id ~value:(Int64.of_int id) ~client_id:0 () |]
  in
  Batch.create ~keychain:h.kc ~id ~cluster:0
    ~origin:h.cfg.Config.n (* the extra key in the keychain *)
    ~txns ~created:0

let check_agreement h ~expect =
  let n = Array.length h.engines in
  let seqs =
    Array.map
      (fun l -> List.rev_map (fun (seq, digest, _) -> (seq, digest)) !l)
      h.emitted
  in
  for i = 0 to n - 1 do
    if List.length seqs.(i) <> expect then
      Alcotest.failf "replica %d emitted %d of %d" i (List.length seqs.(i)) expect;
    (* In-order emission. *)
    List.iteri
      (fun k (seq, _) ->
        if seq <> k then Alcotest.failf "replica %d emitted seq %d at position %d" i seq k)
      seqs.(i);
    if seqs.(i) <> seqs.(0) then Alcotest.failf "replica %d diverged from replica 0" i
  done;
  (* Certificates verify. *)
  Array.iter
    (fun l ->
      List.iter
        (fun (_, _, cert) ->
          if not (Certificate.verify ~keychain:h.kc ~quorum:(Config.quorum h.cfg) cert) then
            Alcotest.fail "invalid commit certificate emitted")
        !l)
    h.emitted

let run_model ~seed ~batches ~n =
  let h = make_harness ~n in
  let rng = Rng.create (Int64.of_int seed) in
  for b = 0 to batches - 1 do
    Engine.submit_batch h.engines.(0) (mk_batch h b);
    (* Interleave delivery with submission to vary pipelining. *)
    if Rng.bool rng then run_to_quiescence h rng
  done;
  run_to_quiescence h rng;
  check_agreement h ~expect:batches

let test_random_delivery_orders () =
  List.iter (fun seed -> run_model ~seed ~batches:20 ~n:4) [ 1; 2; 3; 4; 5 ]

let test_larger_group () = run_model ~seed:42 ~batches:12 ~n:7

let prop_agreement_under_async =
  QCheck.Test.make ~name:"pbft agreement under adversarial delivery order" ~count:25
    QCheck.(pair (int_range 1 10_000) (int_range 1 30))
    (fun (seed, batches) ->
      run_model ~seed ~batches ~n:4;
      true)

(* Checkpoint stability under a divergent minority: the f lowest members
   vote distinct wrong digests first (so a majority-candidate scan
   starts on a wrong one), then the rest vote the quorum digest.  The
   watermark must move exactly at the (n − f)-th matching vote, to the
   quorum digest. *)
let test_checkpoint_divergent_minority () =
  List.iter
    (fun n ->
      let h = make_harness ~n in
      let rng = Rng.create 7L in
      List.iter (fun b -> Engine.submit_batch h.engines.(0) (mk_batch h b)) [ 0; 1 ];
      run_to_quiescence h rng;
      let e = h.engines.(n - 1) in
      let f = (n - 1) / 3 in
      let seq = 1 in
      Alcotest.(check int) "emitted past the checkpoint" 2 (Engine.next_emit e);
      Alcotest.(check int) "no checkpoint yet" (-1) (Engine.low_water e);
      let good = Rdb_crypto.Sha256.digest "quorum-state" in
      for src = 0 to f - 1 do
        let wrong = Rdb_crypto.Sha256.digest (Printf.sprintf "minority-%d" src) in
        Engine.on_message e ~src (Rdb_pbft.Messages.Checkpoint { seq; state_digest = wrong })
      done;
      for src = f to n - 1 do
        Engine.on_message e ~src (Rdb_pbft.Messages.Checkpoint { seq; state_digest = good });
        let matching = src - f + 1 in
        let expect = if matching >= n - f then seq else -1 in
        Alcotest.(check int)
          (Printf.sprintf "n=%d low_water after %d matching votes" n matching)
          expect (Engine.low_water e)
      done;
      Alcotest.(check string) "stable digest is the quorum digest" good (Engine.stable_digest e))
    [ 4; 7 ]

(* An engine ignores every sender outside its member range.  The engine
   is replica 1 of GeoBFT cluster 1 (members 4..7 of z=2, n=4), so a
   preprepare its primary (4) sends makes it broadcast a prepare, and
   three view-change votes would make it join a view change: the same
   messages from a client, from replicas of cluster 0 (including 3,
   just below the range) and from 8 (just past it) must change
   nothing and send nothing. *)
let test_ignores_non_members () =
  let cfg = Config.make ~z:2 ~n:4 ~batch_size:2 () in
  let kc = Keychain.create ~seed:"members" ~n_nodes:10 in
  let engine_handle = Rdb_sim.Engine.create () in
  let sends = ref 0 in
  let ctx : Rdb_pbft.Messages.msg Ctx.t =
    {
      Ctx.id = 5;
      config = cfg;
      keychain = kc;
      rng = Rng.create 5L;
      now = (fun () -> Rdb_sim.Engine.now engine_handle);
      send = (fun ~dsts:_ _ -> incr sends);
      charge = (fun ~stage:_ ~cost:_ k -> k ());
      set_timer = (fun ~delay k -> Rdb_sim.Engine.schedule_after engine_handle ~delay k);
      cancel_timer = Rdb_sim.Engine.cancel;
      execute = (fun _ ~cert:_ ~on_done -> on_done None);
      read_execute = (fun _ ~on_done:_ -> ());
      state_snapshot = (fun () -> None);
      app_restore = (fun _ -> ());
      ledger_read = (fun ~height:_ -> []);
      complete = (fun _ -> ());
      phase = (fun ~key:_ ~name:_ -> ());
    }
  in
  let members = Array.init 4 (fun index -> Config.replica_id cfg ~cluster:1 ~index) in
  let e =
    Engine.create ~ctx ~members ~cluster:1
      ~on_committed:(fun ~seq:_ _ _ -> ())
      ~on_view_change:(fun ~view:_ -> ())
      ()
  in
  let batch =
    Batch.create ~keychain:kc ~id:0 ~cluster:1 ~origin:9
      ~txns:[| Rdb_types.Txn.make ~key:0 ~value:0L ~client_id:0 () |]
      ~created:0
  in
  let probe src =
    Engine.on_message e ~src (Rdb_pbft.Messages.Preprepare { view = 0; seq = 0; batch });
    Engine.on_message e ~src
      (Rdb_pbft.Messages.ViewChange { target = 1; last_stable = -1; prepared = [] })
  in
  List.iter probe [ 9; 0; 3; 8 ];
  Alcotest.(check int) "no sends for non-members" 0 !sends;
  Alcotest.(check int) "still view 0" 0 (Engine.view e);
  Alcotest.(check int) "no slot accepted" 0 (Engine.retained_slots e);
  (* Control: the real primary's preprepare is accepted and answered. *)
  Engine.on_message e ~src:4 (Rdb_pbft.Messages.Preprepare { view = 0; seq = 0; batch });
  Alcotest.(check bool) "member preprepare answered" true (!sends > 0);
  Alcotest.(check int) "member slot accepted" 1 (Engine.retained_slots e)

let suite =
  [
    ("random delivery orders", `Quick, test_random_delivery_orders);
    ("larger group (n=7)", `Quick, test_larger_group);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_agreement_under_async ]
  @ [
      ("checkpoint quorum under a divergent minority", `Quick, test_checkpoint_divergent_minority);
      ("non-member senders ignored", `Quick, test_ignores_non_members);
    ]
