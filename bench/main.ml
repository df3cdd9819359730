(* Bechamel micro-benchmarks of the substrates.  The regression gate is
   `dune build @bench/bench-check` (see bench/dune); the paper's tables
   and figures are run and printed by `rdb_cli sweep` (and Table 1 by
   `rdb_cli matrix`).

   Usage:
     dune exec bench/main.exe -- micro *)

module Runner = Rdb_experiments.Runner
module Scenario = Rdb_experiments.Scenario
module Config = Rdb_types.Config

let say fmt = Printf.printf fmt

(* -- Bechamel micro-benchmarks ----------------------------------------------- *)

let micro_tests () =
  let open Bechamel in
  let sha_payload = String.make 5400 'x' in
  let sk = Rdb_crypto.Schnorr.keygen ~seed:"bench" ~key_id:0 in
  let pk = Rdb_crypto.Schnorr.public_key sk in
  let sg = Rdb_crypto.Schnorr.sign sk "payload" in
  let zipf = Rdb_prng.Zipf.create Rdb_ycsb.Table.default_records in
  let zipf_rng = Rdb_prng.Rng.create 1L in
  let jitter_rng = Rdb_prng.Rng.create 1L in
  let mk name f = Test.make ~name (Staged.stage f) in
  (* Paper-sized (600k-record) disk stores, each in a temp dir removed
     at exit. *)
  let micro_store ?snapshot_every () =
    let dir = Filename.temp_file "rdb-micro-store" "" in
    Sys.remove dir;
    let store =
      Rdb_storage.Blockstore.open_or_create ?snapshot_every ~dir
        ~n_records:Rdb_ycsb.Table.default_records ()
    in
    at_exit (fun () ->
        Rdb_storage.Blockstore.close store;
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir);
    store
  in
  (* One full-image compaction. *)
  let store = micro_store () in
  (* One delta compaction with 3,200 records dirty since the full image:
     a store that compacts after every block, its dirty set seeded by
     one 3,200-write block, then timed on one-write blocks to a key
     already dirty. *)
  let delta_store = micro_store ~snapshot_every:1 () in
  let dirty_keys = Array.init 3_200 (fun i -> i * 187) in
  Rdb_storage.Blockstore.log_block delta_store ~height:0 ~keys:dirty_keys
    ~values:(Array.map Int64.of_int dirty_keys) ~count:3_200;
  let delta_height = ref 1 in
  let state = Rdb_storage.Backend.init_records ~n_records:Rdb_ycsb.Table.default_records in
  (* One 27-destination send from inside an event, plus its deliveries:
     a 28-replica broadcast through the pooled fan-out. *)
  let fan_engine = Rdb_sim.Engine.create () in
  let fan_net =
    Rdb_sim.Network.create ~engine:fan_engine ~topo:(Rdb_sim.Topology.clustered ~z:4 ~n:7)
      ~jitter_ms:0.2
      ~deliver:(fun ~src:_ ~dst:_ () -> ())
      ()
  in
  let fan_dsts = List.init 27 (fun i -> i + 1) in
  let fan_send () = Rdb_sim.Network.multicast fan_net ~src:0 ~dsts:fan_dsts ~size:250 () in
  (* One n = 28 Pbft decision at a backup: a fresh engine at replica 1
     receives the primary's preprepare, then a prepare and a signed
     commit from each of the 27 other members, through a loopback Ctx
     (sends dropped, CPU charges run inline, timers inert).  The
     commits are signed once, up front. *)
  let decision =
    let module M = Rdb_pbft.Messages in
    let kc = Rdb_crypto.Keychain.create ~seed:"bench-decision" ~n_nodes:29 in
    let clock = Rdb_sim.Engine.create () in
    let inert = Rdb_sim.Engine.schedule_after clock ~delay:Rdb_sim.Time.zero ignore in
    let ctx : M.msg Rdb_types.Ctx.t =
      {
        Rdb_types.Ctx.id = 1;
        config = Config.make ~z:4 ~n:7 ~batch_size:100 ();
        keychain = kc;
        rng = Rdb_prng.Rng.create 1L;
        now = (fun () -> Rdb_sim.Time.zero);
        send = (fun ~dsts:_ _ -> ());
        charge = (fun ~stage:_ ~cost:_ k -> k ());
        set_timer = (fun ~delay:_ _ -> inert);
        cancel_timer = ignore;
        execute = (fun _ ~cert:_ ~on_done -> on_done None);
        read_execute = (fun _ ~on_done:_ -> ());
        state_snapshot = (fun () -> None);
        app_restore = ignore;
        ledger_read = (fun ~height:_ -> []);
        complete = ignore;
        phase = (fun ~key:_ ~name:_ -> ());
      }
    in
    let batch =
      Rdb_types.Batch.create ~keychain:kc ~id:0 ~cluster:0 ~origin:28 ~created:Rdb_sim.Time.zero
        ~txns:(Array.init 100 (fun key -> Rdb_types.Txn.make ~key ~value:1L ~client_id:0 ()))
    in
    let digest = batch.Rdb_types.Batch.digest in
    let payload = Rdb_types.Certificate.commit_payload ~cluster:0 ~view:0 ~seq:0 ~digest in
    let others = List.filter (fun i -> i <> 1) (List.init 28 Fun.id) in
    let votes =
      List.map (fun src -> (src, M.Prepare { view = 0; seq = 0; digest })) others
      @ List.map
          (fun src ->
            let signature = Rdb_crypto.Keychain.sign kc ~signer:src payload in
            (src, M.Commit { view = 0; seq = 0; digest; signature }))
          others
    in
    let preprepare = M.Preprepare { view = 0; seq = 0; batch } in
    let members = Array.init 28 Fun.id in
    fun () ->
      let decided = ref false in
      let e =
        Rdb_pbft.Engine.create ~ctx ~members ~cluster:0
          ~on_committed:(fun ~seq:_ _ _ -> decided := true)
          ~on_view_change:(fun ~view:_ -> ())
          ()
      in
      Rdb_pbft.Engine.on_message e ~src:0 preprepare;
      List.iter (fun (src, m) -> Rdb_pbft.Engine.on_message e ~src m) votes;
      if not !decided then failwith "pbft-decision-n28: no decision"
  in
  [
    mk "sha256-5400B" (fun () -> ignore (Rdb_crypto.Sha256.digest sha_payload));
    mk "schnorr-sign" (fun () -> ignore (Rdb_crypto.Schnorr.sign sk "payload"));
    mk "schnorr-verify" (fun () -> ignore (Rdb_crypto.Schnorr.verify pk "payload" sg));
    mk "sim-10k-events" (fun () ->
        let e = Rdb_sim.Engine.create () in
        for i = 1 to 10_000 do
          ignore (Rdb_sim.Engine.schedule_at e ~at:(Rdb_sim.Time.ns i) (fun () -> ()))
        done;
        Rdb_sim.Engine.run e);
    mk "sim-fanout-27" (fun () ->
        ignore (Rdb_sim.Engine.schedule_after fan_engine ~delay:Rdb_sim.Time.zero fan_send);
        while Rdb_sim.Engine.step fan_engine do
          ()
        done);
    mk "pbft-decision-n28" decision;
    (* The jitter draw [Network] takes per delivered message. *)
    mk "rng-float-1k" (fun () ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Rdb_prng.Rng.float jitter_rng))
        done);
    mk "zipf-sample-600k" (fun () -> ignore (Rdb_prng.Zipf.sample_scrambled zipf zipf_rng));
    mk "snapshot-600k" (fun () -> Rdb_storage.Blockstore.note_restore store ~height:0);
    mk "delta-compaction-600k" (fun () ->
        Rdb_storage.Blockstore.log_block delta_store ~height:!delta_height ~keys:[| 0 |]
          ~values:[| 0L |] ~count:1;
        incr delta_height);
    mk "state-digest-600k" (fun () -> ignore (Rdb_storage.Backend.digest_records state));
  ]
  (* One deployment benchmark per protocol: the full cost of simulating
     half a second of a small geo deployment. *)
  @ List.map
      (fun p ->
        Test.make
          ~name:(Printf.sprintf "sim-0.5s-%s" (Scenario.proto_name p))
          (Staged.stage (fun () ->
               let cfg = Config.make ~z:2 ~n:4 ~batch_size:10 ~client_inflight:4 () in
               let windows =
                 { Runner.warmup = Rdb_sim.Time.ms 100; measure = Rdb_sim.Time.ms 400 }
               in
               ignore (Runner.run (Scenario.make ~windows p cfg)))))
      Scenario.all_protocols

(* Minor words allocated, read with [Gc.minor_words].  Bechamel's own
   [minor_allocated] reads [Gc.quick_stat], which on OCaml 5.1 leaves
   out the live minor heap, so a run that allocates less than a minor
   heap between two samples reads as 0 words there. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "w"
end

let minor_words = Bechamel.Measure.register (module Minor_words)

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  say "\n== Bechamel micro-benchmarks ==\n%!";
  let words_instance = Measure.instance (module Minor_words) minor_words in
  let instances = [ Instance.monotonic_clock; words_instance ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let estimate o = match Analyze.OLS.estimates o with Some (est :: _) -> Some est | _ -> None in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"" ~fmt:"%s%s" [ test ]) in
      let words = Analyze.all ols words_instance raw in
      Hashtbl.iter
        (fun name o ->
          let words =
            match Option.bind (Hashtbl.find_opt words name) estimate with
            | Some w -> Printf.sprintf " %12.1f words/run" w
            | None -> ""
          in
          match estimate o with
          | Some est ->
              if est > 1e6 then say "  %-28s %12.3f ms/run%s\n%!" name (est /. 1e6) words
              else say "  %-28s %12.1f ns/run%s\n%!" name est words
          | None -> say "  %-28s (no estimate)\n%!" name)
        (Analyze.all ols Instance.monotonic_clock raw))
    (micro_tests ())

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "micro" ] -> run_micro ()
  | _ ->
      say
        "usage: main.exe micro\n\
         (the regression gate: dune build @bench/bench-check; the paper's tables and figures: \
         resilientdb-cli sweep MATRIX, resilientdb-cli matrix)\n";
      exit 2
