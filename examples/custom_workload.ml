(* Custom workload injection: using the consensus fabric from an
   application, bypassing the built-in YCSB client driver.

   The scenario is a toy multi-region settlement system: ten "hot"
   accounts receive bursts of updates from two regions.  The
   application builds its own transaction batches, submits them
   through each region's client agent, and afterwards audits that
   every replica in every region holds the same account state and the
   same ledger — GeoBFT's non-divergence, observed from application
   level.

     dune exec examples/custom_workload.exe *)

open Resilientdb
module Dep = Deployment.Make (Geobft)

let hot_accounts = 10

let () =
  print_endline "== Custom workload: application-driven batches over GeoBFT ==\n";
  let cfg = Config.make ~z:2 ~n:4 ~batch_size:8 ~client_inflight:4 () in
  let d = Dep.create ~n_records:1_000 cfg in

  (* Disable the built-in YCSB drivers: this application submits its
     own batches. *)
  Dep.pause_client d ~cluster:0;
  Dep.pause_client d ~cluster:1;

  (* Build settlement batches: region 0 credits even accounts, region 1
     credits odd accounts. *)
  let keychain = Dep.keychain d in
  let submitted = ref 0 in
  let submit_burst ~cluster ~burst =
    let agent = Dep.client d ~cluster in
    let origin = Config.client_node cfg ~cluster in
    for b = 0 to burst - 1 do
      let txns =
        Array.init 8 (fun i ->
            let account = (2 * ((b + i) mod (hot_accounts / 2))) + cluster in
            Txn.make ~key:account ~value:(Int64.of_int (100 + b)) ~client_id:(cluster * 10) ())
      in
      let id = (cluster * 1_000_000) + b in
      let batch =
        Batch.create ~keychain ~id ~cluster ~origin ~txns
          ~created:(Engine.now (Dep.engine d))
      in
      incr submitted;
      Geobft.submit agent batch
    done
  in
  submit_burst ~cluster:0 ~burst:25;
  submit_burst ~cluster:1 ~burst:25;
  Printf.printf "submitted %d application batches (%d transactions)\n" !submitted (!submitted * 8);

  (* Let the system drain.  (No new batches arrive, so clusters fill
     their later rounds with no-ops — §2.5 in action.) *)
  Engine.run_until (Dep.engine d) ~until:(Time.sec 5);

  (* Application-level audit. *)
  let metrics = Dep.metrics d in
  ignore metrics;
  let l0 = Dep.ledger d ~replica:0 in
  let real = ref 0 and noops = ref 0 in
  for h = 0 to Ledger.length l0 - 1 do
    if Batch.is_noop (Ledger.get l0 h).Block.batch then incr noops else incr real
  done;
  Printf.printf "replica 0 executed %d application batches (+%d no-op round fillers)\n" !real !noops;

  Printf.printf "\naccount state on replica 0 vs a replica in the other region:\n";
  let r0 = Kv.records (Dep.kv d ~replica:0) and r7 = Kv.records (Dep.kv d ~replica:7) in
  for account = 0 to hot_accounts - 1 do
    let v0 = Bigarray.Array1.get r0 account and v7 = Bigarray.Array1.get r7 account in
    Printf.printf "  account %d: %20Ld %s\n" account v0
      (if Int64.equal v0 v7 then "(agrees)" else "(DIVERGED!)")
  done;

  let agree = ref true in
  for i = 0 to Config.n_replicas cfg - 1 do
    let li = Dep.ledger d ~replica:i in
    if not (Ledger.is_prefix_of li l0 || Ledger.is_prefix_of l0 li) then agree := false
  done;
  Printf.printf "\nall %d replicas agree on the ledger: %b\n" (Config.n_replicas cfg) !agree;
  Printf.printf "ledger audit (certificates at quorum %d): %b\n" (Config.quorum cfg)
    (Ledger.verify_certified l0 ~keychain ~quorum:(Config.quorum cfg))
