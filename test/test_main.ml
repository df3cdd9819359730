(* The ResilientDB reproduction test suite.

   Suites map one-to-one to the repo's subsystems: the crypto and PRNG
   substrates, the discrete-event simulator, the shared types, the
   ledger, the YCSB workload, each consensus protocol, and the fabric.
   Run with `dune runtest`; ALCOTEST_QUICK_TESTS=1 skips the slower
   failure-injection scenarios. *)

let () =
  Alcotest.run "resilientdb"
    [
      ("crypto", Suite_crypto.suite);
      ("prng", Suite_prng.suite);
      ("sim", Suite_sim.suite);
      ("types", Suite_types.suite);
      ("ledger", Suite_ledger.suite);
      ("ycsb", Suite_ycsb.suite);
      ("storage", Suite_storage.suite);
      ("pbft", Suite_pbft.suite);
      ("pbft-model", Suite_pbft_model.suite);
      ("geobft", Suite_geobft.suite);
      ("zyzzyva", Suite_zyzzyva.suite);
      ("hotstuff", Suite_hotstuff.suite);
      ("steward", Suite_steward.suite);
      ("recovery", Suite_recovery.suite);
      ("fabric", Suite_fabric.suite);
      ("parallel", Suite_parallel.suite);
      ("scale", Suite_scale.suite);
      ("trace", Suite_trace.suite);
      ("integration", Itest.suite);
      ("experiments", Suite_experiments.suite);
      ("sweep", Suite_sweep.suite);
      ("byzantine", Suite_byzantine.suite);
      ("chaos", Suite_chaos.suite);
      ("check", Suite_check.suite);
      ("adversary", Suite_adversary.suite);
    ]
