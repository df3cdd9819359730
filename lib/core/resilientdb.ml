(* ResilientDB — OCaml reproduction of "ResilientDB: Global Scale
   Resilient Blockchain Fabric" (Gupta, Rahnama, Hellings, Sadoghi;
   PVLDB 13(6), 2020).

   This is the single public entry point: it re-exports every subsystem
   under one namespace.  Quick tour (see README.md for a worked
   example):

   {[
     module Dep = Resilientdb.Deployment.Make (Resilientdb.Geobft)

     let () =
       let cfg = Resilientdb.Config.make ~z:4 ~n:7 ~batch_size:100 () in
       let d = Dep.create cfg in
       let report = Dep.run d in
       print_endline (Resilientdb.Report.to_string report)
   ]}

   Layers, bottom-up:
   - {!Rng}, {!Zipf}: deterministic randomness and the YCSB Zipfian law;
   - {!Sha256}, {!Aes128}, {!Cmac}, {!Hmac}, {!Schnorr}, {!Keychain}:
     the cryptographic primitives of §3 (all implemented in-repo);
   - {!Time}, {!Engine}, {!Topology}, {!Network}, {!Cpu}: the
     discrete-event simulation substrate, calibrated from Table 1;
   - {!Txn}, {!Batch}, {!Certificate}, {!Wire}, {!Config}, {!Ctx},
     {!Protocol}: the shared consensus vocabulary;
   - {!Ledger}, {!Block}: the hash-chained blockchain of §3;
   - {!Table}, {!Workload}: the YCSB store and generator of §4;
   - {!Geobft} (the paper's contribution) and the four baselines
     {!Pbft}, {!Zyzzyva}, {!Hotstuff}, {!Steward} — all satisfying
     {!Protocol.S};
   - {!Deployment}, {!Metrics}, {!Report}: the fabric;
   - {!Chaos}: seeded fault injection with continuous safety-invariant
     checking over a running deployment;
   - {!Experiments}: the §4 evaluation (Figures 10-13, Tables 1-2). *)

(* Randomness *)
module Splitmix64 = Rdb_prng.Splitmix64
module Rng = Rdb_prng.Rng
module Zipf = Rdb_prng.Zipf

(* Cryptography *)
module Hex = Rdb_crypto.Hex
module Sha256 = Rdb_crypto.Sha256
module Aes128 = Rdb_crypto.Aes128
module Cmac = Rdb_crypto.Cmac
module Hmac = Rdb_crypto.Hmac
module Field61 = Rdb_crypto.Field61
module Schnorr = Rdb_crypto.Schnorr
module Keychain = Rdb_crypto.Keychain

(* Simulation substrate *)
module Time = Rdb_sim.Time
module Engine = Rdb_sim.Engine
module Topology = Rdb_sim.Topology
module Network = Rdb_sim.Network
module Cpu = Rdb_sim.Cpu
module Net_stats = Rdb_sim.Stats

(* Consensus-path tracing (Chrome trace-event JSON + per-phase
   aggregation + deterministic digest) *)
module Trace = Rdb_trace.Trace

(* Shared types *)
module Txn = Rdb_types.Txn
module Batch = Rdb_types.Batch
module Certificate = Rdb_types.Certificate
module Wire = Rdb_types.Wire
module Config = Rdb_types.Config
module Ctx = Rdb_types.Ctx
module Protocol = Rdb_types.Protocol
module Client_core = Rdb_types.Client_core

(* Ledger *)
module Block = Rdb_ledger.Block
module Ledger = Rdb_ledger.Ledger

(* YCSB, and the state machine that executes it on every replica *)
module Table = Rdb_ycsb.Table
module Workload = Rdb_ycsb.Workload
module Kv = Rdb_storage.Kv

(* Consensus protocols (all satisfy {!Protocol.S}) *)
module Geobft = Rdb_geobft.Replica
module Geobft_messages = Rdb_geobft.Messages
module Pbft = Rdb_pbft.Replica
module Pbft_engine = Rdb_pbft.Engine
module Pbft_messages = Rdb_pbft.Messages
module Zyzzyva = Rdb_zyzzyva.Replica
module Hotstuff = Rdb_hotstuff.Replica
module Steward = Rdb_steward.Replica

(* Fabric *)
module Deployment = Rdb_fabric.Deployment
module Metrics = Rdb_fabric.Metrics
module Report = Rdb_fabric.Report
module Json = Rdb_fabric.Json

(* Chaos fault injection + invariant monitoring *)
module Chaos = Rdb_chaos.Chaos
module Recovery = Rdb_recovery.Recovery
module Catchup = Rdb_recovery.Catchup

(* Byzantine-strategy subsystem: attack programs + the send/receive
   interposition vocabulary they compile into *)
module Adversary = Rdb_adversary.Adversary
module Interpose = Rdb_types.Interpose

(* Schedule-exploration checker *)
module Check = Rdb_check.Check
module Perturb = Rdb_check.Perturb
module Mutation = Rdb_types.Mutation

(* Paper evaluation *)
module Scenario = Rdb_experiments.Scenario
module Sweep = Rdb_sweep.Sweep

module Experiments = struct
  module Scenario = Rdb_experiments.Scenario
  module Runner = Rdb_experiments.Runner
  module Figures = Rdb_experiments.Figures
  module Tables = Rdb_experiments.Tables
  module Ablations = Rdb_experiments.Ablations
end
