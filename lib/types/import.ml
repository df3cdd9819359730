(* Short aliases for the substrate libraries, opened by the modules of
   this library (and re-exported for downstream protocol libraries). *)

module Time = Rdb_sim.Time
module Engine = Rdb_sim.Engine
module Cpu = Rdb_sim.Cpu
module Network = Rdb_sim.Network
module Topology = Rdb_sim.Topology
module Sha256 = Rdb_crypto.Sha256
module Schnorr = Rdb_crypto.Schnorr
module Keychain = Rdb_crypto.Keychain
module Rng = Rdb_prng.Rng
module Zipf = Rdb_prng.Zipf
