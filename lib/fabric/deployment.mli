(** The ResilientDB fabric: wires a consensus protocol into a simulated
    geo-scale deployment (paper §3).

    [Make (P)] builds, for a {!Rdb_types.Config.t} (z clusters × n
    replicas, one client group per cluster): the Table-1-calibrated
    WAN, the per-node CPU pipeline (Figure 9's threads), keys for all
    nodes, a ledger and a {!Rdb_storage.Kv} state machine per replica
    (views on one shared in-memory image, or each backed by the
    persistent block store), protocol replicas and client agents, and
    closed-loop YCSB client drivers.  Construction internals (node
    contexts, driver refill, packet delivery) are private to the
    implementation. *)

module Time = Rdb_sim.Time

(** What travels on the simulated wire: the protocol payload plus its
    receive cost, priced at the send by [Protocol.S.wire].  Interposers
    and delivery hooks observe (and may rewrite) payloads; the vcost
    stays with the packet, and the network carries its size beside
    it. *)
type 'm packet = 'm Deployment_intf.packet = { payload : 'm; vcost : Time.t }

(** A deployment of one protocol: what [Make] returns, named so that
    drivers dispatching over protocols (the experiment runner) can pack
    any of the five as a first-class module.  Its declarations and
    their documentation are in {!Deployment_intf.S}. *)
module type S = Deployment_intf.S

module Make (P : Rdb_types.Protocol.S) :
  S with type msg = P.msg and type replica = P.replica and type client = P.client
