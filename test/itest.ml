(* Shared helpers for the protocol integration tests: small, fast
   deployments plus cross-replica safety checks. *)

module Config = Rdb_types.Config
module Time = Rdb_sim.Time
module Ledger = Rdb_ledger.Ledger
module Kv = Rdb_storage.Kv
module Block = Rdb_ledger.Block
module Batch = Rdb_types.Batch

(* Small and fast: 1000-record table, small batches, short timeouts so
   failure tests recover within a few simulated seconds. *)
let small_cfg ?(z = 2) ?(n = 4) ?(batch = 5) ?(inflight = 4) ?(seed = 1) () =
  let base =
    {
      Config.default with
      Config.local_timeout_ms = 500.0;
      remote_timeout_ms = 1_000.0;
      client_timeout_ms = 1_500.0;
      checkpoint_interval = 60;
    }
  in
  Config.make ~base ~z ~n ~batch_size:batch ~client_inflight:inflight ~seed ()

let records = 1000

(* All pairwise ledgers must be prefix-compatible; the shortest must
   not be trivially empty if [min_len] is given. *)
let check_ledger_prefixes ?(min_len = 1) ~ledgers () =
  let n = Array.length ledgers in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = ledgers.(i) and b = ledgers.(j) in
      let ok = Ledger.is_prefix_of a b || Ledger.is_prefix_of b a in
      if not ok then
        Alcotest.failf "ledgers %d and %d diverge (lengths %d, %d; common prefix %d)" i j
          (Ledger.length a) (Ledger.length b) (Ledger.common_prefix a b)
    done
  done;
  let min_length = Array.fold_left (fun acc l -> min acc (Ledger.length l)) max_int ledgers in
  if min_length < min_len then
    Alcotest.failf "expected every ledger to reach %d blocks, shortest has %d" min_len min_length

(* Replicas whose ledgers have equal length must have identical YCSB
   state (deterministic execution): the full state digest, computed
   once per replica. *)
let check_state_agreement ~ledgers ~kvs () =
  let n = Array.length ledgers in
  let digests = Array.map Kv.state_digest kvs in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Ledger.length ledgers.(i) = Ledger.length ledgers.(j) then
        if not (String.equal digests.(i) digests.(j)) then
          Alcotest.failf "replicas %d and %d executed same height but diverged in state" i j
    done
  done

(* -- the failure drill, with teeth -------------------------------------- *)

module GeoDep = Rdb_fabric.Deployment.Make (Rdb_geobft.Replica)

(* The examples/failure_drill.ml scenario at test scale, asserting what
   the example only prints: a backup crash and recovery, a permanent
   primary crash (local view change) and a Byzantine-silent new primary
   (remote view change), after which every replica's ledger — including
   the crashed ones' frozen prefixes — still satisfies
   [Ledger.agreement], and the survivors kept executing. *)
let test_failure_drill () =
  let cfg = small_cfg ~z:2 ~n:4 ~inflight:2 () in
  let d = GeoDep.create ~n_records:records cfg in
  GeoDep.at d ~time:(Time.sec 2) (fun () -> GeoDep.crash_replica d 3);
  GeoDep.at d ~time:(Time.sec 4) (fun () -> GeoDep.recover_replica d 3);
  GeoDep.at d ~time:(Time.sec 5) (fun () -> GeoDep.crash_primary d ~cluster:0);
  GeoDep.at d ~time:(Time.sec 7) (fun () ->
      (* the view-1 primary goes Byzantine-silent toward cluster 1 *)
      GeoDep.add_drop_rule d (fun ~src ~dst -> src = 1 && dst >= 4 && dst < 8));
  let report = GeoDep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 11) d in
  Alcotest.(check bool) "progress through the drill" true
    (report.Rdb_fabric.Report.completed_txns > 0);
  Alcotest.(check bool) "local view changes happened" true (GeoDep.view_changes d > 0);
  let honored = ref 0 in
  for i = 0 to 3 do
    honored := !honored + Rdb_geobft.Replica.remote_vcs_triggered (GeoDep.replica d i)
  done;
  Alcotest.(check bool) "remote view change honored" true (!honored > 0);
  let all = List.init (Config.n_replicas cfg) (fun i -> GeoDep.ledger d ~replica:i) in
  Alcotest.(check bool) "ledger agreement across all replicas" true
    (Ledger.agreement all);
  let live = [ 1; 2; 3; 4; 5; 6; 7 ] in
  let min_live =
    List.fold_left (fun acc i -> min acc (Ledger.length (GeoDep.ledger d ~replica:i)))
      max_int live
  in
  Alcotest.(check bool) "live replicas kept executing" true (min_live >= 8)

let suite = [ ("failure drill with assertions", `Slow, test_failure_drill) ]
