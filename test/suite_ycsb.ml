(* YCSB substrate tests: identical initialization, deterministic
   execution, state digests, and workload generation (§4's setup: 600 k
   records, Zipfian, write queries).  Execution goes through each
   replica's state machine, Rdb_storage.Kv, here one-transaction
   batches at a time. *)

module Txn = Rdb_types.Txn
module Batch = Rdb_types.Batch
module App = Rdb_types.App
module Table = Rdb_ycsb.Table
module Workload = Rdb_ycsb.Workload
module Kv = Rdb_storage.Kv

let kc = Rdb_crypto.Keychain.create ~seed:"ycsb-suite" ~n_nodes:1
let batch_of ?(id = 0) txns = Batch.create ~keychain:kc ~id ~cluster:0 ~origin:0 ~txns ~created:0
let one ?id txn = batch_of ?id [| txn |]
let record kv key = Bigarray.Array1.get (Kv.records kv) key

(* The result digest of [b] when its transactions return [values]. *)
let result_digest (b : Batch.t) values =
  let buf = Buffer.create 64 in
  Buffer.add_string buf b.Batch.digest;
  List.iter (Buffer.add_int64_le buf) values;
  Rdb_crypto.Sha256.digest (Buffer.contents buf)

let test_identical_initialization () =
  let a = Kv.memory ~n_records:10_000 () in
  let b = Kv.memory ~n_records:10_000 () in
  Alcotest.(check string) "same initial digest" (Rdb_crypto.Hex.of_string (Kv.state_digest a))
    (Rdb_crypto.Hex.of_string (Kv.state_digest b))

let test_default_size () =
  let t = Kv.memory () in
  Alcotest.(check int) "600k records (paper)" 600_000 (Bigarray.Array1.dim (Kv.records t));
  Alcotest.(check int) "one constant" Table.default_records (Bigarray.Array1.dim (Kv.records t))

let test_apply_read_write () =
  let t = Kv.memory ~n_records:100 () in
  let before = record t 5 in
  let rb = one (Txn.make ~op:Txn.Read ~key:5 ~value:0L ~client_id:1 ()) in
  let r = Kv.read t rb in
  Alcotest.(check string) "read returns value" (result_digest rb [ before ]) r.App.digest;
  let wb = one ~id:1 (Txn.make ~key:5 ~value:42L ~client_id:1 ()) in
  let w = Kv.apply t wb in
  Alcotest.(check string) "write updates" (result_digest wb [ record t 5 ]) w.App.digest;
  Alcotest.(check bool) "write changed value" true (not (Int64.equal before (record t 5)));
  Alcotest.(check int) "write counted" 1 w.App.writes;
  Alcotest.(check int) "read counted" 1 r.App.reads

let test_order_sensitivity () =
  (* Execution order must be visible in the state: replicas that apply
     the same batches in different orders diverge (this is what the
     safety tests detect). *)
  let t1 = Kv.memory ~n_records:100 () in
  let t2 = Kv.memory ~n_records:100 () in
  let a = one ~id:1 (Txn.make ~key:7 ~value:1L ~client_id:1 ()) in
  let b = one ~id:2 (Txn.make ~key:7 ~value:2L ~client_id:1 ()) in
  ignore (Kv.apply t1 a);
  ignore (Kv.apply t1 b);
  ignore (Kv.apply t2 b);
  ignore (Kv.apply t2 a);
  Alcotest.(check bool) "order matters" true (not (Int64.equal (record t1 7) (record t2 7)))

let test_deterministic_replay () =
  let t1 = Kv.memory ~n_records:1000 () in
  let t2 = Kv.memory ~n_records:1000 () in
  let w = Workload.create ~n_records:1000 ~seed:9 ~client_base:0 () in
  let txns = Array.concat (List.init 20 (fun _ -> Workload.next_batch_txns w ~batch_size:10)) in
  let batches = Array.mapi (fun id txn -> one ~id txn) txns in
  Array.iter (fun b -> ignore (Kv.apply t1 b)) batches;
  Array.iter (fun b -> ignore (Kv.apply t2 b)) batches;
  Alcotest.(check string) "identical state after replay" (Kv.state_digest t1)
    (Kv.state_digest t2)

let test_workload_determinism () =
  let w1 = Workload.create ~n_records:1000 ~seed:5 ~client_base:0 () in
  let w2 = Workload.create ~n_records:1000 ~seed:5 ~client_base:0 () in
  for _ = 1 to 100 do
    Alcotest.(check string) "same stream" (Txn.serialize (Workload.next_txn w1))
      (Txn.serialize (Workload.next_txn w2))
  done;
  let w3 = Workload.create ~n_records:1000 ~seed:6 ~client_base:0 () in
  Alcotest.(check bool) "different seed differs" true
    (Txn.serialize (Workload.next_txn w1) <> Txn.serialize (Workload.next_txn w3))

let test_workload_write_queries () =
  (* §4: "we use write queries".  Default write fraction is 1.0. *)
  let w = Workload.create ~n_records:1000 ~seed:1 ~client_base:0 () in
  for _ = 1 to 200 do
    let t = Workload.next_txn w in
    Alcotest.(check bool) "write query" true (t.Txn.op = Txn.Write)
  done

let test_workload_mixed () =
  let w = Workload.create ~n_records:1000 ~write_fraction:0.5 ~seed:1 ~client_base:0 () in
  let writes = ref 0 in
  let n = 2000 in
  for _ = 1 to n do
    if (Workload.next_txn w).Txn.op = Txn.Write then incr writes
  done;
  let frac = float_of_int !writes /. float_of_int n in
  Alcotest.(check bool) "about half writes" true (abs_float (frac -. 0.5) < 0.05)

let test_workload_keys_in_range () =
  let w = Workload.create ~n_records:500 ~seed:2 ~client_base:0 () in
  for _ = 1 to 1000 do
    let t = Workload.next_txn w in
    Alcotest.(check bool) "key in range" true (t.Txn.key >= 0 && t.Txn.key < 500)
  done

let test_workload_batches () =
  let w = Workload.create ~n_records:1000 ~seed:3 ~client_base:100 () in
  let b = Workload.next_batch_txns w ~batch_size:50 in
  Alcotest.(check int) "batch size" 50 (Array.length b);
  Alcotest.(check int) "generated counter" 50 (Workload.generated w);
  Array.iter
    (fun t -> Alcotest.(check bool) "client ids from base" true (t.Txn.client_id >= 100))
    b

let test_zero_fractions_identical_stream () =
  (* The mixed-workload extension must not perturb the historical RNG
     stream: with both class fractions at 0, the generator is
     byte-for-byte the write-only generator (this is what keeps every
     pinned trace digest valid). *)
  let w1 = Workload.create ~n_records:1000 ~seed:11 ~client_base:0 () in
  let w2 =
    Workload.create ~n_records:1000 ~read_fraction:0.0 ~scan_fraction:0.0 ~seed:11
      ~client_base:0 ()
  in
  for _ = 1 to 40 do
    let b1 = Workload.next_batch_txns w1 ~batch_size:10 in
    let b2 = Workload.next_batch_txns w2 ~batch_size:10 in
    Array.iteri
      (fun i t ->
        Alcotest.(check string) "identical stream" (Txn.serialize t) (Txn.serialize b2.(i)))
      b1
  done;
  Alcotest.(check int) "no read batches" 0 (Workload.read_batches w2);
  Alcotest.(check int) "no scan batches" 0 (Workload.scan_batches w2);
  Alcotest.(check int) "all write batches" 40 (Workload.write_batches w2)

let test_mixed_batches_are_classed () =
  (* Class is drawn per batch so whole batches stay eligible for the
     read-path bypass: every generated batch is uniformly one class,
     and read/scan batches satisfy Batch.read_only. *)
  let kc = Rdb_crypto.Keychain.create ~seed:"ycsb-mix" ~n_nodes:1 in
  let w =
    Workload.create ~n_records:1000 ~read_fraction:0.4 ~scan_fraction:0.2 ~seed:21
      ~client_base:0 ()
  in
  let n = 300 in
  for i = 1 to n do
    let txns = Workload.next_batch_txns w ~batch_size:8 in
    let classes =
      Array.fold_left
        (fun acc t ->
          match t.Txn.op with
          | Txn.Read -> acc lor 1
          | Txn.Scan -> acc lor 2
          | Txn.Write -> acc lor 4)
        0 txns
    in
    Alcotest.(check bool) "one class per batch" true
      (classes = 1 || classes = 2 || classes = 4);
    let b = Batch.create ~keychain:kc ~id:i ~cluster:0 ~origin:0 ~txns ~created:0 in
    if classes land 4 = 0 then
      Alcotest.(check bool) "read/scan batches are read-only" true (Batch.read_only b)
    else Alcotest.(check bool) "write batches are not read-only" false (Batch.read_only b)
  done;
  let rb = Workload.read_batches w
  and sb = Workload.scan_batches w
  and wb = Workload.write_batches w in
  Alcotest.(check int) "every batch classed" n (rb + sb + wb);
  let frac x = float_of_int x /. float_of_int n in
  Alcotest.(check bool) "about 40% reads" true (abs_float (frac rb -. 0.4) < 0.1);
  Alcotest.(check bool) "about 20% scans" true (abs_float (frac sb -. 0.2) < 0.1);
  Alcotest.(check bool) "about 40% writes" true (abs_float (frac wb -. 0.4) < 0.1)

let test_mixed_workload_determinism () =
  let mk () =
    Workload.create ~n_records:1000 ~read_fraction:0.5 ~scan_fraction:0.1 ~seed:31
      ~client_base:0 ()
  in
  let w1 = mk () and w2 = mk () in
  for _ = 1 to 50 do
    let b1 = Workload.next_batch_txns w1 ~batch_size:5 in
    let b2 = Workload.next_batch_txns w2 ~batch_size:5 in
    Array.iteri
      (fun i t ->
        Alcotest.(check string) "mixed stream deterministic" (Txn.serialize t)
          (Txn.serialize b2.(i)))
      b1
  done

let prop_digest_changes_on_write =
  QCheck.Test.make ~name:"state digest changes on every write" ~count:30
    QCheck.(pair (int_bound 999) small_int)
    (fun (key, v) ->
      let t = Kv.memory ~n_records:1000 () in
      let d0 = Kv.state_digest t in
      ignore (Kv.apply t (one (Txn.make ~key ~value:(Int64.of_int (v + 1)) ~client_id:0 ())));
      not (String.equal d0 (Kv.state_digest t)))

let suite =
  [
    ("identical initialization", `Quick, test_identical_initialization);
    ("default 600k records", `Quick, test_default_size);
    ("apply read/write", `Quick, test_apply_read_write);
    ("order sensitivity", `Quick, test_order_sensitivity);
    ("deterministic replay", `Quick, test_deterministic_replay);
    ("workload determinism", `Quick, test_workload_determinism);
    ("workload write queries", `Quick, test_workload_write_queries);
    ("workload mixed read/write", `Quick, test_workload_mixed);
    ("workload key range", `Quick, test_workload_keys_in_range);
    ("workload batching", `Quick, test_workload_batches);
    ("zero fractions, identical stream", `Quick, test_zero_fractions_identical_stream);
    ("mixed batches are classed", `Quick, test_mixed_batches_are_classed);
    ("mixed workload determinism", `Quick, test_mixed_workload_determinism);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_digest_changes_on_write ]

(* Client groups of one deployment share one Zipf sampler (the last
   one built on the domain): every generator's stream is the same as
   with a freshly built sampler of its own, however the groups
   interleave. *)
let test_shared_zipf_same_stream () =
  let module Zipf = Rdb_prng.Zipf in
  let z = Zipf.create 1000 in
  Alcotest.(check bool) "same key space: the same sampler" true (z == Zipf.create 1000);
  Alcotest.(check bool) "another constant: another sampler" false
    (z == Zipf.create ~theta:0.5 1000);
  Alcotest.(check bool) "another key count: another sampler" false (z == Zipf.create 999);
  List.iter
    (fun (read_fraction, scan_fraction) ->
      let mk seed =
        Workload.create ~n_records:1000 ~read_fraction ~scan_fraction ~seed
          ~client_base:(seed * 10) ()
      in
      (* Building a sampler over another key count first forces a
         fresh one for each of these. *)
      let own =
        Array.init 3 (fun g ->
            ignore (Zipf.create 999);
            mk (40 + g))
      in
      let shared = Array.init 3 (fun g -> mk (40 + g)) in
      for round = 0 to 49 do
        for g = 2 downto 0 do
          let a = Workload.next_batch_txns own.(g) ~batch_size:7 in
          let b = Workload.next_batch_txns shared.(g) ~batch_size:7 in
          Alcotest.(check (array string))
            (Printf.sprintf "r=%.1f s=%.1f group %d batch %d" read_fraction scan_fraction g round)
            (Array.map Txn.serialize a) (Array.map Txn.serialize b)
        done
      done)
    [ (0.0, 0.0); (0.5, 0.1) ]

let suite = suite @ [ ("shared zipf, same stream", `Quick, test_shared_zipf_same_stream) ]
