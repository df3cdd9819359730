(* YCSB substrate tests: identical initialization, deterministic
   execution, state digests, and workload generation (§4's setup: 600 k
   records, Zipfian, write queries). *)

module Txn = Rdb_types.Txn
module Batch = Rdb_types.Batch
module Table = Rdb_ycsb.Table
module Workload = Rdb_ycsb.Workload

let test_identical_initialization () =
  let a = Table.create ~n_records:10_000 () in
  let b = Table.create ~n_records:10_000 () in
  Alcotest.(check string) "same initial digest" (Rdb_crypto.Hex.of_string (Table.state_digest a))
    (Rdb_crypto.Hex.of_string (Table.state_digest b));
  Alcotest.(check int64) "same fingerprint" (Table.quick_fingerprint a) (Table.quick_fingerprint b)

let test_default_size () =
  let t = Table.create () in
  Alcotest.(check int) "600k records (paper)" 600_000 (Table.n_records t)

let test_apply_read_write () =
  let t = Table.create ~n_records:100 () in
  let before = Table.read t ~key:5 in
  let r = Table.apply t (Txn.make ~op:Txn.Read ~key:5 ~value:0L ~client_id:1 ()) in
  Alcotest.(check int64) "read returns value" before r;
  let w = Table.apply t (Txn.make ~key:5 ~value:42L ~client_id:1 ()) in
  Alcotest.(check int64) "write updates" w (Table.read t ~key:5);
  Alcotest.(check bool) "write changed value" true (not (Int64.equal before (Table.read t ~key:5)));
  Alcotest.(check int) "write counted" 1 (Table.writes t);
  Alcotest.(check int) "read counted" 1 (Table.reads t)

let test_order_sensitivity () =
  (* Execution order must be visible in the state: replicas that apply
     the same batches in different orders diverge (this is what the
     safety tests detect). *)
  let t1 = Table.create ~n_records:100 () in
  let t2 = Table.create ~n_records:100 () in
  let a = Txn.make ~key:7 ~value:1L ~client_id:1 () in
  let b = Txn.make ~key:7 ~value:2L ~client_id:1 () in
  ignore (Table.apply t1 a);
  ignore (Table.apply t1 b);
  ignore (Table.apply t2 b);
  ignore (Table.apply t2 a);
  Alcotest.(check bool) "order matters" true
    (not (Int64.equal (Table.read t1 ~key:7) (Table.read t2 ~key:7)))

let test_deterministic_replay () =
  let t1 = Table.create ~n_records:1000 () in
  let t2 = Table.create ~n_records:1000 () in
  let w = Workload.create ~n_records:1000 ~seed:9 ~client_base:0 () in
  let batches = Array.init 20 (fun _ -> Workload.next_batch_txns w ~batch_size:10) in
  Array.iter (fun b -> ignore (Table.apply_batch t1 b)) batches;
  Array.iter (fun b -> ignore (Table.apply_batch t2 b)) batches;
  Alcotest.(check int64) "identical state after replay" (Table.quick_fingerprint t1)
    (Table.quick_fingerprint t2)

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
      let t = Table.create ~n_records:1000 () in
      let d0 = Table.state_digest t in
      ignore (Table.apply t (Txn.make ~key ~value:(Int64.of_int (v + 1)) ~client_id:0 ()));
      not (String.equal d0 (Table.state_digest t)))

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
