(* Ledger tests: hash chaining, tamper detection, recovery reads,
   certified audit, prefix relations — the §3 "The ledger" properties. *)

module Txn = Rdb_types.Txn
module Batch = Rdb_types.Batch
module Certificate = Rdb_types.Certificate
module Keychain = Rdb_crypto.Keychain
module Time = Rdb_sim.Time
module Block = Rdb_ledger.Block
module Ledger = Rdb_ledger.Ledger

let kc = lazy (Keychain.create ~seed:"ledger-test" ~n_nodes:8)

let mk_batch id =
  let txns = Array.init 3 (fun i -> Txn.make ~key:(id + i) ~value:(Int64.of_int id) ~client_id:1 ()) in
  Batch.create ~keychain:(Lazy.force kc) ~id ~cluster:0 ~origin:7 ~txns ~created:Time.zero

let mk_cert (b : Batch.t) ~seq =
  let kc = Lazy.force kc in
  let payload = Certificate.commit_payload ~cluster:0 ~view:0 ~seq ~digest:b.Batch.digest in
  let commits =
    List.map
      (fun r -> { Certificate.replica = r; signature = Keychain.sign kc ~signer:r payload })
      [ 0; 1; 2 ]
  in
  Certificate.make ~cluster:0 ~view:0 ~seq ~digest:b.Batch.digest ~commits

(* A ledger alone in its pool, keeping every batch whole. *)
let fresh () = Ledger.create ~pool:(Ledger.pool ~retain_payloads:true) ()

let build n =
  let l = fresh () in
  for i = 0 to n - 1 do
    let b = mk_batch i in
    ignore (Ledger.append l ~round:i ~cluster:0 ~batch:b ~cert:(Some (mk_cert b ~seq:i)))
  done;
  l

let test_append_and_verify () =
  let l = build 20 in
  Alcotest.(check int) "length" 20 (Ledger.length l);
  Alcotest.(check int) "txns" 60 (Ledger.txn_count l);
  Alcotest.(check bool) "chain verifies" true (Ledger.verify l);
  Alcotest.(check bool) "certified audit passes" true
    (Ledger.verify_certified l ~keychain:(Lazy.force kc) ~quorum:3);
  Alcotest.(check bool) "strict quorum fails" false
    (Ledger.verify_certified l ~keychain:(Lazy.force kc) ~quorum:4)

let test_tamper_detected () =
  let l = build 10 in
  Ledger.tamper_for_test l ~height:4 ~batch:(mk_batch 999);
  Alcotest.(check bool) "tampering detected" false (Ledger.verify l)

let test_hash_links () =
  let l = build 5 in
  for i = 1 to 4 do
    Alcotest.(check string) "prev link" (Ledger.get l (i - 1)).Block.hash
      (Ledger.get l i).Block.prev_hash
  done;
  Alcotest.(check string) "genesis link" Block.genesis_hash (Ledger.get l 0).Block.prev_hash;
  Alcotest.(check string) "tip" (Ledger.get l 4).Block.hash (Ledger.tip_hash l)

let test_read_from () =
  let l = build 10 in
  let suffix = Ledger.read_from l ~height:7 in
  Alcotest.(check int) "suffix length" 3 (List.length suffix);
  Alcotest.(check int) "first height" 7 (List.hd suffix).Block.height;
  Alcotest.(check int) "empty suffix" 0 (List.length (Ledger.read_from l ~height:10))

let test_prefix_relation () =
  let a = build 10 and b = build 15 in
  Alcotest.(check bool) "a prefix of b" true (Ledger.is_prefix_of a b);
  Alcotest.(check bool) "b not prefix of a" false (Ledger.is_prefix_of b a);
  Alcotest.(check int) "common prefix" 10 (Ledger.common_prefix a b);
  Ledger.tamper_for_test a ~height:5 ~batch:(mk_batch 777);
  (* common_prefix compares stored hashes, which tampering does not
     recompute — so rebuild instead with a diverging block. *)
  let c = build 10 in
  let d = fresh () in
  for i = 0 to 9 do
    let b = mk_batch (if i = 5 then 500 else i) in
    ignore (Ledger.append d ~round:i ~cluster:0 ~batch:b ~cert:(Some (mk_cert b ~seq:i)))
  done;
  Alcotest.(check int) "diverge at 5" 5 (Ledger.common_prefix c d)

let test_empty_ledger () =
  let l = fresh () in
  Alcotest.(check bool) "empty verifies" true (Ledger.verify l);
  Alcotest.(check bool) "empty is prefix" true (Ledger.is_prefix_of l (build 3));
  Alcotest.(check string) "tip is genesis" Block.genesis_hash (Ledger.tip_hash l)

let test_missing_cert_fails_audit () =
  let l = fresh () in
  let b = mk_batch 0 in
  ignore (Ledger.append l ~round:0 ~cluster:0 ~batch:b ~cert:None);
  Alcotest.(check bool) "structure ok" true (Ledger.verify l);
  Alcotest.(check bool) "audit fails without cert" false
    (Ledger.verify_certified l ~keychain:(Lazy.force kc) ~quorum:3)

let prop_ledger_verify_random_sizes =
  QCheck.Test.make ~name:"ledger of any size verifies" ~count:20 QCheck.(int_bound 50)
    (fun n ->
      let l = build n in
      Ledger.verify l && Ledger.length l = n)

let suite =
  [
    ("append and verify", `Quick, test_append_and_verify);
    ("tamper detection", `Quick, test_tamper_detected);
    ("hash links", `Quick, test_hash_links);
    ("recovery read", `Quick, test_read_from);
    ("prefix relation", `Quick, test_prefix_relation);
    ("empty ledger", `Quick, test_empty_ledger);
    ("missing cert audit", `Quick, test_missing_cert_fails_audit);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_ledger_verify_random_sizes ]
