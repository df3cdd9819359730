(* Ledger audit & recovery: the blockchain side of ResilientDB (§3).

   Runs a short GeoBFT deployment and then plays the roles the paper
   describes around the ledger:

   1. an *auditor* verifies a replica's full chain — block hashes, hash
      links, client signatures, and the n − f commit signatures of
      every block's certificate;
   2. a *malicious replica* rewrites one historic block — and the audit
      pinpoints it;
   3. a *recovering replica* copies a suffix of a peer's ledger and
      verifies it independently before trusting it ("a recovering
      replica can simply read the ledger of any replica it chooses and
      directly verify whether the ledger can be trusted");
   4. replicas compare YCSB state digests, demonstrating deterministic
      execution.

   Exits 1 if any verdict is not the expected one, so it doubles as an
   end-to-end check of the ledger and its certificates.

     dune exec examples/ledger_audit.exe *)

open Resilientdb
module Dep = Deployment.Make (Geobft)

let unexpected = ref []

(* Record [what] as unexpected unless [got] is [want]. *)
let expect what ~want got = if got <> want then unexpected := what :: !unexpected

(* Exit 1 naming every unexpected verdict so far, if there is one. *)
let finish () =
  if !unexpected <> [] then begin
    Printf.printf "\nunexpected verdicts: %s\n" (String.concat ", " (List.rev !unexpected));
    exit 1
  end

let () =
  print_endline "== Ledger audit & recovery ==\n";
  let cfg = Config.make ~z:2 ~n:4 ~batch_size:20 ~client_inflight:8 () in
  let d = Dep.create ~n_records:100_000 cfg in
  let _report = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 4) d in
  let keychain = Dep.keychain d in
  let quorum = Config.quorum cfg in

  (* 1. Full audit of replica 0's chain. *)
  let ledger = Dep.ledger d ~replica:0 in
  Printf.printf "replica 0 ledger: %d blocks, %d txns, tip %s...\n" (Ledger.length ledger)
    (Ledger.txn_count ledger)
    (String.sub (Hex.of_string (Ledger.tip_hash ledger)) 0 16);
  let audit = Ledger.verify_certified ledger ~keychain ~quorum in
  expect "full audit" ~want:true audit;
  Printf.printf "full audit (hash links + client sigs + %d-signature certificates): %b\n\n" quorum
    audit;
  (* An empty or short chain verifies too, but leaves no block 3 to
     tamper with: a run that committed that little is itself a failed
     audit. *)
  expect "ledger longer than 3 blocks" ~want:true (Ledger.length ledger > 3);
  finish ();

  (* 2. A malicious replica rewrites history. *)
  let victim = Dep.ledger d ~replica:1 in
  let forged_txns =
    [| Txn.make ~key:42 ~value:999_999L ~client_id:0 () |]
  in
  let forged =
    Batch.create ~keychain ~id:123_456 ~cluster:0
      ~origin:(Config.client_node cfg ~cluster:0) ~txns:forged_txns ~created:Time.zero
  in
  Printf.printf "replica 1 maliciously replaces block 3 with a forged batch...\n";
  Ledger.tamper_for_test victim ~height:3 ~batch:forged;
  let tampered = Ledger.verify victim in
  expect "tampered chain audit" ~want:false tampered;
  Printf.printf "structural audit of replica 1 now fails: %b\n" tampered;
  (* Find exactly where the chain breaks. *)
  let break_at = ref (-1) in
  (try
     for h = 0 to Ledger.length victim - 1 do
       if not (Block.hash_valid (Ledger.get victim h)) then begin
         break_at := h;
         raise Exit
       end
     done
   with Exit -> ());
  expect "first invalid height" ~want:3 !break_at;
  Printf.printf "first invalid block: height %d (the tampered one)\n\n" !break_at;

  (* 3. Recovery: replica 1 discards its corrupt suffix and re-reads it
     from replica 2, verifying independently. *)
  let source = Dep.ledger d ~replica:2 in
  let suffix = Ledger.read_from source ~height:3 in
  Printf.printf "recovering: fetched %d blocks from replica 2 starting at height 3\n"
    (List.length suffix);
  let rebuilt = Ledger.create () in
  (* Rebuild a fresh copy: prefix from the honest local state (heights
     0-2 are untampered), suffix from the peer. *)
  for h = 0 to 2 do
    let b = Ledger.get victim h in
    ignore (Ledger.append rebuilt ~round:h ~cluster:b.Block.cluster ~batch:b.Block.batch ~cert:b.Block.cert)
  done;
  List.iter
    (fun (b : Block.t) ->
      ignore
        (Ledger.append rebuilt ~round:b.Block.height ~cluster:b.Block.cluster ~batch:b.Block.batch
           ~cert:b.Block.cert))
    suffix;
  let rebuilt_ok = Ledger.verify_certified rebuilt ~keychain ~quorum in
  let matches = Ledger.is_prefix_of rebuilt ledger || Ledger.is_prefix_of ledger rebuilt in
  expect "rebuilt ledger audit" ~want:true rebuilt_ok;
  expect "rebuilt ledger matches replica 0" ~want:true matches;
  Printf.printf "rebuilt ledger verifies: %b; matches replica 0's chain: %b\n\n" rebuilt_ok
    matches;

  (* 4. Deterministic execution: identical state digests wherever the
     same prefix was executed.  The run was stopped mid-flight, so one
     replica may be a block or two ahead; compare a pair at the same
     height. *)
  let n_repl = Config.n_replicas cfg in
  let heights = Array.init n_repl (fun i -> Ledger.length (Dep.ledger d ~replica:i)) in
  (* Find two replicas stopped at the same height. *)
  let pair = ref None in
  for i = 0 to n_repl - 1 do
    for j = i + 1 to n_repl - 1 do
      if !pair = None && heights.(i) = heights.(j) then pair := Some (i, j)
    done
  done;
  (match !pair with
  | Some (i, j) ->
      let di = Kv.state_digest (Dep.kv d ~replica:i) in
      let dj = Kv.state_digest (Dep.kv d ~replica:j) in
      Printf.printf "YCSB state digests at height %d: replica %d %s..., replica %d %s...\n"
        heights.(i) i
        (String.sub (Hex.of_string di) 0 16)
        j
        (String.sub (Hex.of_string dj) 0 16);
      expect "state digests identical" ~want:true (String.equal di dj);
      Printf.printf "identical: %b (deterministic execution)\n" (String.equal di dj)
  | None ->
      print_endline
        "no two replicas stopped at the same height (all within a block of each other)");
  finish ()
