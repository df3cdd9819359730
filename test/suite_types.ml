(* Shared-type tests: transactions, batches (signing, integrity),
   commit certificates, wire sizes (the §4 calibration points),
   configuration layout/quorums, and the generic client core. *)

module Txn = Rdb_types.Txn
module Batch = Rdb_types.Batch
module Certificate = Rdb_types.Certificate
module Config = Rdb_types.Config
module Ctx = Rdb_types.Ctx
module Wire = Rdb_types.Wire
module Client_core = Rdb_types.Client_core
module Keychain = Rdb_crypto.Keychain
module Schnorr = Rdb_crypto.Schnorr
module Engine = Rdb_sim.Engine
module Time = Rdb_sim.Time

let kc = lazy (Keychain.create ~seed:"types-test" ~n_nodes:10)

let mk_batch ?(id = 1) ?(cluster = 0) ?(origin = 8) ?op () =
  let txns =
    Array.init 5 (fun i -> Txn.make ?op ~key:i ~value:(Int64.of_int (i * i)) ~client_id:3 ())
  in
  Batch.create ~keychain:(Lazy.force kc) ~id ~cluster ~origin ~txns ~created:Time.zero

(* -- Txn / Batch ------------------------------------------------------------ *)

let test_txn_serialize_distinct () =
  let a = Txn.make ~key:1 ~value:2L ~client_id:3 () in
  let b = Txn.make ~key:1 ~value:2L ~client_id:4 () in
  let c = Txn.make ~op:Txn.Read ~key:1 ~value:2L ~client_id:3 () in
  Alcotest.(check bool) "client distinguishes" false (Txn.serialize a = Txn.serialize b);
  Alcotest.(check bool) "op distinguishes" false (Txn.serialize a = Txn.serialize c)

let test_batch_verify () =
  let b = mk_batch () in
  Alcotest.(check bool) "valid batch verifies" true (Batch.verify ~keychain:(Lazy.force kc) b);
  (* Tampering with a transaction invalidates the digest. *)
  let tampered =
    { b with Batch.txns = Array.map (fun t -> { t with Txn.value = 999L }) b.Batch.txns }
  in
  Alcotest.(check bool) "tampered batch rejected" false
    (Batch.verify ~keychain:(Lazy.force kc) tampered);
  (* A different origin cannot have produced this signature. *)
  let forged = { b with Batch.origin = 9 } in
  Alcotest.(check bool) "forged origin rejected" false
    (Batch.verify ~keychain:(Lazy.force kc) forged)

let test_batch_noop () =
  let kc = Lazy.force kc in
  let n1 = Batch.noop ~keychain:kc ~cluster:0 ~origin:0 ~created:Time.zero ~nonce:1 in
  let n2 = Batch.noop ~keychain:kc ~cluster:0 ~origin:0 ~created:Time.zero ~nonce:2 in
  Alcotest.(check bool) "noop flagged" true (Batch.is_noop n1);
  Alcotest.(check bool) "real batch not noop" false (Batch.is_noop (mk_batch ()));
  Alcotest.(check bool) "distinct nonces, distinct digests" false
    (String.equal n1.Batch.digest n2.Batch.digest);
  Alcotest.(check bool) "noop verifies" true (Batch.verify ~keychain:kc n1)

(* -- Certificate -------------------------------------------------------------- *)

let mk_cert ?(signers = [ 0; 1; 2; 3; 4 ]) ?(cluster = 0) ?(view = 0) ?(seq = 7) digest =
  let kc = Lazy.force kc in
  let payload = Certificate.commit_payload ~cluster ~view ~seq ~digest in
  let commits =
    List.map
      (fun r -> { Certificate.replica = r; signature = Keychain.sign kc ~signer:r payload })
      signers
  in
  Certificate.make ~cluster ~view ~seq ~digest ~commits

let test_certificate_verify () =
  let kc = Lazy.force kc in
  let cert = mk_cert "digest-value" in
  Alcotest.(check bool) "valid cert" true (Certificate.verify ~keychain:kc ~quorum:5 cert);
  Alcotest.(check bool) "insufficient quorum" false (Certificate.verify ~keychain:kc ~quorum:6 cert)

let test_certificate_duplicate_signers () =
  let kc = Lazy.force kc in
  let cert = mk_cert ~signers:[ 0; 0; 0; 1; 2 ] "d" in
  (* Five entries but only three distinct signers. *)
  Alcotest.(check bool) "duplicate signers rejected" false
    (Certificate.verify ~keychain:kc ~quorum:5 cert)

let test_certificate_wrong_payload () =
  let kc = Lazy.force kc in
  let cert = mk_cert "d" in
  (* Re-binding the certificate to another sequence number invalidates
     every signature. *)
  let moved = { cert with Certificate.seq = 8 } in
  Alcotest.(check bool) "rebound cert rejected" false
    (Certificate.verify ~keychain:kc ~quorum:5 moved)

(* -- Wire sizes: the §4 calibration points ------------------------------------- *)

let test_wire_sizes_match_paper () =
  (* "messages have sizes of 5.4 kB (preprepare), 6.4 kB (commit
     certificates containing seven commit messages...), 1.5 kB (client
     responses), and 250 B (other messages)" — batch size 100. *)
  Alcotest.(check int) "preprepare 5.4kB" 5400 (Wire.preprepare_bytes ~batch_size:100);
  Alcotest.(check int) "certificate 6.4kB" 6401 (Wire.certificate_bytes ~batch_size:100 ~sigs:7);
  Alcotest.(check int) "response 1.5kB" 1500 (Wire.response_bytes ~batch_size:100);
  Alcotest.(check int) "small 250B" 250 Wire.small

(* -- Config --------------------------------------------------------------------- *)

let test_config_layout () =
  let cfg = Config.make ~z:3 ~n:7 () in
  Alcotest.(check int) "f" 2 (Config.f cfg);
  Alcotest.(check int) "quorum" 5 (Config.quorum cfg);
  Alcotest.(check int) "weak quorum" 3 (Config.weak_quorum cfg);
  Alcotest.(check int) "replicas" 21 (Config.n_replicas cfg);
  Alcotest.(check int) "nodes" 24 (Config.n_nodes cfg);
  Alcotest.(check int) "cluster of replica 15" 2 (Config.cluster_of_replica cfg 15);
  Alcotest.(check int) "local index" 1 (Config.local_index cfg 15);
  Alcotest.(check int) "replica id" 15 (Config.replica_id cfg ~cluster:2 ~index:1);
  Alcotest.(check (list int)) "cluster members" [ 7; 8; 9; 10; 11; 12; 13 ]
    (Config.replicas_of_cluster cfg 1);
  Alcotest.(check int) "client node" 22 (Config.client_node cfg ~cluster:1);
  Alcotest.(check bool) "client detection" true (Config.is_client cfg 22);
  Alcotest.(check int) "client cluster" 1 (Config.cluster_of_client cfg 22);
  Alcotest.(check int) "primary view 0" 7 (Config.primary cfg ~cluster:1 ~view:0);
  Alcotest.(check int) "primary rotates" 8 (Config.primary cfg ~cluster:1 ~view:8)

let test_config_f_values () =
  List.iter
    (fun (n, f) -> Alcotest.(check int) (Printf.sprintf "f(n=%d)" n) f (Config.f (Config.make ~n ())))
    [ (4, 1); (7, 2); (10, 3); (12, 3); (13, 4); (15, 4) ]

(* -- Client core ------------------------------------------------------------------ *)

(* A minimal ctx over a bare engine for unit-testing the client core;
   [sent] records every (destination, message), newest first. *)
let mk_client_ctx () =
  let engine = Engine.create () in
  let cfg = Config.make ~z:1 ~n:4 () in
  let sent = ref [] in
  let completed = ref [] in
  let ctx =
    {
      Ctx.id = 4;
      config = { cfg with Config.client_timeout_ms = 100.0 };
      keychain = Lazy.force kc;
      rng = Rdb_prng.Rng.create 1L;
      now = (fun () -> Engine.now engine);
      send =
        (fun ~dsts m -> List.iter (fun dst -> sent := (dst, m) :: !sent) dsts);
      charge = (fun ~stage:_ ~cost:_ k -> k ());
      set_timer = (fun ~delay k -> Engine.schedule_after engine ~delay k);
      cancel_timer = Engine.cancel;
      execute = (fun _ ~cert:_ ~on_done -> on_done None);
      read_execute = (fun _ ~on_done:_ -> ());
      state_snapshot = (fun () -> None);
      app_restore = (fun _ -> ());
      ledger_read = (fun ~height:_ -> []);
      complete = (fun b -> completed := b.Batch.id :: !completed);
      phase = (fun ~key:_ ~name:_ -> ());
    }
  in
  (engine, ctx, sent, completed)

(* The messages the core under test sends. *)
type client_msg = Req of int | Read of int

let request (b : Batch.t) = Req b.Batch.id

let test_client_core_threshold () =
  let engine, ctx, _sent, completed = mk_client_ctx () in
  let transmits = ref 0 in
  let pick () =
    incr transmits;
    0
  in
  let core = Client_core.create ~ctx ~threshold:2 ~request ~route:(Pick pick) () in
  let b = mk_batch ~id:42 () in
  Client_core.submit core b;
  Alcotest.(check int) "transmitted once" 1 !transmits;
  Client_core.on_reply core ~src:0 ~batch_id:42 ~result_digest:"r";
  Alcotest.(check (list int)) "below threshold: not complete" [] !completed;
  (* A mismatching reply does not count towards the quorum. *)
  Client_core.on_reply core ~src:1 ~batch_id:42 ~result_digest:"WRONG";
  Alcotest.(check (list int)) "mismatch ignored" [] !completed;
  Client_core.on_reply core ~src:2 ~batch_id:42 ~result_digest:"r";
  Alcotest.(check (list int)) "threshold reached" [ 42 ] !completed;
  (* Late duplicate replies are harmless. *)
  Client_core.on_reply core ~src:3 ~batch_id:42 ~result_digest:"r";
  Alcotest.(check (list int)) "no double completion" [ 42 ] !completed;
  Engine.run engine;
  Alcotest.(check int) "no retransmit after completion" 1 !transmits

let test_client_core_retransmit () =
  let engine, ctx, sent, completed = mk_client_ctx () in
  let core =
    Client_core.create ~ctx ~threshold:2 ~request
      ~route:(Primary { initial = 0; retry = [ 1 ] }) ()
  in
  (* Retries, and only retries, go to replica 1. *)
  let retries () = List.length (List.filter (fun (dst, _) -> dst = 1) !sent) in
  Client_core.submit core (mk_batch ~id:1 ());
  (* Exponential backoff: retransmits land at 100, 300 (100+200) and
     700 (300+400) ms after submission. *)
  Engine.run_until engine ~until:(Time.ms 350);
  Alcotest.(check int) "retransmits back off (100ms, then 200ms)" 2 (retries ());
  Engine.run_until engine ~until:(Time.ms 750);
  Alcotest.(check int) "third retransmit after a 400ms backoff" 3 (retries ());
  Alcotest.(check (list int)) "still incomplete" [] !completed

let test_client_core_duplicate_submit () =
  let _, ctx, _, _ = mk_client_ctx () in
  let transmits = ref 0 in
  let pick () =
    incr transmits;
    0
  in
  let core = Client_core.create ~ctx ~threshold:1 ~request ~route:(Pick pick) () in
  let b = mk_batch ~id:5 () in
  Client_core.submit core b;
  Client_core.submit core b;
  Alcotest.(check int) "duplicate submit ignored" 1 !transmits

(* A core with pbft's shape: requests to the primary, retries and
   bypass reads to every replica. *)
let mk_routed_core () =
  let engine, ctx, sent, completed = mk_client_ctx () in
  let core =
    Client_core.create ~ctx ~threshold:2 ~request
      ~read:((fun b -> Read b.Batch.id), [ 0; 1; 2; 3 ])
      ~route:(Primary { initial = 0; retry = [ 0; 1; 2; 3 ] }) ()
  in
  (engine, core, sent, completed)

let test_client_core_read_path () =
  let engine, core, sent, _ = mk_routed_core () in
  let b = mk_batch ~id:7 ~op:Txn.Read () in
  Alcotest.(check bool) "batch is read-only" true (Batch.read_only b);
  Client_core.submit core b;
  Alcotest.(check (list (pair int bool))) "first transmission: read to the read destinations"
    [ (0, true); (1, true); (2, true); (3, true) ]
    (List.rev_map (fun (dst, m) -> (dst, m = Read 7)) !sent);
  (* One timeout (100 ms): the read falls back onto an ordered retry. *)
  sent := [];
  Engine.run_until engine ~until:(Time.ms 150);
  Alcotest.(check (list (pair int bool))) "timeout: ordered request to the retry route"
    [ (0, true); (1, true); (2, true); (3, true) ]
    (List.rev_map (fun (dst, m) -> (dst, m = Req 7)) !sent);
  Alcotest.(check int) "one read fallback" 1 (Client_core.read_fallbacks core);
  (* A second timeout retries again but is no new fallback. *)
  Engine.run_until engine ~until:(Time.ms 350);
  Alcotest.(check int) "two retransmits" 2 (Client_core.retransmits core);
  Alcotest.(check int) "still one read fallback" 1 (Client_core.read_fallbacks core)

let test_client_core_primary_hint () =
  let _, core, sent, completed = mk_routed_core () in
  Client_core.submit core (mk_batch ~id:1 ());
  Alcotest.(check (list int)) "first request to the initial primary" [ 0 ]
    (List.map fst !sent);
  (* A reply naming primary 2 (for any batch) retargets the next first
     transmission. *)
  Client_core.on_reply ~primary:2 core ~src:3 ~batch_id:1 ~result_digest:"r";
  sent := [];
  Client_core.submit core (mk_batch ~id:2 ());
  Alcotest.(check (list (pair int bool))) "next request to the hinted primary" [ (2, true) ]
    (List.map (fun (dst, m) -> (dst, m = Req 2)) !sent);
  Client_core.on_reply core ~src:0 ~batch_id:1 ~result_digest:"r";
  Alcotest.(check (list int)) "replies without a hint still count" [ 1 ] !completed;
  sent := [];
  Client_core.submit core (mk_batch ~id:3 ());
  Alcotest.(check (list int)) "no hint keeps the guess" [ 2 ] (List.map fst !sent)

let suite =
  [
    ("txn serialization", `Quick, test_txn_serialize_distinct);
    ("batch sign/verify/tamper", `Quick, test_batch_verify);
    ("batch noop", `Quick, test_batch_noop);
    ("certificate verify", `Quick, test_certificate_verify);
    ("certificate duplicate signers", `Quick, test_certificate_duplicate_signers);
    ("certificate payload binding", `Quick, test_certificate_wrong_payload);
    ("wire sizes match paper", `Quick, test_wire_sizes_match_paper);
    ("config layout", `Quick, test_config_layout);
    ("config f values", `Quick, test_config_f_values);
    ("client core threshold", `Quick, test_client_core_threshold);
    ("client core retransmit", `Quick, test_client_core_retransmit);
    ("client core duplicate submit", `Quick, test_client_core_duplicate_submit);
    ("client core read path and fallback", `Quick, test_client_core_read_path);
    ("client core primary hint", `Quick, test_client_core_primary_hint);
  ]

let test_ctx_map_send () =
  (* map_send translates payloads and keeps the fan-out; costs are the
     fabric's, priced from the outer protocol's wire declaration. *)
  let engine = Engine.create () in
  let sent = ref [] in
  let cfg = Config.make ~z:1 ~n:4 () in
  let ctx : string Ctx.t =
    {
      Ctx.id = 1;
      config = cfg;
      keychain = Lazy.force kc;
      rng = Rdb_prng.Rng.create 1L;
      now = (fun () -> Engine.now engine);
      send =
        (fun ~dsts m -> List.iter (fun dst -> sent := (dst, m) :: !sent) dsts);
      charge = (fun ~stage:_ ~cost:_ k -> k ());
      set_timer = (fun ~delay k -> Engine.schedule_after engine ~delay k);
      cancel_timer = Engine.cancel;
      execute = (fun _ ~cert:_ ~on_done -> on_done None);
      read_execute = (fun _ ~on_done:_ -> ());
      state_snapshot = (fun () -> None);
      app_restore = (fun _ -> ());
      ledger_read = (fun ~height:_ -> []);
      complete = (fun _ -> ());
      phase = (fun ~key:_ ~name:_ -> ());
    }
  in
  let inner : int Ctx.t = Ctx.map_send string_of_int ctx in
  Ctx.send inner ~dst:3 42;
  Alcotest.(check (list (pair int string))) "send translated" [ (3, "42") ] !sent;
  Ctx.multicast inner ~dsts:[ 0; 1; 2 ] 7;
  Alcotest.(check (list (pair int string)))
    "multicast fanout in list order"
    [ (2, "7"); (1, "7"); (0, "7"); (3, "42") ]
    !sent

let test_view_change_sizes () =
  (* A view-change message grows with the prepared certificates it
     carries. *)
  let base = Wire.view_change_bytes ~batch_size:100 ~prepared:0 in
  let five = Wire.view_change_bytes ~batch_size:100 ~prepared:5 in
  Alcotest.(check int) "empty = small" Wire.small base;
  Alcotest.(check bool) "grows with prepared" true (five > base + (5 * 5000))

let test_noop_id_space () =
  (* No-op ids never collide with client batch ids (which are >= 0). *)
  List.iter
    (fun nonce ->
      Alcotest.(check bool) "negative id" true (Batch.noop_id_of_nonce nonce < 0))
    [ 0; 1; 5; 1_000_000 ]

let test_threshold_cert_costs () =
  let plain = Config.make ~z:4 ~n:13 () in
  let thr = { plain with Config.threshold_certs = true } in
  Alcotest.(check bool) "threshold verify cheaper at n=13" true
    (Config.cert_verify_cost thr < Config.cert_verify_cost plain);
  Alcotest.(check int) "one wire signature" 1 (Config.cert_wire_sigs thr);
  Alcotest.(check int) "n-f wire signatures" 9 (Config.cert_wire_sigs plain)

let suite =
  suite
  @ [
      ("ctx map_send & multicast", `Quick, test_ctx_map_send);
      ("view-change sizes", `Quick, test_view_change_sizes);
      ("noop id space", `Quick, test_noop_id_space);
      ("threshold cert costs", `Quick, test_threshold_cert_costs);
    ]

(* Commit signatures are over these exact bytes: pinned so a rewrite of
   the builder cannot move a single signed byte. *)
let test_commit_payload_bytes () =
  let digest = "\x00:\xffd" in
  Alcotest.(check string) "payload" ("commit:3:12:4567:" ^ digest)
    (Certificate.commit_payload ~cluster:3 ~view:12 ~seq:4567 ~digest);
  Alcotest.(check string) "zero fields, empty digest" "commit:0:0:0:"
    (Certificate.commit_payload ~cluster:0 ~view:0 ~seq:0 ~digest:"")

let suite = suite @ [ ("commit payload bytes", `Quick, test_commit_payload_bytes) ]

(* A stripped batch keeps nothing of its payload reachable: neither
   through [txns] nor through the verification memo of the batch it
   was copied from. *)
let test_strip_releases_payload () =
  let w = Weak.create 1 in
  let strip_verified () =
    let b = mk_batch () in
    Alcotest.(check bool) "source verifies" true (Batch.verify ~keychain:(Lazy.force kc) b);
    Weak.set w 0 (Some b.Batch.txns);
    (Batch.strip b, b.Batch.digest)
  in
  let s, digest = (Sys.opaque_identity strip_verified) () in
  Gc.full_major ();
  Alcotest.(check bool) "source txns collected" false (Weak.check w 0);
  Alcotest.(check bool) "stripped" true (Batch.stripped s);
  Alcotest.(check string) "digest kept" digest s.Batch.digest

let suite = suite @ [ ("strip releases the payload", `Quick, test_strip_releases_payload) ]

(* -- Flat certificates --------------------------------------------------------- *)

(* Signature words a forger can put on the wire: the sign bit, values
   at and above the group order, both extremes. *)
let odd_words =
  [ Int64.min_int; -1L; Int64.max_int; 0L; 0x2000_0000_0000_0000L; 0x1fff_ffff_ffff_ffffL ]

let test_certificate_round_trip () =
  let commits =
    List.concat
      (List.mapi
         (fun i e ->
           List.mapi
             (fun j s ->
               { Certificate.replica = (i * 100) + j - 3; signature = { Schnorr.e; s } })
             odd_words)
         odd_words)
  in
  let cert = Certificate.make ~cluster:1 ~view:2 ~seq:3 ~digest:"d" ~commits in
  Alcotest.(check int) "n_signatures" (List.length commits) (Certificate.n_signatures cert);
  let same (a : Certificate.commit_sig) (b : Certificate.commit_sig) =
    a.replica = b.replica && Int64.equal a.signature.e b.signature.e
    && Int64.equal a.signature.s b.signature.s
  in
  Alcotest.(check bool) "every signer and word back exactly" true
    (List.for_all2 same commits (Certificate.commits cert));
  let sg = { Schnorr.e = Int64.min_int; s = -1L } in
  Alcotest.(check bool) "wire encoding round-trips the sign bit" true
    (Schnorr.signature_of_string (Schnorr.signature_to_string sg) = Some sg)

let test_certificate_verdicts () =
  let kc = Lazy.force kc in
  let cert = mk_cert ~signers:[ 4; 0; 3; 1; 2 ] "d" in
  Alcotest.(check bool) "valid, any input order" true
    (Certificate.verify ~keychain:kc ~quorum:5 cert);
  let base = Certificate.commits cert in
  let edit k f =
    Certificate.make ~cluster:0 ~view:0 ~seq:7 ~digest:"d"
      ~commits:(List.mapi (fun i c -> if i = k then f c else c) base)
  in
  let forge k f = edit k (fun c -> { c with Certificate.signature = f c.Certificate.signature }) in
  let rejected =
    [
      ("tampered signer", edit 2 (fun c -> { c with Certificate.replica = 7 }));
      ("tampered e", forge 1 (fun sg -> { sg with Schnorr.e = Int64.succ sg.e }));
      ("tampered s", forge 3 (fun sg -> { sg with Schnorr.s = Int64.succ sg.s }));
      ("e sign bit", forge 0 (fun sg -> { sg with Schnorr.e = Int64.logxor sg.e Int64.min_int }));
      ("s sign bit", forge 4 (fun sg -> { sg with Schnorr.s = Int64.logxor sg.s Int64.min_int }));
      ("duplicate signer", edit 4 (fun _ -> List.nth base 3));
      ( "below quorum",
        Certificate.make ~cluster:0 ~view:0 ~seq:7 ~digest:"d"
          ~commits:(List.filteri (fun i _ -> i < 4) base) );
    ]
  in
  List.iter
    (fun (what, c) ->
      Alcotest.(check bool) what false (Certificate.verify ~keychain:kc ~quorum:5 c);
      Alcotest.(check bool) (what ^ ", again") false (Certificate.verify ~keychain:kc ~quorum:5 c))
    rejected;
  Alcotest.(check bool) "original still valid" true (Certificate.verify ~keychain:kc ~quorum:5 cert)

(* 3 words per signer plus the record and the string header: a
   19-signer certificate, as a 28-replica Pbft ledger block holds. *)
let test_certificate_size () =
  let kc19 = Keychain.create ~seed:"size" ~n_nodes:28 in
  let payload = Certificate.commit_payload ~cluster:0 ~view:0 ~seq:1 ~digest:"dd" in
  let commits =
    List.init 19 (fun r ->
        { Certificate.replica = r; signature = Keychain.sign kc19 ~signer:r payload })
  in
  let digest = String.make 32 'x' in
  let cert = Certificate.make ~cluster:0 ~view:0 ~seq:1 ~digest ~commits in
  let words = Obj.reachable_words (Obj.repr cert) - Obj.reachable_words (Obj.repr digest) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words <= 3 x 19 + 10" words)
    true
    (words <= (3 * 19) + 10)

(* The ledgers of one deployment share a certificate only with one of
   equal content.  A different commit set over the same (cluster,
   view, seq, digest) and a tampered copy each keep their own object,
   an equal copy takes the first, and every verdict and audit is the
   one the certificate had alone. *)
let test_certificate_sharing_content_guard () =
  let module Ledger = Rdb_ledger.Ledger in
  let kc = Lazy.force kc in
  let batch = mk_batch () in
  let digest = batch.Batch.digest in
  let cert = mk_cert ~signers:[ 0; 1; 2; 3; 4 ] digest in
  let other_set = mk_cert ~signers:[ 0; 1; 2; 3; 5 ] digest in
  let tampered =
    { cert with Certificate.commits = (mk_cert ~signers:[ 0; 1; 2; 3; 4 ] "other").commits }
  in
  let copy = { cert with Certificate.seq = cert.Certificate.seq } in
  let certs = [ cert; other_set; tampered; copy ] in
  let verdicts () = List.map (Certificate.verify ~keychain:kc ~quorum:5) certs in
  Alcotest.(check (list bool)) "verdicts alone" [ true; true; false; true ] (verdicts ());
  Alcotest.(check (list bool)) "content equal to the first" [ true; false; false; true ]
    (List.map (Certificate.equal cert) certs);
  let pool = Ledger.pool ~retain_payloads:true in
  let held =
    List.map
      (fun c ->
        let l = Ledger.create ~pool () in
        let b = Ledger.append l ~round:0 ~cluster:0 ~batch ~cert:(Some c) in
        (l, Option.get b.Rdb_ledger.Block.cert))
      certs
  in
  let expected = [ cert; other_set; tampered; cert ] in
  List.iteri
    (fun i ((_, h), e) ->
      Alcotest.(check bool) (Printf.sprintf "ledger %d holds its certificate's object" i) true
        (h == e))
    (List.combine held expected);
  Alcotest.(check (list bool)) "verdicts after sharing" [ true; true; false; true ] (verdicts ());
  Alcotest.(check (list bool)) "audits" [ true; true; false; true ]
    (List.map (fun (l, _) -> Ledger.verify_certified l ~keychain:kc ~quorum:5) held)

let suite =
  suite
  @ [
      ("certificate round trip", `Quick, test_certificate_round_trip);
      ("certificate verdicts", `Quick, test_certificate_verdicts);
      ("certificate size", `Quick, test_certificate_size);
      ("certificate sharing is keyed on content", `Quick, test_certificate_sharing_content_guard);
    ]
