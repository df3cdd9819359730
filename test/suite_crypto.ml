(* Crypto substrate tests: the NIST vectors for SHA-256, functional and
   property tests for the Schnorr signatures and their field arithmetic,
   and the keychain's verification memo and size. *)

open Rdb_crypto

let check_hex msg expected actual = Alcotest.(check string) msg expected (Hex.of_string actual)

(* -- SHA-256: FIPS 180-4 / NIST CAVS vectors -------------------------------- *)

(* Every vector runs through the OCaml reference and, when this CPU has
   the SHA extensions, through the kernel. *)
let nist_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ( String.make 1_000_000 'a',
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
  ]

let digest_with init msg =
  let ctx = init () in
  Sha256.feed_string ctx msg;
  Sha256.finalize ctx

let test_sha256_vectors () =
  if not Sha256.native then
    print_endline "note: no SHA extensions on this CPU; the kernel leg is skipped";
  List.iter
    (fun (msg, expected) ->
      let name = Printf.sprintf "%d bytes" (String.length msg) in
      check_hex ("reference " ^ name) expected (digest_with Sha256.init_reference msg);
      if Sha256.native then check_hex ("kernel " ^ name) expected (digest_with Sha256.init msg))
    nist_vectors

let test_sha256_incremental () =
  (* Incremental feeding across arbitrary chunk boundaries must equal
     the one-shot digest. *)
  let msg = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let one_shot = Sha256.digest msg in
  List.iter
    (fun chunk ->
      let ctx = Sha256.init () in
      let i = ref 0 in
      while !i < String.length msg do
        let k = min chunk (String.length msg - !i) in
        Sha256.feed_string ctx (String.sub msg !i k);
        i := !i + k
      done;
      Alcotest.(check string)
        (Printf.sprintf "chunk=%d" chunk)
        (Hex.of_string one_shot)
        (Hex.of_string (Sha256.finalize ctx)))
    [ 1; 3; 7; 55; 56; 63; 64; 65; 128; 999 ]

let test_sha256_digest_list () =
  Alcotest.(check string)
    "digest_list = digest of concat"
    (Sha256.digest_hex "foobarbaz")
    (Hex.of_string (Sha256.digest_list [ "foo"; "bar"; "baz" ]))

(* -- Schnorr ----------------------------------------------------------------------- *)

let test_schnorr_roundtrip () =
  let sk = Schnorr.keygen ~seed:"test-seed" ~key_id:7 in
  let pk = Schnorr.public_key sk in
  let sg = Schnorr.sign sk "the quick brown fox" in
  Alcotest.(check bool) "valid signature verifies" true (Schnorr.verify pk "the quick brown fox" sg);
  Alcotest.(check bool) "wrong message rejected" false (Schnorr.verify pk "the quick brown fax" sg)

let test_schnorr_wrong_key () =
  let sk1 = Schnorr.keygen ~seed:"seed" ~key_id:1 in
  let sk2 = Schnorr.keygen ~seed:"seed" ~key_id:2 in
  let sg = Schnorr.sign sk1 "msg" in
  Alcotest.(check bool) "other key rejects" false (Schnorr.verify (Schnorr.public_key sk2) "msg" sg)

let test_schnorr_deterministic () =
  let sk = Schnorr.keygen ~seed:"seed" ~key_id:3 in
  let a = Schnorr.sign sk "m" and b = Schnorr.sign sk "m" in
  Alcotest.(check bool) "deterministic signatures" true (a = b)

let test_schnorr_encoding () =
  let sk = Schnorr.keygen ~seed:"seed" ~key_id:4 in
  let sg = Schnorr.sign sk "payload" in
  match Schnorr.signature_of_string (Schnorr.signature_to_string sg) with
  | Some sg' -> Alcotest.(check bool) "roundtrip" true (sg = sg')
  | None -> Alcotest.fail "decode failed"

(* -- Keychain ------------------------------------------------------------------------ *)

let test_keychain () =
  let kc = Keychain.create ~seed:"kc" ~n_nodes:5 in
  let sg = Keychain.sign kc ~signer:2 "hello" in
  Alcotest.(check bool) "sign/verify" true (Keychain.verify kc ~signer:2 "hello" sg);
  Alcotest.(check bool) "wrong signer" false (Keychain.verify kc ~signer:3 "hello" sg);
  Alcotest.(check bool) "out of range" false (Keychain.verify kc ~signer:9 "hello" sg)

(* -- Hex -------------------------------------------------------------------------------- *)

let test_hex_roundtrip () =
  let s = String.init 256 Char.chr in
  Alcotest.(check string) "roundtrip" s (Hex.to_string (Hex.of_string s));
  Alcotest.(check string) "known" "deadbeef" (Hex.of_string "\xde\xad\xbe\xef");
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.to_string: odd length") (fun () ->
      ignore (Hex.to_string "abc"))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ("sha256 NIST vectors", `Quick, test_sha256_vectors);
    ("sha256 incremental", `Quick, test_sha256_incremental);
    ("sha256 digest_list", `Quick, test_sha256_digest_list);
    ("schnorr roundtrip", `Quick, test_schnorr_roundtrip);
    ("schnorr wrong key", `Quick, test_schnorr_wrong_key);
    ("schnorr deterministic", `Quick, test_schnorr_deterministic);
    ("schnorr wire encoding", `Quick, test_schnorr_encoding);
    ("keychain", `Quick, test_keychain);
    ("hex", `Quick, test_hex_roundtrip);
  ]

let test_keychains_with_different_seeds_disjoint () =
  let a = Keychain.create ~seed:"A" ~n_nodes:3 in
  let b = Keychain.create ~seed:"B" ~n_nodes:3 in
  let sg = Keychain.sign a ~signer:1 "payload" in
  Alcotest.(check bool) "cross-deployment signature rejected" false
    (Keychain.verify b ~signer:1 "payload" sg)

let suite =
  suite
  @ [
      ("keychain seed separation", `Quick, test_keychains_with_different_seeds_disjoint);
    ]

(* -- SHA-256: the SHA-extension kernel against the OCaml reference --------- *)

(* Feed [msg] through [feed_bytes] in the pieces that [cuts] (sorted
   offsets into [msg]) delimit. *)
let digest_split init msg cuts =
  let ctx = init () in
  let b = Bytes.of_string msg in
  let last =
    List.fold_left
      (fun pos cut ->
        Sha256.feed_bytes ctx b pos (cut - pos);
        cut)
      0 cuts
  in
  Sha256.feed_bytes ctx b last (Bytes.length b - last);
  Sha256.finalize ctx

let arb_split_message =
  let open QCheck.Gen in
  let len =
    frequency
      [ (1, oneofl [ 0; 55; 56; 63; 64; 65; 119; 120; 128; 4096 ]); (3, int_range 0 4096) ]
  in
  let gen =
    len >>= fun n ->
    pair (string_size ~gen:char (return n)) (list_size (int_bound 8) (int_bound n))
    >|= fun (msg, cuts) -> (msg, List.sort compare cuts)
  in
  QCheck.make
    ~print:(fun (msg, cuts) ->
      Printf.sprintf "len=%d cuts=[%s]" (String.length msg)
        (String.concat ";" (List.map string_of_int cuts)))
    gen

let prop_sha256_kernel_matches_reference =
  QCheck.Test.make ~name:"sha256 kernel = OCaml reference" ~count:300 arb_split_message
    (fun (msg, cuts) ->
      let reference = digest_split Sha256.init_reference msg cuts in
      String.equal reference (Sha256.digest msg)
      && String.equal reference (digest_split Sha256.init msg cuts))

let test_sha256_feed_bytes_range () =
  let b = Bytes.make 100 'x' in
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises
        (Printf.sprintf "off=%d len=%d" off len)
        (Invalid_argument "Sha256.feed_bytes")
        (fun () -> Sha256.feed_bytes (Sha256.init ()) b off len))
    [ (-1, 10); (0, -1); (0, 101); (37, 64); (100, 1); (max_int, 1); (1, max_int) ];
  (* The range is checked before any byte is absorbed. *)
  let ctx = Sha256.init () in
  (try Sha256.feed_bytes ctx b 90 64 with Invalid_argument _ -> ());
  Sha256.feed_bytes ctx b 100 0;
  Sha256.feed_bytes ctx b 0 100;
  Alcotest.(check string)
    "rejected range leaves the context untouched"
    (Sha256.digest_hex (Bytes.to_string b))
    (Hex.of_string (Sha256.finalize ctx))

let suite =
  suite
  @ [ ("sha256 feed_bytes range check", `Quick, test_sha256_feed_bytes_range) ]
  @ qsuite [ prop_sha256_kernel_matches_reference ]

(* The keychain's verification memo is bounded, allocates nothing on a
   hit, and answers only for the exact (signer, payload, signature) it
   verified: a tampered payload, signer or signature word is verified
   afresh, however the memo is filled. *)
let test_keychain_memo_exact () =
  let kc = Keychain.create ~seed:"memo" ~n_nodes:4 in
  let msg = "commit:0:1:2:digest" in
  let sg : Schnorr.signature = Keychain.sign kc ~signer:1 msg in
  let verify ?(signer = 1) ?(msg = msg) sg = Keychain.verify kc ~signer msg sg in
  Alcotest.(check bool) "valid" true (verify sg);
  Alcotest.(check bool) "valid, from the memo" true (verify sg);
  Alcotest.(check bool) "valid, payload an equal copy" true
    (verify ~msg:(Bytes.to_string (Bytes.of_string msg)) sg);
  let tampered =
    [
      ("payload", fun () -> verify ~msg:"commit:0:1:3:digest" sg);
      ("payload prefix", fun () -> verify ~msg:"commit:0:1:2:diges" sg);
      ("signer", fun () -> verify ~signer:2 sg);
      ("e", fun () -> verify { sg with e = Int64.succ sg.e });
      ("s", fun () -> verify { sg with s = Int64.succ sg.s });
      ("e sign bit", fun () -> verify { sg with e = Int64.logxor sg.e Int64.min_int });
      ("s sign bit", fun () -> verify { sg with s = Int64.logxor sg.s Int64.min_int });
    ]
  in
  List.iter (fun (what, f) -> Alcotest.(check bool) ("tampered " ^ what) false (f ())) tampered;
  List.iter (fun (what, f) -> Alcotest.(check bool) ("again: " ^ what) false (f ())) tampered;
  Alcotest.(check bool) "valid after the rejections" true (verify sg);
  let warm = Sys.opaque_identity sg in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Keychain.verify kc ~signer:1 msg warm))
  done;
  Alcotest.(check int) "hits allocate nothing" 0 (int_of_float (Gc.minor_words () -. w0));
  (* Far more distinct signatures than the memo holds, each with a
     tampered twin, and each verdict still exact. *)
  for i = 0 to 40_000 do
    let m = Printf.sprintf "vote:%d" i in
    let signer = i mod 4 in
    let sg = Keychain.sign kc ~signer m in
    if not (Keychain.verify kc ~signer m sg) then Alcotest.failf "vote %d rejected" i;
    if Keychain.verify kc ~signer:((signer + 1) mod 4) m sg then
      Alcotest.failf "vote %d accepted for another signer" i;
    if Keychain.verify kc ~signer (m ^ "!") sg then Alcotest.failf "vote %d accepted tampered" i
  done

let suite =
  suite @ [ ("keychain memo answers exact inputs only", `Quick, test_keychain_memo_exact) ]

(* The keychain's verdict table copies the two signature words, so a
   signature it verified is not kept alive by the table.  The keychain
   itself stays live: it is used again after the collection. *)
let test_keychain_memo_releases_signatures () =
  let kc = Keychain.create ~seed:"weak" ~n_nodes:4 in
  let w = Weak.create 1 in
  let verify_fresh () =
    let sg = Keychain.sign kc ~signer:2 "commit:0:0:9:d" in
    Alcotest.(check bool) "verifies" true (Keychain.verify kc ~signer:2 "commit:0:0:9:d" sg);
    Weak.set w 0 (Some sg)
  in
  (Sys.opaque_identity verify_fresh) ();
  Gc.full_major ();
  Alcotest.(check bool) "signature collected" false (Weak.check w 0);
  let sg = Keychain.sign kc ~signer:2 "commit:0:0:9:d" in
  Alcotest.(check bool) "an equal signature still verifies" true
    (Keychain.verify kc ~signer:2 "commit:0:0:9:d" sg)

let suite =
  suite
  @ [ ("keychain memo releases signatures", `Quick, test_keychain_memo_releases_signatures) ]

(* -- Field61 --------------------------------------------------------------------- *)

(* Reference multiplication via the generic double-and-add ladder. *)
let slow_mul a b =
  let a = ref a and b = ref b and acc = ref 0 in
  while !b > 0 do
    if !b land 1 = 1 then acc := Field61.add_mod_int Field61.p !acc !a;
    a := Field61.add_mod_int Field61.p !a !a;
    b := !b lsr 1
  done;
  !acc

let arb_field_elt =
  QCheck.map
    (fun (a, b) -> ((a lsl 31) lor b) mod Field61.p)
    QCheck.(pair (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF))

let prop_mul_matches_reference =
  QCheck.Test.make ~name:"field61 fast mul = reference mul" ~count:500
    QCheck.(pair arb_field_elt arb_field_elt)
    (fun (a, b) -> Field61.mul_int a b = slow_mul a b)

let prop_mul_inverse =
  QCheck.Test.make ~name:"field61 a * a^-1 = 1" ~count:200 arb_field_elt (fun a ->
      QCheck.assume (a <> 0);
      Field61.mul_int a (Field61.inv_int a) = 1)

let prop_fermat =
  QCheck.Test.make ~name:"field61 a^(p-1) = 1 (Fermat)" ~count:100 arb_field_elt (fun a ->
      QCheck.assume (a <> 0);
      Field61.pow_int a (Field61.p - 1) = 1)

let prop_pow_laws =
  QCheck.Test.make ~name:"field61 a^(e1+e2) = a^e1 * a^e2" ~count:100
    QCheck.(triple arb_field_elt (int_bound 100_000) (int_bound 100_000))
    (fun (a, e1, e2) ->
      QCheck.assume (a <> 0);
      Field61.pow_int a (e1 + e2) = Field61.mul_int (Field61.pow_int a e1) (Field61.pow_int a e2))

(* -- Schnorr properties ---------------------------------------------------------- *)

let prop_schnorr_sign_verify =
  QCheck.Test.make ~name:"schnorr sign/verify roundtrip" ~count:100
    QCheck.(pair small_nat string)
    (fun (id, msg) ->
      let sk = Schnorr.keygen ~seed:"prop" ~key_id:id in
      Schnorr.verify (Schnorr.public_key sk) msg (Schnorr.sign sk msg))

let prop_schnorr_tamper_rejected =
  QCheck.Test.make ~name:"schnorr tampered signature rejected" ~count:100
    QCheck.(triple small_nat string (pair small_nat small_nat))
    (fun (id, msg, (de, ds)) ->
      QCheck.assume (de + ds > 0);
      let sk = Schnorr.keygen ~seed:"prop" ~key_id:id in
      let sg = Schnorr.sign sk msg in
      let sg' =
        Schnorr.
          { e = Int64.add sg.e (Int64.of_int de); s = Int64.add sg.s (Int64.of_int ds) }
      in
      not (Schnorr.verify (Schnorr.public_key sk) msg sg'))

(* After the memo tests, so that each property keeps the suite index a
   run names it by (e.g. `test crypto 16`). *)
let suite =
  suite
  @ qsuite
      [
        prop_mul_matches_reference;
        prop_mul_inverse;
        prop_fermat;
        prop_pow_laws;
        prop_schnorr_sign_verify;
        prop_schnorr_tamper_rejected;
      ]

(* A keychain holds per-node key pairs and a fixed-size verdict table,
   nothing per node pair: doubling the deployment adds a few words per
   node (two array slots and the two key records). *)
let test_keychain_linear_size () =
  let words n = Obj.reachable_words (Obj.repr (Keychain.create ~seed:"size" ~n_nodes:n)) in
  let added = words 2048 - words 1024 in
  Alcotest.(check bool)
    (Printf.sprintf "%d words for 1024 more nodes" added)
    true (added < 16 * 1024)

let suite = suite @ [ ("keychain size is linear in nodes", `Quick, test_keychain_linear_size) ]
