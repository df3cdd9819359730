(* Crypto substrate tests: standard test vectors for the real
   primitives (SHA-256, AES-128, AES-CMAC, HMAC-SHA256) and functional
   + property tests for the Schnorr signatures and field arithmetic. *)

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

(* -- AES-128: FIPS-197 appendix and SP 800-38B vectors ----------------------- *)

let test_aes128_fips197 () =
  let key = Hex.to_string "000102030405060708090a0b0c0d0e0f" in
  let pt = Hex.to_string "00112233445566778899aabbccddeeff" in
  let ks = Aes128.expand_key key in
  check_hex "FIPS-197 C.1" "69c4e0d86a7b0430d8cdb78070b4c55a" (Aes128.encrypt_block ks pt)

let test_aes128_sp800_38b_key () =
  (* The CMAC subkey-generation vector's AES step: AES-128(K, 0^128). *)
  let key = Hex.to_string "2b7e151628aed2a6abf7158809cf4f3c" in
  let ks = Aes128.expand_key key in
  check_hex "L = AES(K, 0)" "7df76b0c1ab899b33e42f047b91b546f"
    (Aes128.encrypt_block ks (String.make 16 '\x00'))

(* -- AES-CMAC: RFC 4493 test vectors ------------------------------------------ *)

let cmac_key = lazy (Cmac.of_key (Hex.to_string "2b7e151628aed2a6abf7158809cf4f3c"))

let rfc4493_m =
  lazy
    (Hex.to_string
       ("6bc1bee22e409f96e93d7e117393172a" ^ "ae2d8a571e03ac9c9eb76fac45af8e51"
      ^ "30c81c46a35ce411e5fbc1191a0a52ef" ^ "f69f2445df4f9b17ad2b417be66c3710"))

let test_cmac_vectors () =
  let key = Lazy.force cmac_key in
  let m = Lazy.force rfc4493_m in
  check_hex "len=0" "bb1d6929e95937287fa37d129b756746" (Cmac.mac key "");
  check_hex "len=16" "070a16b46b4d4144f79bdd9dd04a287c" (Cmac.mac key (String.sub m 0 16));
  check_hex "len=40" "dfa66747de9ae63030ca32611497c827" (Cmac.mac key (String.sub m 0 40));
  check_hex "len=64" "51f0bebf7e3b9d92fc49741779363cfe" (Cmac.mac key m)

let test_cmac_verify () =
  let key = Lazy.force cmac_key in
  let tag = Cmac.mac key "hello" in
  Alcotest.(check bool) "valid tag accepted" true (Cmac.verify key "hello" ~tag);
  Alcotest.(check bool) "wrong msg rejected" false (Cmac.verify key "hellp" ~tag);
  let bad = String.mapi (fun i c -> if i = 3 then Char.chr (Char.code c lxor 1) else c) tag in
  Alcotest.(check bool) "flipped tag rejected" false (Cmac.verify key "hello" ~tag:bad)

(* -- HMAC-SHA256: RFC 4231 ------------------------------------------------------ *)

let test_hmac_vectors () =
  (* RFC 4231 test case 1 *)
  Alcotest.(check string)
    "tc1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac_hex ~key:(String.make 20 '\x0b') "Hi There");
  (* test case 2: key "Jefe" *)
  Alcotest.(check string)
    "tc2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?");
  (* test case 3: 20x 0xaa key, 50x 0xdd data *)
  Alcotest.(check string)
    "tc3" "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.mac_hex ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'));
  (* test case 6: oversized key (131 bytes) forces key hashing *)
  Alcotest.(check string)
    "tc6" "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac_hex
       ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

(* -- Field61 --------------------------------------------------------------------- *)

(* Reference multiplication via the generic double-and-add ladder. *)
let slow_mul a b =
  let m = Field61.p in
  let a = ref (Int64.rem a m) and b = ref (Int64.rem b m) in
  let acc = ref 0L in
  while Int64.compare !b 0L > 0 do
    if Int64.logand !b 1L = 1L then acc := Field61.add_mod m !acc !a;
    a := Field61.add_mod m !a !a;
    b := Int64.shift_right_logical !b 1
  done;
  !acc

let arb_field_elt =
  QCheck.map
    (fun (a, b) ->
      Int64.rem
        (Int64.logand (Int64.logor (Int64.shift_left (Int64.of_int a) 31) (Int64.of_int b)) Int64.max_int)
        Field61.p)
    QCheck.(pair (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF))

let prop_mul_matches_reference =
  QCheck.Test.make ~name:"field61 fast mul = reference mul" ~count:500
    QCheck.(pair arb_field_elt arb_field_elt)
    (fun (a, b) -> Int64.equal (Field61.mul a b) (slow_mul a b))

let prop_mul_inverse =
  QCheck.Test.make ~name:"field61 a * a^-1 = 1" ~count:200 arb_field_elt (fun a ->
      QCheck.assume (not (Int64.equal a 0L));
      Int64.equal (Field61.mul a (Field61.inv a)) 1L)

let prop_fermat =
  QCheck.Test.make ~name:"field61 a^(p-1) = 1 (Fermat)" ~count:100 arb_field_elt (fun a ->
      QCheck.assume (not (Int64.equal a 0L));
      Int64.equal (Field61.pow a (Int64.sub Field61.p 1L)) 1L)

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

(* -- Keychain ------------------------------------------------------------------------ *)

let test_keychain () =
  let kc = Keychain.create ~seed:"kc" ~n_nodes:5 in
  let sg = Keychain.sign kc ~signer:2 "hello" in
  Alcotest.(check bool) "sign/verify" true (Keychain.verify kc ~signer:2 "hello" sg);
  Alcotest.(check bool) "wrong signer" false (Keychain.verify kc ~signer:3 "hello" sg);
  Alcotest.(check bool) "out of range" false (Keychain.verify kc ~signer:9 "hello" sg);
  let tag = Keychain.mac kc ~src:0 ~dst:4 "payload" in
  Alcotest.(check bool) "mac verifies" true (Keychain.verify_mac kc ~src:0 ~dst:4 "payload" ~tag);
  Alcotest.(check bool)
    "mac symmetric" true
    (Keychain.verify_mac kc ~src:4 ~dst:0 "payload" ~tag);
  Alcotest.(check bool)
    "mac other channel fails" false
    (Keychain.verify_mac kc ~src:0 ~dst:3 "payload" ~tag)

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
    ("aes128 FIPS-197", `Quick, test_aes128_fips197);
    ("aes128 SP800-38B subkey step", `Quick, test_aes128_sp800_38b_key);
    ("cmac RFC4493 vectors", `Quick, test_cmac_vectors);
    ("cmac verify", `Quick, test_cmac_verify);
    ("hmac RFC4231 vectors", `Quick, test_hmac_vectors);
    ("schnorr roundtrip", `Quick, test_schnorr_roundtrip);
    ("schnorr wrong key", `Quick, test_schnorr_wrong_key);
    ("schnorr deterministic", `Quick, test_schnorr_deterministic);
    ("schnorr wire encoding", `Quick, test_schnorr_encoding);
    ("keychain", `Quick, test_keychain);
    ("hex", `Quick, test_hex_roundtrip);
  ]
  @ qsuite
      [
        prop_mul_matches_reference;
        prop_mul_inverse;
        prop_fermat;
        prop_schnorr_sign_verify;
        prop_schnorr_tamper_rejected;
      ]

(* -- Field61: int core vs int64 wrappers ---------------------------------- *)

let prop_int_core_matches_wrappers =
  QCheck.Test.make ~name:"field61 int core = int64 wrappers" ~count:300
    QCheck.(pair arb_field_elt arb_field_elt)
    (fun (a, b) ->
      let ai = Int64.to_int a and bi = Int64.to_int b in
      Int64.to_int (Field61.mul a b) = Field61.mul_int ai bi
      && Int64.to_int (Field61.add a b) = Field61.add_int ai bi
      && (ai = 0 || Int64.to_int (Field61.inv a) = Field61.inv_int ai))

let prop_pow_laws =
  QCheck.Test.make ~name:"field61 a^(e1+e2) = a^e1 * a^e2" ~count:100
    QCheck.(triple arb_field_elt (int_bound 100_000) (int_bound 100_000))
    (fun (a, e1, e2) ->
      QCheck.assume (not (Int64.equal a 0L));
      let ai = Int64.to_int a in
      Field61.pow_int ai (e1 + e2)
      = Field61.mul_int (Field61.pow_int ai e1) (Field61.pow_int ai e2))

(* -- Keychain channel-key independence -------------------------------------- *)

let test_channel_keys_distinct () =
  let kc = Keychain.create ~seed:"chan" ~n_nodes:6 in
  (* Tags from distinct channels never validate on other channels. *)
  let t01 = Keychain.mac kc ~src:0 ~dst:1 "m" in
  let t02 = Keychain.mac kc ~src:0 ~dst:2 "m" in
  Alcotest.(check bool) "distinct channels, distinct tags" true (t01 <> t02);
  (* Caching: same channel gives the same key object behaviour. *)
  Alcotest.(check string) "cached key stable" (Rdb_crypto.Hex.of_string t01)
    (Rdb_crypto.Hex.of_string (Keychain.mac kc ~src:1 ~dst:0 "m"))

let test_keychains_with_different_seeds_disjoint () =
  let a = Keychain.create ~seed:"A" ~n_nodes:3 in
  let b = Keychain.create ~seed:"B" ~n_nodes:3 in
  let sg = Keychain.sign a ~signer:1 "payload" in
  Alcotest.(check bool) "cross-deployment signature rejected" false
    (Keychain.verify b ~signer:1 "payload" sg)

let suite =
  suite
  @ [
      ("keychain channel keys", `Quick, test_channel_keys_distinct);
      ("keychain seed separation", `Quick, test_keychains_with_different_seeds_disjoint);
    ]
  @ qsuite [ prop_int_core_matches_wrappers; prop_pow_laws ]

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
