(* Schnorr signatures over the multiplicative group of Z_p, p = 2^61-1.

   Structure is the textbook scheme (the same shape as ED25519, which is
   a Schnorr variant over an Edwards curve):

     key pair     x (secret), y = g^x
     sign(m)      k <- H(x, m); r = g^k; e = H(r || m) mod q;
                  s = (k + x*e) mod q; signature = (e, s)
     verify(m)    r' = g^s * (y^{-1})^e; accept iff e = H(r' || m) mod q

   The field is far too small for real security — DESIGN.md documents
   this substitution: signing/verification *logic* (including rejection
   of any tampered message, signer, or signature) is real and exercised
   by the protocols; ED25519's CPU cost on the paper's testbed is
   charged by the simulator's cost model.

   Deterministic nonces (derived by hashing the secret key and message)
   make signatures reproducible across simulator runs.

   All internal arithmetic is on native ints (see [Field61]): the
   simulator verifies millions of signatures per run, and this module
   must not allocate on that path. *)

type public_key = { y : int; key_id : int; mutable y_inv : int }
(* [y_inv] caches y^{-1} (computed on first verification): verification
   then needs a single simultaneous exponentiation g^s · (y^{-1})^e. *)

type secret_key = { x : int; pub : public_key }
type signature = { e : int64; s : int64 }

let g = 3
let q = Field61.order_int

(* Map a 32-byte digest to a scalar mod q (native int). *)
let scalar_of_digest (d : string) : int =
  let acc = ref 0 in
  for i = 0 to 7 do
    acc := (!acc lsl 8) lor Char.code d.[i]
  done;
  (* Clear the top bits, then reduce. *)
  !acc land max_int mod q

let int_to_le_bytes v =
  String.init 8 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF))

(* Deterministic key generation from a seed (e.g. a node identity),
   so all replicas can derive each other's public keys without a PKI. *)
let keygen ~(seed : string) ~(key_id : int) : secret_key =
  let d = Sha256.digest_list [ "rdb-schnorr-keygen"; seed; string_of_int key_id ] in
  let x = 1 + (scalar_of_digest d mod (q - 1)) in
  let y = Field61.pow_int g x in
  { x; pub = { y; key_id; y_inv = 0 } }

let public_key (sk : secret_key) = sk.pub

let challenge ~(r : int) ~(msg : string) : int =
  scalar_of_digest (Sha256.digest_list [ "rdb-schnorr-e"; int_to_le_bytes r; msg ])

let sign (sk : secret_key) (msg : string) : signature =
  (* RFC 6979-style deterministic nonce. *)
  let kd = Sha256.digest_list [ "rdb-schnorr-k"; int_to_le_bytes sk.x; msg ] in
  let k = 1 + (scalar_of_digest kd mod (q - 1)) in
  let r = Field61.pow_int g k in
  let e = challenge ~r ~msg in
  let s = Field61.add_mod_int q k (Field61.mul_mod_int q sk.x e) in
  { e = Int64.of_int e; s = Int64.of_int s }

(* Simultaneous (Shamir) double exponentiation a^u · b^v mod p: one
   shared square-and-multiply ladder, ~1.3 exponentiations of work. *)
let dual_pow a u b v =
  let ab = Field61.mul_int a b in
  let acc = ref 1 in
  for i = 62 downto 0 do
    acc := Field61.mul_int !acc !acc;
    let bu = (u lsr i) land 1 in
    let bv = (v lsr i) land 1 in
    if bu = 1 && bv = 1 then acc := Field61.mul_int !acc ab
    else if bu = 1 then acc := Field61.mul_int !acc a
    else if bv = 1 then acc := Field61.mul_int !acc b
  done;
  !acc

let verify (pk : public_key) (msg : string) (sg : signature) : bool =
  if
    Int64.compare sg.s 0L < 0
    || Int64.compare sg.e 0L < 0
    || Int64.compare sg.s (Int64.of_int q) >= 0
    || Int64.compare sg.e (Int64.of_int q) >= 0
  then false
  else begin
    let e = Int64.to_int sg.e and s = Int64.to_int sg.s in
    (* r' = g^s * y^(-e) = g^s * (y^{-1})^e *)
    if pk.y_inv = 0 then pk.y_inv <- Field61.inv_int pk.y;
    let r' = dual_pow g s pk.y_inv e in
    challenge ~r:r' ~msg = e
  end

(* Wire encoding: 16 bytes, [e] then [s], each a little-endian int64
   written whole, so a forged word (out of range, sign bit set) reads
   back exactly. *)
let signature_bytes = 16

let write_signature (b : Bytes.t) off (sg : signature) =
  Bytes.set_int64_le b off sg.e;
  Bytes.set_int64_le b (off + 8) sg.s

let read_signature (s : string) off : signature =
  { e = String.get_int64_le s off; s = String.get_int64_le s (off + 8) }

let signature_to_string (sg : signature) : string =
  let b = Bytes.create signature_bytes in
  write_signature b 0 sg;
  Bytes.unsafe_to_string b

let signature_of_string (s : string) : signature option =
  if String.length s <> signature_bytes then None else Some (read_signature s 0)
