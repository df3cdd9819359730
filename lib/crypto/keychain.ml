(* Key directory for a deployment.

   In the permissioned setting all replicas are known up front (§2.1 of
   the paper), so key distribution is static: every node derives its
   signing key pair and pairwise channel-MAC keys deterministically from
   the system seed and node identities.  This mirrors the C++
   ResilientDB, which provisions keys at deployment time.

   The keychain gives the protocols exactly the two primitives the paper
   calls for (§3 "Cryptography"):
   - digital signatures (ED25519 in the paper, [Schnorr] here) for
     forwarded messages: client requests and commit messages;
   - message authentication codes (AES-CMAC) for everything else. *)

type t = {
  seed : string;
  n_nodes : int;
  secrets : Schnorr.secret_key array;   (* indexed by node id *)
  publics : Schnorr.public_key array;
  (* Pairwise CMAC keys, one per unordered node pair; lazily built. *)
  channel_keys : Cmac.key option array;
  (* Signature-verification memo.  Broadcast commit / checkpoint votes
     are verified once by *every* receiving replica — identical
     (signer, payload, signature) each time, within a few network
     delays — so recent verdicts are kept and replayed.  A fixed table
     in parallel arrays, [vcache_sets] sets of [vcache_ways] entries
     with the set picked by the signature, and a miss replacing the
     set's oldest entry: memory stays bounded over any run length.
     (Direct-mapped over as many slots, colliding votes evict each
     other and 3-5% more signatures are verified again.)  A hit
     compares every verification input (signer, both signature words,
     the payload bytes) without allocating, so a tampered payload or a
     forged signature is never answered from the table. *)
  v_signer : int array; (* -1: empty slot *)
  v_sig : Schnorr.signature array;
  v_msg : string array;
  v_ok : bool array;
  v_next : int array; (* per set: the way the next miss replaces *)
}

let vcache_ways = 4
let vcache_sets = 1 lsl 12
let vcache_slots = vcache_ways * vcache_sets

let create ~seed ~n_nodes =
  let secrets = Array.init n_nodes (fun id -> Schnorr.keygen ~seed ~key_id:id) in
  let publics = Array.map Schnorr.public_key secrets in
  {
    seed;
    n_nodes;
    secrets;
    publics;
    channel_keys = Array.make (n_nodes * n_nodes) None;
    v_signer = Array.make vcache_slots (-1);
    v_sig = Array.make vcache_slots { Schnorr.e = 0L; s = 0L };
    v_msg = Array.make vcache_slots "";
    v_ok = Array.make vcache_slots false;
    v_next = Array.make vcache_sets 0;
  }

let n_nodes t = t.n_nodes

let secret_key t id = t.secrets.(id)
let public_key t id = t.publics.(id)

(* Symmetric channel key for the unordered pair {a, b}. *)
let channel_key t ~a ~b =
  if a < 0 || b < 0 || a >= t.n_nodes || b >= t.n_nodes then
    invalid_arg "Keychain.channel_key: node id out of range";
  let lo = min a b and hi = max a b in
  let idx = (lo * t.n_nodes) + hi in
  match t.channel_keys.(idx) with
  | Some k -> k
  | None ->
      let raw =
        String.sub
          (Hmac.mac ~key:t.seed (Printf.sprintf "channel:%d:%d" lo hi))
          0 16
      in
      let k = Cmac.of_key raw in
      t.channel_keys.(idx) <- Some k;
      k

let sign t ~signer msg = Schnorr.sign t.secrets.(signer) msg

let verify t ~signer msg (sg : Schnorr.signature) =
  signer >= 0 && signer < t.n_nodes
  &&
  (* [e] is a hash output, so its low bits spread entries evenly. *)
  let set = (Int64.to_int sg.e lxor (signer * 0x9E3779B1)) land (vcache_sets - 1) in
  let base = set * vcache_ways in
  let hit = ref (-1) and w = ref 0 in
  while !hit < 0 && !w < vcache_ways do
    let i = base + !w in
    let c = t.v_sig.(i) in
    if
      t.v_signer.(i) = signer && Int64.equal c.e sg.e && Int64.equal c.s sg.s
      && String.equal t.v_msg.(i) msg
    then hit := i;
    incr w
  done;
  if !hit >= 0 then t.v_ok.(!hit)
  else begin
    let ok = Schnorr.verify t.publics.(signer) msg sg in
    (* Replace the set's oldest entry. *)
    let way = t.v_next.(set) in
    t.v_next.(set) <- (way + 1) land (vcache_ways - 1);
    let i = base + way in
    t.v_signer.(i) <- signer;
    t.v_sig.(i) <- sg;
    t.v_msg.(i) <- msg;
    t.v_ok.(i) <- ok;
    ok
  end

let mac t ~src ~dst msg = Cmac.mac (channel_key t ~a:src ~b:dst) msg

let verify_mac t ~src ~dst msg ~tag = Cmac.verify (channel_key t ~a:src ~b:dst) msg ~tag
