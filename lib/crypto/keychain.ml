(* Key directory for a deployment.

   In the permissioned setting all replicas are known up front (§2.1 of
   the paper), so key distribution is static: every node derives its
   signing key pair deterministically from the system seed and its node
   identity.  This mirrors the C++ ResilientDB, which provisions keys at
   deployment time.

   The paper (§3 "Cryptography") signs forwarded messages (client
   requests and commit messages) with ED25519, [Schnorr] here, and
   authenticates everything else with AES-CMAC.  The signatures are
   real; the MACs are modelled: the simulated network hands every
   handler the true sender, and every receive is charged [mac_us]
   ([Config.recv_floor_cost]), so no channel key exists here. *)

type t = {
  n_nodes : int;
  secrets : Schnorr.secret_key array;   (* indexed by node id *)
  publics : Schnorr.public_key array;
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
     forged signature is never answered from the table.  The signature
     words are copied into [v_sig] rather than the record kept, so the
     table pins no signature record (nor its two boxed words). *)
  v_signer : int array; (* -1: empty slot *)
  v_sig : Bytes.t; (* per slot: [e], [s] as little-endian int64s *)
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
    n_nodes;
    secrets;
    publics;
    v_signer = Array.make vcache_slots (-1);
    v_sig = Bytes.make (16 * vcache_slots) '\000';
    v_msg = Array.make vcache_slots "";
    v_ok = Array.make vcache_slots false;
    v_next = Array.make vcache_sets 0;
  }

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
    if
      t.v_signer.(i) = signer
      && Int64.equal (Bytes.get_int64_le t.v_sig (16 * i)) sg.e
      && Int64.equal (Bytes.get_int64_le t.v_sig ((16 * i) + 8)) sg.s
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
    Bytes.set_int64_le t.v_sig (16 * i) sg.e;
    Bytes.set_int64_le t.v_sig ((16 * i) + 8) sg.s;
    t.v_msg.(i) <- msg;
    t.v_ok.(i) <- ok;
    ok
  end
