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
  (* Signature-verification cache.  Broadcast commit / checkpoint votes
     are verified once by *every* receiving replica — identical
     (signer, payload, signature) each time — so the first verdict is
     cached and replayed.  The key covers every verification input, so
     a tampered payload or forged signature can never hit a stale
     entry. *)
  vcache : (int * string * int64 * int64, bool) Hashtbl.t;
}

let create ~seed ~n_nodes =
  let secrets = Array.init n_nodes (fun id -> Schnorr.keygen ~seed ~key_id:id) in
  let publics = Array.map Schnorr.public_key secrets in
  {
    seed;
    n_nodes;
    secrets;
    publics;
    channel_keys = Array.make (n_nodes * n_nodes) None;
    vcache = Hashtbl.create 4096;
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

let verify t ~signer msg sg =
  signer >= 0 && signer < t.n_nodes
  &&
  let key = (signer, msg, sg.Schnorr.e, sg.Schnorr.s) in
  match Hashtbl.find_opt t.vcache key with
  | Some ok -> ok
  | None ->
      let ok = Schnorr.verify t.publics.(signer) msg sg in
      Hashtbl.replace t.vcache key ok;
      ok

let mac t ~src ~dst msg = Cmac.mac (channel_key t ~a:src ~b:dst) msg

let verify_mac t ~src ~dst msg ~tag = Cmac.verify (channel_key t ~a:src ~b:dst) msg ~tag
