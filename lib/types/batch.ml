open Import

(* A batch of client transactions — the unit of consensus.

   Clients group requests into batches (paper §3, "Request batching");
   the consensus protocols order whole batches, so the cost of one
   consensus decision is shared by every transaction in it.  A batch is
   signed by the issuing client group, which is the digital signature
   the protocols forward and verify (§2.1: "we sign these messages
   using digital signatures ... client requests and commit messages"). *)

(* Verification memo.  A batch record is immutable once built, but every
   receiving replica re-verifies it — re-serializing ~100 transactions
   and hashing ~5 kB per hop, which profiling shows dominates whole-run
   CPU.  The memo caches the last verdict together with the *exact*
   inputs it covered: physical identity ([==]) for the heavyweight
   fields, value equality for the scalars.  Any record copy with a field
   changed (tampering tests, payload stripping, forgeries) misses the
   memo and is verified from scratch, so the cache can never launder an
   invalid batch. *)
type memo = {
  m_keychain : Keychain.t;
  m_txns : Txn.t array;
  m_digest : string;
  m_signature : Schnorr.signature;
  m_id : int;
  m_cluster : int;
  m_origin : int;
  m_ok : bool;
}

type t = {
  id : int;                    (* globally unique batch id *)
  cluster : int;               (* cluster whose clients issued it *)
  origin : int;                (* node id of the issuing client group *)
  txns : Txn.t array;
  created : Time.t;            (* submission time, for latency metrics *)
  signature : Schnorr.signature; (* client signature over the digest *)
  digest : string;             (* SHA-256 of the serialized payload *)
  mutable vmemo : memo option; (* see above; copied memos self-invalidate *)
}

(* No-op batches (paper §2.5): proposed by a primary when its cluster
   has no client requests for a round, so other clusters do not stall.
   Negative ids mark no-ops; the nonce keeps distinct no-op rounds
   distinguishable (distinct digests). *)
let noop_id_of_nonce nonce = -(nonce + 1)

let serialize_payload ~id ~cluster ~origin ~(txns : Txn.t array) : string =
  let b = Buffer.create (24 * (Array.length txns + 1)) in
  Buffer.add_int64_le b (Int64.of_int id);
  Buffer.add_int32_le b (Int32.of_int cluster);
  Buffer.add_int32_le b (Int32.of_int origin);
  Array.iter (fun t -> Txn.serialize_into b t) txns;
  Buffer.contents b

let digest_of ~id ~cluster ~origin ~txns =
  Sha256.digest (serialize_payload ~id ~cluster ~origin ~txns)

let create ~keychain ~id ~cluster ~origin ~txns ~created =
  let digest = digest_of ~id ~cluster ~origin ~txns in
  let signature = Keychain.sign keychain ~signer:origin digest in
  { id; cluster; origin; txns; created; signature; digest; vmemo = None }

let noop ~keychain ~cluster ~origin ~created ~nonce =
  let txns = [||] in
  let id = noop_id_of_nonce nonce in
  let digest = digest_of ~id ~cluster ~origin ~txns in
  let signature = Keychain.sign keychain ~signer:origin digest in
  { id; cluster; origin; txns; created; signature; digest; vmemo = None }

let is_noop t = t.id < 0
let size t = Array.length t.txns

(* A batch whose transactions touch no state: eligible for the
   read-path consensus bypass (served from replica state at f+1
   matching result digests).  No-ops and payload-stripped ledger
   copies have empty [txns] and are excluded. *)
let read_only t =
  Array.length t.txns > 0
  && Array.for_all (fun (x : Txn.t) -> x.Txn.op <> Txn.Write) t.txns

(* A non-noop batch whose payload was stripped for ledger compactness
   ([retain_payloads:false]): its transactions are gone, so replaying
   it cannot reproduce state transitions. *)
let stripped t = t.id >= 0 && Array.length t.txns = 0

(* The ledger copy of a batch under [retain_payloads:false].  The memo
   goes too: it holds the original [txns] (and the keychain), so a
   copy that kept it would pin the payload it was built to drop. *)
let strip t = { t with txns = [||]; vmemo = None }

(* Whether [s] has the content of [strip b], field by field (the memo
   aside), without building the copy. *)
let equal_stripped s b =
  Array.length s.txns = 0 && s.id = b.id && s.cluster = b.cluster && s.origin = b.origin
  && s.created = b.created
  && String.equal s.digest b.digest
  && Int64.equal s.signature.Schnorr.e b.signature.Schnorr.e
  && Int64.equal s.signature.Schnorr.s b.signature.Schnorr.s

(* Verify the client signature and digest integrity.  Replicas discard
   batches that fail this check (§2.1: "Replicas will discard any
   messages that are not well-formed ... or have invalid signatures"). *)
let verify ~keychain (t : t) : bool =
  match t.vmemo with
  | Some m
    when m.m_keychain == keychain && m.m_txns == t.txns && m.m_digest == t.digest
         && m.m_signature == t.signature && m.m_id = t.id && m.m_cluster = t.cluster
         && m.m_origin = t.origin ->
      m.m_ok
  | _ ->
      let ok =
        String.equal t.digest
          (digest_of ~id:t.id ~cluster:t.cluster ~origin:t.origin ~txns:t.txns)
        && Keychain.verify keychain ~signer:t.origin t.digest t.signature
      in
      t.vmemo <-
        Some
          {
            m_keychain = keychain;
            m_txns = t.txns;
            m_digest = t.digest;
            m_signature = t.signature;
            m_id = t.id;
            m_cluster = t.cluster;
            m_origin = t.origin;
            m_ok = ok;
          };
      ok

let pp fmt t =
  if is_noop t then Format.fprintf fmt "noop[c%d]" t.cluster
  else Format.fprintf fmt "batch#%d[c%d,%d txns]" t.id t.cluster (Array.length t.txns)
