open Import

(* Commit certificates.

   A commit certificate [⟨T⟩c, ρ]_C proves that cluster C committed
   client request T in round ρ: it consists of the client request and
   n − f identical, signed commit messages from distinct replicas of C
   (paper §2.2).  Certificates are the only consensus artifact that
   crosses cluster boundaries in GeoBFT, and they are what makes ledger
   blocks tamper-proof (§3, "The ledger").

   The signed payload of each commit message binds (cluster, view,
   sequence number, batch digest), so a certificate for one batch can
   never be replayed for another. *)

type commit_sig = {
  replica : int;                  (* global node id of the signer *)
  signature : Schnorr.signature;
}

(* Verification memo, same discipline as [Batch.memo]: certificates are
   immutable and re-verified by every receiving replica (n − f Schnorr
   verifications each time).  The memo records the exact inputs covered
   — physical identity for the commit list and digest, value equality
   for the scalars and the quorum — so any copied-and-altered record
   (tampering tests, replay forgeries, a different quorum requirement)
   misses the cache and is verified in full. *)
type memo = {
  m_keychain : Keychain.t;
  m_commits : commit_sig list;
  m_digest : string;
  m_cluster : int;
  m_view : int;
  m_seq : int;
  m_quorum : int;
  m_ok : bool;
}

type t = {
  cluster : int;
  view : int;
  seq : int;                      (* local Pbft sequence = GeoBFT round *)
  digest : string;                (* batch digest the commits endorse *)
  commits : commit_sig list;      (* n − f distinct signers *)
  mutable vmemo : memo option;    (* cached verdict; copies self-invalidate *)
}

(* Built on every commit sign and verify, so no [Printf]. *)
let commit_payload ~cluster ~view ~seq ~digest =
  String.concat ":"
    [ "commit"; string_of_int cluster; string_of_int view; string_of_int seq; digest ]

(* Number of signatures a verifier must check; drives the modeled CPU
   cost of certificate verification. *)
let n_signatures t = List.length t.commits

let make ~cluster ~view ~seq ~digest ~commits =
  { cluster; view; seq; digest; commits; vmemo = None }

(* Full verification: enough distinct signers, every signature valid,
   all endorsing the same (cluster, view, seq, digest).  [quorum] is
   n − f for the signing cluster. *)
let verify ~keychain ~quorum (t : t) : bool =
  match t.vmemo with
  | Some m
    when m.m_keychain == keychain && m.m_commits == t.commits && m.m_digest == t.digest
         && m.m_cluster = t.cluster && m.m_view = t.view && m.m_seq = t.seq
         && m.m_quorum = quorum ->
      m.m_ok
  | _ ->
      let payload =
        commit_payload ~cluster:t.cluster ~view:t.view ~seq:t.seq ~digest:t.digest
      in
      let signers = List.sort_uniq compare (List.map (fun c -> c.replica) t.commits) in
      let ok =
        List.length signers >= quorum
        && List.length signers = List.length t.commits
        && List.for_all
             (fun c -> Keychain.verify keychain ~signer:c.replica payload c.signature)
             t.commits
      in
      t.vmemo <-
        Some
          {
            m_keychain = keychain;
            m_commits = t.commits;
            m_digest = t.digest;
            m_cluster = t.cluster;
            m_view = t.view;
            m_seq = t.seq;
            m_quorum = quorum;
            m_ok = ok;
          };
      ok

let pp fmt t =
  Format.fprintf fmt "cert[c%d v%d seq%d %d sigs]" t.cluster t.view t.seq (n_signatures t)
