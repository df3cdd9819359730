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
   never be replayed for another.

   Every ledger block keeps one, so the commits are stored flat: one
   immutable string of [stride] bytes per commit, in ascending signer
   order — the signer as a little-endian int64, then the 16-byte
   [Schnorr.signature_to_string] encoding.  That is 3 words per signer,
   where a [commit_sig list] costs 15 (list cell, record, signature
   record, two boxed int64s).  Every field is written whole, so what
   is read back is exactly what was given, forged words included.
   This module is the layout's only reader and writer. *)

type commit_sig = {
  replica : int;                  (* global node id of the signer *)
  signature : Schnorr.signature;
}

type commits = string

let stride = 8 + Schnorr.signature_bytes

type t = {
  cluster : int;
  view : int;
  seq : int;                      (* local Pbft sequence = GeoBFT round *)
  digest : string;                (* batch digest the commits endorse *)
  commits : commits;              (* n − f signers, ascending *)
  mutable vmemo : memo;           (* cached verdict; copies self-invalidate *)
}

(* Verification memo, same discipline as [Batch.memo]: certificates are
   immutable and re-verified by every receiving replica (n − f Schnorr
   verifications each time).  The memo names the record it was computed
   for: every field but the memo is immutable, so physical identity
   covers the commits string, the digest and the scalars, and a
   copied-and-altered record (tampering tests, replay forgeries) carries
   a memo naming its source and is verified in full.  The keychain and
   the quorum are inputs too, so they are compared as well. *)
and memo =
  | Unverified
  | Verified of { cert : t; keychain : Keychain.t; quorum : int; ok : bool }

(* Built on every commit sign and verify, so no [Printf]. *)
let commit_payload ~cluster ~view ~seq ~digest =
  String.concat ":"
    [ "commit"; string_of_int cluster; string_of_int view; string_of_int seq; digest ]

let put b i ~replica sg =
  Bytes.set_int64_le b (i * stride) (Int64.of_int replica);
  Schnorr.write_signature b ((i * stride) + 8) sg

(* Number of signatures a verifier must check; drives the modeled CPU
   cost of certificate verification. *)
let n_signatures t = String.length t.commits / stride

let signer t i = Int64.to_int (String.get_int64_le t.commits (i * stride))
let signature t i = Schnorr.read_signature t.commits ((i * stride) + 8)

let commits t =
  List.init (n_signatures t) (fun i -> { replica = signer t i; signature = signature t i })

(* Signers are stored in ascending order, so they are distinct exactly
   when each is above the one before. *)
let distinct_signers t =
  let n = n_signatures t in
  let rec go i = i >= n || (signer t i > signer t (i - 1) && go (i + 1)) in
  go 1

let seal ~cluster ~view ~seq ~digest commits =
  { cluster; view; seq; digest; commits; vmemo = Unverified }

let make ~cluster ~view ~seq ~digest ~commits =
  let sorted = List.stable_sort (fun a b -> Int.compare a.replica b.replica) commits in
  let b = Bytes.create (List.length sorted * stride) in
  List.iteri (fun i c -> put b i ~replica:c.replica c.signature) sorted;
  seal ~cluster ~view ~seq ~digest (Bytes.unsafe_to_string b)

let collect ~cluster ~view ~seq ~digest ~max iter =
  let b = Bytes.create (max * stride) in
  let n = ref 0 and last = ref min_int in
  iter (fun ~replica sg ->
      if !n < max then begin
        if replica <= !last then invalid_arg "Certificate.collect: signers not ascending";
        put b !n ~replica sg;
        last := replica;
        incr n
      end);
  let commits =
    if !n = max then Bytes.unsafe_to_string b else Bytes.sub_string b 0 (!n * stride)
  in
  seal ~cluster ~view ~seq ~digest commits

(* Full verification: enough distinct signers, every signature valid,
   all endorsing the same (cluster, view, seq, digest).  [quorum] is
   n − f for the signing cluster. *)
let verify ~keychain ~quorum (t : t) : bool =
  match t.vmemo with
  | Verified m when m.cert == t && m.keychain == keychain && m.quorum = quorum -> m.ok
  | _ ->
      let n = n_signatures t in
      let ok =
        n >= quorum && distinct_signers t
        &&
        let payload =
          commit_payload ~cluster:t.cluster ~view:t.view ~seq:t.seq ~digest:t.digest
        in
        let rec all i =
          i >= n
          || (Keychain.verify keychain ~signer:(signer t i) payload (signature t i) && all (i + 1))
        in
        all 0
      in
      t.vmemo <- Verified { cert = t; keychain; quorum; ok };
      ok

let pp fmt t =
  Format.fprintf fmt "cert[c%d v%d seq%d %d sigs]" t.cluster t.view t.seq (n_signatures t)
