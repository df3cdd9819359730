(* The append-only ledger held by every replica (paper §3).

   ResilientDB is fully replicated: each replica maintains a complete
   copy.  The ledger supports:
   - appending an executed batch together with its commit certificate;
   - integrity audit ([verify]): recompute every hash and check the
     chain links, so "tampering of its ledger by any replica can easily
     be detected";
   - recovery reads ([read_from]): a recovering replica can copy a
     suffix from any peer and [verify] it independently (§3);
   - certificate audit ([verify_certified]) for a full byzantine audit
     including the n − f commit signatures of every block. *)

module Batch = Rdb_types.Batch
module Certificate = Rdb_types.Certificate
module Keychain = Rdb_crypto.Keychain

(* The ledgers of one deployment share what their replicas agree on.
   Every honest replica appends an equal block at each height, and
   kept apart those copies dominate a long run's memory: a certificate
   per replica per height (66 words at n = 28) and, in a stripped
   deployment, a stripped batch each.  A pool remembers the blocks
   last appended at each height, in a direct-mapped array indexed by
   height, and an append whose stripped batch, certificate or whole
   block equals one of them by content takes that object instead of
   its own; one with the same hash inputs takes its hash.  Equality is
   full content ([Batch.equal_stripped], [Certificate.equal], every
   block field), so a replica whose commit set differs keeps its own
   certificate and a tampered or forged copy is never merged; a miss
   only costs the sharing.  Verification memos stay keyed by physical
   identity, so a shared record's memo holds the verdict of the same
   content.  The pool makes the stripped ledger copy of a batch once
   per height rather than once per replica; a retained batch is kept
   as appended, since the replicas already hold the one object their
   pre-prepare or share delivered, and so is an already stripped one:
   a replica too far behind for the pool appends the copy it fetched
   from a peer's ledger, which is that peer's pooled object. *)
type pool = {
  retain_payloads : bool;  (* false: blocks keep [Batch.strip] copies *)
  recent : Block.t list array;  (* distinct blocks of one height per slot *)
}

(* Heights a pool remembers: replicas of a healthy deployment append
   within a few heights of each other, and a lagging one only loses
   the sharing. *)
let pool_slots = 256

let pool ~retain_payloads = { retain_payloads; recent = Array.make pool_slots [] }

type t = {
  mutable blocks : Block.t array;   (* dynamic array *)
  mutable len : int;
  mutable txn_count : int;          (* total transactions executed *)
  pool : pool;
}

let create ~pool () = { blocks = [||]; len = 0; txn_count = 0; pool }

let length t = t.len
let txn_count t = t.txn_count
let is_empty t = t.len = 0

let tip_hash t = if t.len = 0 then Block.genesis_hash else t.blocks.(t.len - 1).Block.hash

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ledger.get: height out of range";
  t.blocks.(i)

let ensure_capacity t =
  let cap = Array.length t.blocks in
  if t.len = cap then begin
    let ncap = if cap = 0 then 256 else 2 * cap in
    let narr = Array.make ncap t.blocks.(0) in
    Array.blit t.blocks 0 narr 0 t.len;
    t.blocks <- narr
  end

let same_cert a b =
  match (a, b) with
  | Some a, Some b -> a == b
  | None, None -> true
  | _ -> false

(* The block [pool] holds for these contents, or a new one built from
   the batch, certificate and hash it holds, remembered if it is the
   newest height of its slot. *)
let pooled pool ~height ~round ~cluster ~(batch : Batch.t) ~cert ~prev_hash =
  let slot = height land (pool_slots - 1) in
  let here =
    match pool.recent.(slot) with
    | (b : Block.t) :: _ as here when b.height = height -> here
    | _ -> []
  in
  let batch =
    if pool.retain_payloads then batch
    else
      match List.find_opt (fun (b : Block.t) -> Batch.equal_stripped b.batch batch) here with
      | Some b -> b.batch
      | None when Batch.stripped batch -> batch
      | None -> Batch.strip batch
  in
  let cert =
    match cert with
    | None -> None
    | Some c -> (
        let same (b : Block.t) =
          match b.cert with Some c' -> Certificate.equal c' c | None -> false
        in
        match List.find_opt same here with Some b -> b.cert | None -> cert)
  in
  (* Equal hash inputs: the block hash is a pure function of them. *)
  let same_hash (b : Block.t) =
    b.round = round && b.cluster = cluster
    && String.equal b.batch.digest batch.digest
    && String.equal b.prev_hash prev_hash
  in
  match List.find_opt (fun b -> same_hash b && b.batch == batch && same_cert b.cert cert) here with
  | Some b -> b
  | None ->
      let block =
        match List.find_opt same_hash here with
        | Some b -> { b with batch; cert }
        | None -> Block.create ~height ~round ~cluster ~batch ~cert ~prev_hash
      in
      (match pool.recent.(slot) with
      | b :: _ when b.Block.height > height -> ()
      | _ -> pool.recent.(slot) <- block :: here);
      block

(* Append the next executed batch; returns the new block. *)
let append t ~round ~cluster ~batch ~cert =
  let prev_hash = tip_hash t in
  let height = t.len in
  let block = pooled t.pool ~height ~round ~cluster ~batch ~cert ~prev_hash in
  if t.len = 0 && Array.length t.blocks = 0 then t.blocks <- Array.make 256 block;
  ensure_capacity t;
  t.blocks.(t.len) <- block;
  t.len <- t.len + 1;
  t.txn_count <- t.txn_count + Array.length block.Block.batch.Batch.txns;
  block

(* Structural integrity: heights, hash links, block hashes. *)
let verify t : bool =
  let ok = ref true in
  let prev = ref Block.genesis_hash in
  for i = 0 to t.len - 1 do
    let b = t.blocks.(i) in
    if b.Block.height <> i then ok := false;
    if not (String.equal b.Block.prev_hash !prev) then ok := false;
    if not (Block.hash_valid b) then ok := false;
    prev := b.Block.hash
  done;
  !ok

(* Full audit: structure plus batch signatures and commit certificates
   (quorum = n − f of the issuing cluster). *)
let verify_certified t ~keychain ~quorum : bool =
  verify t
  && (let ok = ref true in
      for i = 0 to t.len - 1 do
        let b = t.blocks.(i) in
        if not (Batch.verify ~keychain b.Block.batch) then ok := false;
        (match b.Block.cert with
        | Some cert ->
            if not (Certificate.verify ~keychain ~quorum cert) then ok := false;
            if not (String.equal cert.Certificate.digest b.Block.batch.Batch.digest) then ok := false
        | None -> ok := false)
      done;
      !ok)

(* Suffix starting at [height]; used by recovering replicas. *)
let read_from t ~height =
  if height < 0 || height > t.len then invalid_arg "Ledger.read_from: bad height";
  Array.sub t.blocks height (t.len - height) |> Array.to_list

(* Tamper with a block in place (test/audit tooling: simulate a
   malicious replica rewriting history, then observe [verify] fail). *)
let tamper_for_test t ~height ~batch =
  if height < 0 || height >= t.len then invalid_arg "Ledger.tamper_for_test: bad height";
  let b = t.blocks.(height) in
  t.blocks.(height) <- { b with Block.batch }

(* Do two ledgers agree on a prefix?  Returns the length of the longest
   common prefix; safety requires that any two non-faulty replicas'
   ledgers are prefixes of one another. *)
let common_prefix a b =
  let m = min a.len b.len in
  let i = ref 0 in
  while !i < m && String.equal a.blocks.(!i).Block.hash b.blocks.(!i).Block.hash do
    incr i
  done;
  !i

let is_prefix_of a b = a.len <= b.len && common_prefix a b = a.len

(* Pairwise prefix agreement across a replica group: the safety
   relation every experiment (and the chaos monitor, continuously)
   checks.  Vacuously true for fewer than two ledgers. *)
let agreement ledgers =
  let rec pairs = function
    | [] -> true
    | a :: rest ->
        List.for_all (fun b -> is_prefix_of a b || is_prefix_of b a) rest && pairs rest
  in
  pairs ledgers
