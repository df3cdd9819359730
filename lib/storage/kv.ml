(* The deterministic KV state machine: the one executor of YCSB
   transactions, and the one seam between the fabric and the records.

   The fabric installs one under every replica: it executes ordered
   batches against the records, produces per-batch execution results
   (digest + op counts) for client replies, serves read-only batches
   without advancing the height, and snapshots/restores full state for
   checkpoint-based state transfer.  The records live in memory; with
   a {!Blockstore} attached every executed block's write set is also
   logged to disk, and an installed snapshot re-anchors the store.

   Determinism: execution touches only the records array, the batch
   contents, and fixed mixing constants — no time, no randomness, no
   host state — so every non-faulty replica applying the same batch
   sequence produces byte-identical results, state digests, and
   snapshots, with or without a store. *)

module Txn = Rdb_types.Txn
module Batch = Rdb_types.Batch
module App = Rdb_types.App
module Sha256 = Rdb_crypto.Sha256
module Splitmix64 = Rdb_prng.Splitmix64

type t = {
  records : Backend.records;
  n : int;
  store : Blockstore.t option; (* None: the state lives in memory only *)
  mutable height : int; (* batches applied; equals the ledger height it mirrors *)
  scratch : Buffer.t; (* per-batch result serialization, reused *)
  mutable wkeys : int array; (* write-set collection for the store, reused *)
  mutable wvals : int64 array;
}

let create ?store records =
  {
    records;
    n = Bigarray.Array1.dim records;
    store;
    height = (match store with Some s -> Blockstore.height s | None -> 0);
    scratch = Buffer.create 1024;
    wkeys = [||];
    wvals = [||];
  }

let memory ?(n_records = Rdb_ycsb.Table.default_records) () =
  create (Backend.init_records ~n_records)

(* Clone of a master image: deployments initialize one table and blit
   per replica rather than re-deriving 600k records n times. *)
let of_master master = create (Backend.copy_records master)

(* Adopt an existing records array without copying (the caller gives
   up ownership — this Kv becomes the only writer). *)
let of_records records = create records

let disk ?snapshot_every ?init ~dir ~n_records () =
  let store = Blockstore.open_or_create ?snapshot_every ?init ~dir ~n_records () in
  create ~store (Blockstore.records store)

let records t = t.records
let height t = t.height

(* Execute every transaction of [b] against current state, appending
   each result value to the scratch buffer (8 bytes LE per txn, after
   the batch digest).  With [mutate] writes land in [records] (and in
   the write-set arrays when a store is attached); without it the
   batch is served read-only against a frozen state.  Returns the
   write-set size.  The write rule is
   new = splitmix64_mix(old) + txn.value, mixer hand-inlined so the
   load-mix-store chain stays in unboxed int64 registers (see
   lib/prng/splitmix64.ml). *)
let exec_into t (b : Batch.t) ~mutate ~reads ~writes ~scans ~rows : int =
  let txns = b.Batch.txns in
  let records = t.records in
  let n = t.n in
  Buffer.clear t.scratch;
  Buffer.add_string t.scratch b.Batch.digest;
  let collect = mutate && Option.is_some t.store in
  if collect && Array.length t.wkeys < Array.length txns then begin
    t.wkeys <- Array.make (Array.length txns) 0;
    t.wvals <- Array.make (Array.length txns) 0L
  end;
  let wc = ref 0 in
  for i = 0 to Array.length txns - 1 do
    let txn = Array.unsafe_get txns i in
    let key = txn.Txn.key mod n in
    let key = if key < 0 then key + n else key in
    match txn.Txn.op with
    | Txn.Read ->
        incr reads;
        Buffer.add_int64_le t.scratch (Bigarray.Array1.unsafe_get records key)
    | Txn.Scan ->
        incr scans;
        let len = Txn.scan_len txn in
        rows := !rows + len;
        (* Fold the scanned rows through the mixer so the scan result
           witnesses every row it touched.  The rows wrap past the last
           record, as often as a scan longer than the table needs. *)
        let acc = ref 0L and k = ref key in
        for _ = 1 to len do
          acc := Splitmix64.mix (Int64.logxor !acc (Bigarray.Array1.unsafe_get records !k));
          k := if !k + 1 = n then 0 else !k + 1
        done;
        Buffer.add_int64_le t.scratch !acc
    | Txn.Write ->
        incr writes;
        (* Mix in the old value so state depends on execution order
           (ordering bugs corrupt digests). *)
        let z = Int64.add (Bigarray.Array1.unsafe_get records key) 0x9E3779B97F4A7C15L in
        let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
        let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
        let z = Int64.logxor z (Int64.shift_right_logical z 31) in
        let nv = Int64.add z txn.Txn.value in
        if mutate then begin
          Bigarray.Array1.unsafe_set records key nv;
          if collect then begin
            t.wkeys.(!wc) <- key;
            t.wvals.(!wc) <- nv;
            incr wc
          end
        end;
        Buffer.add_int64_le t.scratch nv
  done;
  !wc

let run t (b : Batch.t) ~mutate : App.result =
  let reads = ref 0 and writes = ref 0 and scans = ref 0 and rows = ref 0 in
  let wc = exec_into t b ~mutate ~reads ~writes ~scans ~rows in
  if mutate then begin
    (match t.store with
    | Some s -> Blockstore.log_block s ~height:t.height ~keys:t.wkeys ~values:t.wvals ~count:wc
    | None -> ());
    t.height <- t.height + 1
  end;
  {
    App.digest = Sha256.digest (Buffer.contents t.scratch);
    reads = !reads;
    writes = !writes;
    scans = !scans;
    scanned_rows = !rows;
  }

(* Execute the next ordered batch, advancing the height by one.  Must
   be called in ledger order. *)
let apply t b = run t b ~mutate:true

(* Execute a read-only batch against current state without advancing
   the height (the consensus-bypass read path). *)
let read t b = run t b ~mutate:false

(* SHA-256 over the full state; O(n). *)
let state_digest t = Backend.digest_records t.records

(* With [share], a snapshot this Kv would serialize byte for byte (same
   height, same records) is returned itself rather than rebuilt: the
   serving replicas of one state transfer sit at the same height with
   identical state, and each copy is n_records * 8 bytes.  The check is
   one allocation-free pass that stops at the first differing record;
   a diverged replica still ships its own state. *)
let snapshot ?share t : App.snapshot =
  match share with
  | Some (s : App.snapshot)
    when s.App.height = t.height && Backend.records_match t.records s.App.state ->
      s
  | _ -> { App.height = t.height; state = Backend.serialize_records t.records }

(* Forward-ratchet only: a snapshot at or below the current height is
   ignored (a late state transfer must never rewind progress). *)
let restore t (s : App.snapshot) =
  if s.App.height > t.height then begin
    Backend.restore_records t.records s.App.state;
    t.height <- s.App.height;
    Option.iter (fun store -> Blockstore.note_restore store ~height:s.App.height) t.store
  end

(* Release the store's open log channel.  Idempotent. *)
let close t = Option.iter Blockstore.close t.store
