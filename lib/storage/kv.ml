(* The deterministic KV state machine: the one executor of YCSB
   transactions, and the one seam between the fabric and the records.

   The fabric installs one under every replica: it executes ordered
   batches against the records, produces per-batch execution results
   (digest + op counts) for client replies, serves read-only batches
   without advancing the height, and snapshots/restores full state for
   checkpoint-based state transfer.  The records live in memory; with
   a {!Blockstore} attached every executed block's write set is also
   logged to disk, and an installed snapshot re-anchors the store.

   The replicas of one in-memory deployment share one image instead of
   holding a table each ({!shared}): the image's records array holds
   the state at its frontier, the highest height any member applied,
   and a ring keeps, for each of the last {!window} heights, the batch
   applied there, its result and its write set with old and new
   values.  A member below the frontier that applies the batch the
   ring holds at its height takes the stored result without executing
   it; a read, snapshot or digest below the frontier rewinds the array
   to the member's height, runs, and replays forward.  Anything else
   (another batch, a restore, {!records}, or falling out of the
   window) privatizes the member: it copies its own state out of the
   image and is a private Kv from then on.  A Kv with a store and a
   standalone {!memory} Kv are always private.

   Determinism: execution touches only the records array, the batch
   contents, and fixed mixing constants — no time, no randomness, no
   host state — so every non-faulty replica applying the same batch
   sequence produces byte-identical results, state digests, and
   snapshots, with or without a store, shared or private. *)

module Txn = Rdb_types.Txn
module Batch = Rdb_types.Batch
module App = Rdb_types.App
module Sha256 = Rdb_crypto.Sha256
module Splitmix64 = Rdb_prng.Splitmix64

(* Heights below the frontier an image keeps steps for.  It bounds the
   ring (about 0.6 MB of write sets at 100 writes a batch, plus the
   [txns] arrays of the last [window] batches, which the ring keeps
   alive after the ledgers strip them) and how far a member may lag
   before it is privatized; it moves CPU and memory, never a result.
   A healthy replica lags the frontier by a few heights, and on the
   benchmark workloads members leave a 256-step ring exactly as often
   as a 1,024-step one (DESIGN.md §16). *)
let window = 256

(* What applying one batch at one height did to the image. *)
type step = {
  mutable txns : Txn.t array; (* the batch's, compared by identity *)
  mutable digest : string;
  mutable result : App.result;
  mutable count : int; (* writes *)
  mutable keys : int array;
  mutable olds : Bytes.t; (* 8 bytes per write: the value it overwrote *)
  mutable news : Bytes.t; (* and the value it stored *)
}

type t = {
  mutable records : Backend.records; (* the image's array while shared *)
  n : int;
  store : Blockstore.t option; (* None: the state lives in memory only *)
  mutable height : int; (* batches applied; equals the ledger height it mirrors *)
  mutable image : image option; (* Some: a member of a shared image *)
  scratch : Buffer.t; (* per-batch result serialization, reused *)
  mutable wkeys : int array; (* write-set collection for the store, reused *)
  mutable wvals : int64 array;
}

and image = {
  state : Backend.records; (* the state at [frontier] *)
  mutable frontier : int;
  ring : step array; (* the step of height [h] at [h mod window], for the last [window] *)
  mutable members : t list;
}

let create ?store records =
  {
    records;
    n = Bigarray.Array1.dim records;
    store;
    height = (match store with Some s -> Blockstore.height s | None -> 0);
    image = None;
    scratch = Buffer.create 1024;
    wkeys = [||];
    wvals = [||];
  }

let memory ?(n_records = Rdb_ycsb.Table.default_records) () =
  create (Backend.init_records ~n_records)

let no_result = { App.digest = ""; reads = 0; writes = 0; scans = 0; scanned_rows = 0 }

(* [count] Kvs over one image of the initial table: the memory
   deployment's replicas. *)
let shared ?(n_records = Rdb_ycsb.Table.default_records) ~count () =
  let state = Backend.init_records ~n_records in
  let ring =
    Array.init window (fun _ ->
        {
          txns = [||];
          digest = "";
          result = no_result;
          count = 0;
          keys = [||];
          olds = Bytes.empty;
          news = Bytes.empty;
        })
  in
  let image = { state; frontier = 0; ring; members = [] } in
  let kvs = Array.init count (fun _ -> { (create state) with image = Some image }) in
  image.members <- Array.to_list kvs;
  kvs

let disk ?snapshot_every ?init ~dir ~n_records () =
  let store = Blockstore.open_or_create ?snapshot_every ?init ~dir ~n_records () in
  create ~store (Blockstore.records store)

let height t = t.height

(* Whether [t] is still a member of a shared image. *)
let in_image t = Option.is_some t.image

(* -- the shared image -------------------------------------------------- *)

let step img h = img.ring.(h mod window)

(* Undoes the steps from the frontier down to height [h], last write
   first. *)
let rewind img h =
  for s = img.frontier - 1 downto h do
    let st = step img s in
    for i = st.count - 1 downto 0 do
      Bigarray.Array1.unsafe_set img.state st.keys.(i) (Bytes.get_int64_ne st.olds (i * 8))
    done
  done

(* Redoes the steps from height [h] up to the frontier. *)
let replay img h =
  for s = h to img.frontier - 1 do
    let st = step img s in
    for i = 0 to st.count - 1 do
      Bigarray.Array1.unsafe_set img.state st.keys.(i) (Bytes.get_int64_ne st.news (i * 8))
    done
  done

(* [f t x] with [t.records] holding [t]'s own state: a member below
   the frontier sees the image rewound to its height, and the image is
   at its frontier again afterwards, whatever [f] does.  Elsewhere it
   is the plain call, which allocates nothing for a closed [f]. *)
let with_state t f x =
  match t.image with
  | Some img when t.height < img.frontier ->
      rewind img t.height;
      Fun.protect ~finally:(fun () -> replay img t.height) (fun () -> f t x)
  | _ -> f t x

(* Leaves the image with a private copy of this Kv's state. *)
let privatize t =
  match t.image with
  | None -> ()
  | Some img ->
      let own = with_state t (fun t () -> Backend.copy_records t.records) () in
      img.members <- List.filter (fun m -> m != t) img.members;
      t.records <- own;
      t.image <- None

(* The mutable state itself, which the caller may write: a member
   leaves its image first. *)
let records t =
  privatize t;
  t.records

(* -- execution ----------------------------------------------------------- *)

let[@inline never] grow st len =
  st.keys <- Array.make len 0;
  st.olds <- Bytes.create (len * 8);
  st.news <- Bytes.create (len * 8)

(* Execute every transaction of [b] against current state, appending
   each result value to the scratch buffer (8 bytes LE per txn, after
   the batch digest).  With [mutate] writes land in [records] (and in
   the write-set arrays when a store is attached, or in [undo] with
   their old values when the state is a shared image's); without it
   the batch is served read-only against a frozen state.  Returns the
   write-set size.  The write rule is
   new = splitmix64_mix(old) + txn.value, mixer hand-inlined so the
   load-mix-store chain stays in unboxed int64 registers (see
   lib/prng/splitmix64.ml). *)
let exec_into t (b : Batch.t) ~mutate ~(undo : step option) ~reads ~writes ~scans ~rows : int =
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
  (match undo with
  | Some st when Array.length st.keys < Array.length txns -> grow st (Array.length txns)
  | _ -> ());
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
        let old = Bigarray.Array1.unsafe_get records key in
        let z = Int64.add old 0x9E3779B97F4A7C15L in
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
          end;
          match undo with
          | Some st ->
              st.keys.(!wc) <- key;
              Bytes.set_int64_ne st.olds (!wc * 8) old;
              Bytes.set_int64_ne st.news (!wc * 8) nv;
              incr wc
          | None -> ()
        end;
        Buffer.add_int64_le t.scratch nv
  done;
  !wc

let run ?undo t (b : Batch.t) ~mutate : App.result =
  let reads = ref 0 and writes = ref 0 and scans = ref 0 and rows = ref 0 in
  let wc = exec_into t b ~mutate ~undo ~reads ~writes ~scans ~rows in
  if mutate then begin
    (match t.store with
    | Some s -> Blockstore.log_block s ~height:t.height ~keys:t.wkeys ~values:t.wvals ~count:wc
    | None -> ());
    (match undo with Some st -> st.count <- wc | None -> ());
    t.height <- t.height + 1
  end;
  {
    App.digest = Sha256.digest (Buffer.contents t.scratch);
    reads = !reads;
    writes = !writes;
    scans = !scans;
    scanned_rows = !rows;
  }

(* Makes room for the step at the frontier: when the ring is full, the
   members still at its oldest height need that step to rewind, so
   they leave first. *)
let drop_oldest img =
  let oldest = img.frontier - window in
  List.iter (fun m -> if m.height = oldest then privatize m) img.members

(* Execute the next ordered batch, advancing the height by one.  Must
   be called in ledger order.  A member at the frontier executes and
   records the step; one below it takes the recorded result of the
   same batch (same transactions array, same digest), and leaves the
   image for any other. *)
let apply t (b : Batch.t) =
  match t.image with
  | None -> run t b ~mutate:true
  | Some img when t.height = img.frontier ->
      if img.frontier >= window then drop_oldest img;
      let st = step img img.frontier in
      let r = run ~undo:st t b ~mutate:true in
      st.txns <- b.Batch.txns;
      st.digest <- b.Batch.digest;
      st.result <- r;
      img.frontier <- t.height;
      r
  | Some img ->
      let st = step img t.height in
      if st.txns == b.Batch.txns && String.equal st.digest b.Batch.digest then begin
        t.height <- t.height + 1;
        st.result
      end
      else begin
        privatize t;
        run t b ~mutate:true
      end

(* Execute a read-only batch against current state without advancing
   the height (the consensus-bypass read path). *)
let read t b = with_state t (fun t b -> run t b ~mutate:false) b

(* SHA-256 over the full state; O(n). *)
let state_digest t = with_state t (fun t () -> Backend.digest_records t.records) ()

(* With [share], a snapshot this Kv would serialize byte for byte (same
   height, same records) is returned itself rather than rebuilt: the
   serving replicas of one state transfer sit at the same height with
   identical state, and each copy is n_records * 8 bytes.  The check is
   one allocation-free pass that stops at the first differing record;
   a diverged replica still ships its own state. *)
let snapshot ?share t : App.snapshot =
  with_state t
    (fun t share ->
      match share with
      | Some (s : App.snapshot)
        when s.App.height = t.height && Backend.records_match t.records s.App.state ->
          s
      | _ -> { App.height = t.height; state = Backend.serialize_records t.records })
    share

(* Forward-ratchet only: a snapshot at or below the current height is
   ignored (a late state transfer must never rewind progress).  A
   member installs it on a private copy. *)
let restore t (s : App.snapshot) =
  if s.App.height > t.height then begin
    privatize t;
    Backend.restore_records t.records s.App.state;
    t.height <- s.App.height;
    Option.iter (fun store -> Blockstore.note_restore store ~height:s.App.height) t.store
  end

(* Release the store's open log channel.  Idempotent. *)
let close t = Option.iter Blockstore.close t.store
