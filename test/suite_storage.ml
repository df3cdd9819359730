(* Storage-engine tests: backend digest equivalence (the determinism
   contract of Storage.Backend), crash recovery of the persistent block
   store at every possible torn-write boundary, compaction to deltas and
   full images and re-anchoring, corrupt and stale deltas, the snapshot
   file and checksum against the whole-image writer they replaced, and
   mem-vs-disk deployment equivalence end to end. *)

module Config = Rdb_types.Config
module Txn = Rdb_types.Txn
module Batch = Rdb_types.Batch
module App = Rdb_types.App
module Time = Rdb_sim.Time
module Keychain = Rdb_crypto.Keychain
module Kv = Rdb_storage.Kv
module Backend = Rdb_storage.Backend
module Blockstore = Rdb_storage.Blockstore
module Splitmix64 = Rdb_prng.Splitmix64
module Sha256 = Rdb_crypto.Sha256
module Ledger = Rdb_ledger.Ledger

let kc = Keychain.create ~seed:"storage-suite" ~n_nodes:1

(* Small record space so full-state snapshots stay tiny and the
   every-byte truncation sweep stays fast. *)
let n_records = 64

(* Three writes per batch, distinct keys and values per batch, so every
   block produces a fixed-size log frame and a distinct state. *)
let write_batch i =
  let txns =
    Array.init 3 (fun j ->
        Txn.make ~key:((i * 3) + j) ~value:(Int64.of_int ((i * 31) + j + 1)) ~client_id:0 ())
  in
  Batch.create ~keychain:kc ~id:i ~cluster:0 ~origin:0 ~txns ~created:0

let read_batch i =
  let txns =
    [|
      Txn.make ~op:Txn.Read ~key:i ~value:0L ~client_id:0 ();
      Txn.make ~op:Txn.Scan ~key:(i + 1) ~value:7L ~client_id:0 ();
    |]
  in
  Batch.create ~keychain:kc ~id:(1000 + i) ~cluster:0 ~origin:0 ~txns ~created:0

(* -- filesystem helpers -------------------------------------------------- *)

let fresh_dir () =
  let f = Filename.temp_file "rdb-storage-test" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* The anchor files only exist once the store compacted or re-anchored:
   [snapshot.bin] after a full image, [delta.bin] after a delta.  Copy
   each one present. *)
let copy_snapshot ~src ~dst =
  List.iter
    (fun f ->
      let s = Filename.concat src f in
      if Sys.file_exists s then write_file (Filename.concat dst f) (read_file s))
    [ "snapshot.bin"; "delta.bin" ]

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Reference trajectory: state digest after each block, computed on the
   in-memory backend.  [ref_digests.(h)] is the digest at height [h]. *)
let ref_digests ~blocks =
  let kv = Kv.memory ~n_records () in
  let out = Array.make (blocks + 1) (Kv.state_digest kv) in
  for i = 0 to blocks - 1 do
    ignore (Kv.apply kv (write_batch i));
    out.(i + 1) <- Kv.state_digest kv
  done;
  out

(* -- backend equivalence ------------------------------------------------- *)

let test_backend_digest_equivalence () =
  with_dir (fun dir ->
      let mem = Kv.memory ~n_records () in
      let disk = Kv.disk ~dir ~n_records () in
      Alcotest.(check string) "identical initial state" (Kv.state_digest mem)
        (Kv.state_digest disk);
      for i = 0 to 19 do
        let b = write_batch i in
        let rm = Kv.apply mem b and rd = Kv.apply disk b in
        Alcotest.(check string)
          (Printf.sprintf "result digest at block %d" i)
          rm.App.digest rd.App.digest;
        Alcotest.(check string)
          (Printf.sprintf "state digest at height %d" (i + 1))
          (Kv.state_digest mem) (Kv.state_digest disk)
      done;
      Alcotest.(check int) "same height" (Kv.height mem) (Kv.height disk);
      let sm = Kv.snapshot mem and sd = Kv.snapshot disk in
      Alcotest.(check int) "snapshot heights agree" sm.App.height sd.App.height;
      Alcotest.(check string) "snapshot states byte-identical" sm.App.state sd.App.state;
      Kv.close disk)

let test_reads_leave_state_untouched () =
  with_dir (fun dir ->
      let mem = Kv.memory ~n_records () in
      let disk = Kv.disk ~dir ~n_records () in
      List.iter (fun kv -> ignore (Kv.apply kv (write_batch 0))) [ mem; disk ];
      let before = Kv.state_digest mem in
      let b = read_batch 0 in
      Alcotest.(check bool) "batch is read-only" true (Batch.read_only b);
      let rm = Kv.read mem b and rd = Kv.read disk b in
      Alcotest.(check string) "read results agree across backends" rm.App.digest rd.App.digest;
      Alcotest.(check int) "read counted" 1 rm.App.reads;
      Alcotest.(check int) "scan counted" 1 rm.App.scans;
      Alcotest.(check int) "scan rows = 1 + (value land 63)" 8 rm.App.scanned_rows;
      Alcotest.(check string) "state unchanged by reads" before (Kv.state_digest mem);
      Alcotest.(check string) "disk state unchanged too" (Kv.state_digest disk) before;
      Alcotest.(check int) "height unchanged" 1 (Kv.height mem);
      Kv.close disk)

(* -- crash recovery ------------------------------------------------------ *)

(* Run [blocks] writes against a disk store, then simulate a crash at
   every possible torn-write point: for every prefix length of
   blocks.log, reconstruct a crashed directory and reopen it.  The
   recovered store must land exactly on the reference digest for the
   number of complete frames it could replay. *)
let crash_sweep ?(check_anchors = ignore) ~snapshot_every ~blocks ~check_height () =
  let refs = ref_digests ~blocks in
  with_dir (fun dir ->
      let kv = Kv.disk ~snapshot_every ~dir ~n_records () in
      for i = 0 to blocks - 1 do
        ignore (Kv.apply kv (write_batch i))
      done;
      check_anchors dir;
      (* Simulate the crash: abandon [kv] without closing it; log_block
         flushes each frame, so the on-disk bytes are what a crash at
         this point would leave behind. *)
      let log = read_file (Filename.concat dir "blocks.log") in
      Alcotest.(check bool) "log is non-empty before the crash" true (String.length log > 0);
      for cut = 0 to String.length log do
        with_dir (fun dir2 ->
            copy_snapshot ~src:dir ~dst:dir2;
            write_file (Filename.concat dir2 "blocks.log") (String.sub log 0 cut);
            let r = Kv.disk ~snapshot_every ~dir:dir2 ~n_records () in
            let h = Kv.height r in
            check_height ~cut h;
            Alcotest.(check string)
              (Printf.sprintf "digest after crash at log byte %d (height %d)" cut h)
              refs.(h) (Kv.state_digest r);
            Kv.close r)
      done;
      Kv.close kv)

(* Frame size for our 3-write batches:
   [height][count] + 3 x ([key][value]) + [checksum] = 9 words. *)
let frame_bytes = 72

let test_crash_at_every_log_byte () =
  (* snapshot_every larger than the run: the log covers everything from
     genesis, so a cut at byte [c] must recover exactly [c / frame]
     blocks. *)
  crash_sweep ~snapshot_every:1024 ~blocks:6 ~check_height:(fun ~cut h ->
      Alcotest.(check int)
        (Printf.sprintf "complete frames below byte %d" cut)
        (cut / frame_bytes) h)
    ()

let test_crash_after_compaction () =
  (* snapshot_every=4 over 10 blocks: the store compacted at height 8,
     so any crash recovers to at least 8 and the log only adds the two
     post-snapshot frames. *)
  crash_sweep ~snapshot_every:4 ~blocks:10 ~check_height:(fun ~cut h ->
      Alcotest.(check int)
        (Printf.sprintf "snapshot base + complete frames at byte %d" cut)
        (8 + (cut / frame_bytes)) h)
    ()

let test_corrupt_frame_stops_replay () =
  let blocks = 6 in
  let refs = ref_digests ~blocks in
  with_dir (fun dir ->
      let kv = Kv.disk ~snapshot_every:1024 ~dir ~n_records () in
      for i = 0 to blocks - 1 do
        ignore (Kv.apply kv (write_batch i))
      done;
      let log = read_file (Filename.concat dir "blocks.log") in
      (* Flip one byte inside the fourth frame's payload: replay must
         stop after the three intact frames, discarding the rest. *)
      let corrupt = Bytes.of_string log in
      let off = (3 * frame_bytes) + 20 in
      Bytes.set corrupt off (Char.chr (Char.code (Bytes.get corrupt off) lxor 0xFF));
      with_dir (fun dir2 ->
          copy_snapshot ~src:dir ~dst:dir2;
          write_file (Filename.concat dir2 "blocks.log") (Bytes.to_string corrupt);
          let r = Kv.disk ~snapshot_every:1024 ~dir:dir2 ~n_records () in
          Alcotest.(check int) "replay stops at the corrupt frame" 3 (Kv.height r);
          Alcotest.(check string) "state is the intact prefix" refs.(3) (Kv.state_digest r);
          Kv.close r);
      Kv.close kv)

let test_lost_snapshot_falls_back_to_genesis () =
  (* After compaction the log starts above genesis; if the snapshot is
     gone those frames are an unappliable gap, so recovery restarts
     from the identical initial table rather than applying them out of
     order. *)
  let refs = ref_digests ~blocks:10 in
  with_dir (fun dir ->
      let kv = Kv.disk ~snapshot_every:4 ~dir ~n_records () in
      for i = 0 to 9 do
        ignore (Kv.apply kv (write_batch i))
      done;
      with_dir (fun dir2 ->
          write_file (Filename.concat dir2 "blocks.log")
            (read_file (Filename.concat dir "blocks.log"));
          let r = Kv.disk ~snapshot_every:4 ~dir:dir2 ~n_records () in
          Alcotest.(check int) "gapped log cannot apply" 0 (Kv.height r);
          Alcotest.(check string) "state is genesis" refs.(0) (Kv.state_digest r);
          Kv.close r);
      Kv.close kv)

let test_recovery_idempotent_and_reanchored () =
  let blocks = 7 in
  let refs = ref_digests ~blocks in
  with_dir (fun dir ->
      let kv = Kv.disk ~snapshot_every:1024 ~dir ~n_records () in
      for i = 0 to blocks - 1 do
        ignore (Kv.apply kv (write_batch i))
      done;
      (* Crash with a torn tail: half of an eighth frame. *)
      let log = read_file (Filename.concat dir "blocks.log") in
      write_file (Filename.concat dir "blocks.log") (log ^ String.make 20 '\x55');
      let r1 = Kv.disk ~snapshot_every:1024 ~dir ~n_records () in
      Alcotest.(check int) "recovers the full height" blocks (Kv.height r1);
      Alcotest.(check string) "recovers the pre-crash digest" refs.(blocks)
        (Kv.state_digest r1);
      Kv.close r1;
      (* Recovery re-anchored: the snapshot holds the full height and
         the log restarted empty, so the torn tail is gone for good. *)
      Alcotest.(check int) "log truncated by the re-anchor" 0
        (String.length (read_file (Filename.concat dir "blocks.log")));
      let r2 = Kv.disk ~snapshot_every:1024 ~dir ~n_records () in
      Alcotest.(check int) "second recovery is identical" blocks (Kv.height r2);
      Alcotest.(check string) "digest stable across reopens" refs.(blocks)
        (Kv.state_digest r2);
      Kv.close r2)

let test_installed_snapshot_persists () =
  (* Checkpoint state transfer: a snapshot installed via [restore] on a
     disk-backed store must survive a restart (note_restore re-anchors
     the on-disk state). *)
  with_dir (fun src_dir ->
      with_dir (fun dst_dir ->
          let src = Kv.disk ~dir:src_dir ~n_records () in
          for i = 0 to 4 do
            ignore (Kv.apply src (write_batch i))
          done;
          let snap = Kv.snapshot src in
          let dst = Kv.disk ~dir:dst_dir ~n_records () in
          Kv.restore dst snap;
          Alcotest.(check int) "snapshot installed" 5 (Kv.height dst);
          Kv.close dst;
          let r = Kv.disk ~dir:dst_dir ~n_records () in
          Alcotest.(check int) "installed height survives restart" 5 (Kv.height r);
          Alcotest.(check string) "installed state survives restart" (Kv.state_digest src)
            (Kv.state_digest r);
          (* Forward-ratchet: replaying the same snapshot cannot rewind
             or double-apply. *)
          Kv.restore r snap;
          Alcotest.(check int) "stale restore ignored" 5 (Kv.height r);
          Kv.close r;
          Kv.close src))

(* -- snapshot file format ------------------------------------------------- *)

(* The snapshot writer streams the records through one reused chunk
   and folds the checksum as it goes.  The reference is the whole-image
   writer it replaced: build the full file in a Buffer, then fold
   [Splitmix64.mix] over every word. *)
let reference_fold s ~pos ~words =
  let acc = ref 0x436865636B73756DL in
  for k = 0 to words - 1 do
    acc := Splitmix64.mix (Int64.logxor !acc (String.get_int64_le s (pos + (k * 8))))
  done;
  !acc

let reference_snapshot (r : Backend.records) ~height =
  let n = Bigarray.Array1.dim r in
  let b = Buffer.create ((n * 8) + 32) in
  Buffer.add_int64_le b 0x5244425F534E4150L;
  Buffer.add_int64_le b (Int64.of_int height);
  Buffer.add_int64_le b (Int64.of_int n);
  for i = 0 to n - 1 do
    Buffer.add_int64_le b (Bigarray.Array1.get r i)
  done;
  let body = Buffer.contents b in
  Buffer.add_int64_le b (reference_fold body ~pos:0 ~words:(n + 3));
  Buffer.contents b

let test_snapshot_spans_chunks () =
  (* Two full chunks plus a three-word tail, with writes on both sides
     of each chunk boundary and in the tail. *)
  let words = Backend.chunk_bytes / 8 in
  let n_records = (2 * words) + 3 in
  with_dir (fun dir ->
      let bs = Blockstore.open_or_create ~dir ~n_records () in
      let r = Blockstore.records bs in
      List.iter
        (fun i -> Bigarray.Array1.set r i (Int64.of_int (-i)))
        [ 0; words - 1; words; (2 * words) - 1; 2 * words; n_records - 1 ];
      Blockstore.note_restore bs ~height:5;
      Blockstore.close bs;
      Alcotest.(check string) "snapshot.bin equals the whole-image reference"
        (reference_snapshot r ~height:5)
        (read_file (Filename.concat dir "snapshot.bin"));
      Alcotest.(check string) "chunked state digest equals one-shot SHA-256"
        (Sha256.digest (Backend.serialize_records r))
        (Backend.digest_records r);
      let kv = Kv.disk ~dir ~n_records () in
      Alcotest.(check int) "reopened at the snapshot height" 5 (Kv.height kv);
      Alcotest.(check string) "reopened state digest" (Backend.digest_records r)
        (Kv.state_digest kv);
      Kv.close kv)

(* Random word strings read from random offsets, so [pos] need not be
   word-aligned; pins the hand-inlined mixer to [Splitmix64.mix]. *)
let prop_checksum_matches_reference =
  let gen =
    let open QCheck.Gen in
    int_range 0 300 >>= fun len ->
    string_size ~gen:char (return len) >>= fun s ->
    int_bound len >>= fun pos ->
    int_bound ((len - pos) / 8) >|= fun words -> (s, pos, words)
  in
  QCheck.Test.make ~name:"blockstore checksum = Splitmix64 fold" ~count:500
    (QCheck.make
       ~print:(fun (s, pos, words) ->
         Printf.sprintf "len=%d pos=%d words=%d" (String.length s) pos words)
       gen)
    (fun (s, pos, words) ->
      Int64.equal (reference_fold s ~pos ~words) (Blockstore.checksum s ~pos ~words))

let test_corrupt_snapshot_falls_back_to_genesis () =
  (* A snapshot that fails its checksum is rejected whole: with the
     log above it unappliable, recovery lands on genesis, never on a
     partly loaded state.  The compactions at 4 and 8 write deltas, so
     the full image at 8 comes from the re-anchor on reopen. *)
  let refs = ref_digests ~blocks:10 in
  with_dir (fun dir ->
      let kv = Kv.disk ~snapshot_every:4 ~dir ~n_records () in
      for i = 0 to 7 do
        ignore (Kv.apply kv (write_batch i))
      done;
      Kv.close kv;
      let kv = Kv.disk ~snapshot_every:4 ~dir ~n_records () in
      for i = 8 to 9 do
        ignore (Kv.apply kv (write_batch i))
      done;
      let snap = read_file (Filename.concat dir "snapshot.bin") in
      let flipped = Bytes.of_string snap in
      let off = 24 + (8 * 5) + 3 in
      Bytes.set flipped off (Char.chr (Char.code (Bytes.get flipped off) lxor 0x01));
      List.iter
        (fun (what, bad) ->
          with_dir (fun dir2 ->
              write_file (Filename.concat dir2 "snapshot.bin") bad;
              write_file (Filename.concat dir2 "blocks.log")
                (read_file (Filename.concat dir "blocks.log"));
              let r = Kv.disk ~snapshot_every:4 ~dir:dir2 ~n_records () in
              Alcotest.(check int) (what ^ ": snapshot rejected") 0 (Kv.height r);
              Alcotest.(check string) (what ^ ": state is genesis") refs.(0)
                (Kv.state_digest r);
              Kv.close r))
        [
          ("byte flipped in the record body", Bytes.to_string flipped);
          ("truncated by 8 bytes", String.sub snap 0 (String.length snap - 8));
        ];
      Kv.close kv)

let test_closed_store_ignores_restore () =
  with_dir (fun dir ->
      let bs = Blockstore.open_or_create ~dir ~n_records () in
      Blockstore.close bs;
      let listing () =
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.map (fun f -> (f, read_file (Filename.concat dir f)))
      in
      let before = listing () in
      Blockstore.note_restore bs ~height:3;
      Alcotest.(check (list (pair string string))) "directory untouched" before (listing ()))

(* -- end-to-end deployment equivalence ----------------------------------- *)

module Dep = Rdb_fabric.Deployment.Make (Rdb_pbft.Replica)
module Report = Rdb_fabric.Report

let dep_cfg storage =
  let base =
    {
      Config.default with
      Config.local_timeout_ms = 500.0;
      remote_timeout_ms = 1_000.0;
      client_timeout_ms = 1_500.0;
      checkpoint_interval = 60;
    }
  in
  Config.make ~base ~z:1 ~n:4 ~batch_size:5 ~client_inflight:4 ~seed:1 ~storage ()

let test_mem_vs_disk_deployment () =
  with_dir (fun store_dir ->
      let dm = Dep.create ~n_records:1000 (dep_cfg Config.Memory) in
      let dd = Dep.create ~n_records:1000 ~store_dir (dep_cfg Config.Disk) in
      let rm = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 2) dm in
      let rd = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 2) dd in
      (* The backend is invisible to consensus and to the metrics: the
         disk deployment must reproduce the memory run exactly. *)
      Alcotest.(check int) "same completed txns" rm.Report.completed_txns
        rd.Report.completed_txns;
      Alcotest.(check int) "same decisions" rm.Report.decisions rd.Report.decisions;
      Alcotest.(check string) "reports label their backend" "disk" rd.Report.storage;
      Alcotest.(check string) "memory labelled too" "mem" rm.Report.storage;
      for i = 0 to 3 do
        Alcotest.(check string)
          (Printf.sprintf "replica %d ledger tip" i)
          (Ledger.tip_hash (Dep.ledger dm ~replica:i))
          (Ledger.tip_hash (Dep.ledger dd ~replica:i));
        Alcotest.(check string)
          (Printf.sprintf "replica %d state digest" i)
          (Kv.state_digest (Dep.kv dm ~replica:i))
          (Kv.state_digest (Dep.kv dd ~replica:i))
      done;
      Dep.close dm;
      Dep.close dd;
      (* The disk deployment left recoverable per-replica stores behind:
         reopening each replica's store reproduces its final height and
         state. *)
      for i = 0 to 3 do
        let kv = Dep.kv dm ~replica:i in
        let r =
          Kv.disk ~dir:(Filename.concat store_dir (Printf.sprintf "r%d" i)) ~n_records:1000 ()
        in
        Alcotest.(check int)
          (Printf.sprintf "replica %d store recovers final height" i)
          (Kv.height kv) (Kv.height r);
        Alcotest.(check string)
          (Printf.sprintf "replica %d store recovers final state" i)
          (Kv.state_digest kv) (Kv.state_digest r);
        Kv.close r
      done)

(* -- deltas between full images -------------------------------------------- *)

(* With 64 records and 3 fresh keys a block, snapshot_every=4 dirties 12
   records between compactions: deltas at heights 4 and 8 (12 and 24 of
   64 records dirty), a full image at 12 (36 dirty), a delta at 16. *)
let anchors dir =
  List.filter (fun f -> Sys.file_exists (Filename.concat dir f)) [ "snapshot.bin"; "delta.bin" ]

let image_height dir =
  Int64.to_int (String.get_int64_le (read_file (Filename.concat dir "snapshot.bin")) 8)

let test_crash_sweep_delta_then_image () =
  List.iter
    (fun (blocks, anchor, files, image) ->
      crash_sweep ~snapshot_every:4 ~blocks
        ~check_anchors:(fun dir ->
          Alcotest.(check (list string))
            (Printf.sprintf "anchor files after %d blocks" blocks)
            files (anchors dir);
          Option.iter
            (fun h ->
              Alcotest.(check int) (Printf.sprintf "image height after %d blocks" blocks) h
                (image_height dir))
            image)
        ~check_height:(fun ~cut h ->
          Alcotest.(check int)
            (Printf.sprintf "%d blocks: anchor %d + complete frames at byte %d" blocks anchor cut)
            (anchor + (cut / frame_bytes)) h)
        ())
    [
      (10, 8, [ "delta.bin" ], None);
      (14, 12, [ "snapshot.bin" ], Some 12);
      (18, 16, [ "snapshot.bin"; "delta.bin" ], Some 12);
    ]

let test_corrupt_delta_stops_at_image () =
  (* A delta that fails its checksum is rejected whole: recovery keeps
     the full image at 12, and the log above the delta's height 16 is
     a gap, so it stops there, never on a partly applied delta. *)
  let refs = ref_digests ~blocks:18 in
  with_dir (fun dir ->
      let kv = Kv.disk ~snapshot_every:4 ~dir ~n_records () in
      for i = 0 to 17 do
        ignore (Kv.apply kv (write_batch i))
      done;
      let delta = read_file (Filename.concat dir "delta.bin") in
      let flipped = Bytes.of_string delta in
      let off = 40 + 16 + 11 in
      Bytes.set flipped off (Char.chr (Char.code (Bytes.get flipped off) lxor 0x01));
      List.iter
        (fun (what, bad) ->
          with_dir (fun dir2 ->
              List.iter
                (fun f -> write_file (Filename.concat dir2 f) (read_file (Filename.concat dir f)))
                [ "snapshot.bin"; "blocks.log" ];
              write_file (Filename.concat dir2 "delta.bin") bad;
              let r = Kv.disk ~snapshot_every:4 ~dir:dir2 ~n_records () in
              Alcotest.(check int) (what ^ ": delta rejected") 12 (Kv.height r);
              Alcotest.(check string) (what ^ ": state is the image's") refs.(12)
                (Kv.state_digest r);
              Kv.close r))
        [
          ("byte flipped in an entry", Bytes.to_string flipped);
          ("truncated by 8 bytes", String.sub delta 0 (String.length delta - 8));
        ];
      Kv.close kv)

let test_stale_delta_ignored () =
  (* A crash between a full image's rename and the delta's removal
     leaves the old delta beside an image that supersedes it.  A delta
     applies only on the image named by its base height and checksum. *)
  let refs = ref_digests ~blocks:18 in
  with_dir (fun dir ->
      let kv = Kv.disk ~snapshot_every:4 ~dir ~n_records () in
      let apply_upto n =
        for i = Kv.height kv to n - 1 do
          ignore (Kv.apply kv (write_batch i))
        done
      in
      apply_upto 10;
      let on_genesis = read_file (Filename.concat dir "delta.bin") in
      apply_upto 14;
      Alcotest.(check (list string)) "the image at 12 removed delta.bin" [ "snapshot.bin" ]
        (anchors dir);
      with_dir (fun dir2 ->
          copy_snapshot ~src:dir ~dst:dir2;
          write_file (Filename.concat dir2 "blocks.log")
            (read_file (Filename.concat dir "blocks.log"));
          write_file (Filename.concat dir2 "delta.bin") on_genesis;
          let r = Kv.disk ~snapshot_every:4 ~dir:dir2 ~n_records () in
          Alcotest.(check int) "base height mismatch: delta ignored" 14 (Kv.height r);
          Alcotest.(check string) "state is image + log" refs.(14) (Kv.state_digest r);
          Kv.close r);
      apply_upto 18;
      let on_image_12 = read_file (Filename.concat dir "delta.bin") in
      with_dir (fun dir3 ->
          (* Another image at the same height 12: genesis content. *)
          let bs = Blockstore.open_or_create ~dir:dir3 ~n_records () in
          Blockstore.note_restore bs ~height:12;
          Blockstore.close bs;
          write_file (Filename.concat dir3 "delta.bin") on_image_12;
          let r = Kv.disk ~snapshot_every:4 ~dir:dir3 ~n_records () in
          Alcotest.(check int) "base checksum mismatch: delta ignored" 12 (Kv.height r);
          Alcotest.(check string) "state is that image's" refs.(0) (Kv.state_digest r);
          Kv.close r);
      Kv.close kv)

(* -- scratch stores ----------------------------------------------------------- *)

(* A Disk deployment without [store_dir] roots its stores in a fresh
   temp directory; [close] must remove it, and stay idempotent. *)
let test_disk_deployment_removes_scratch_store () =
  let saved = Filename.get_temp_dir_name () in
  with_dir (fun tmp ->
      Filename.set_temp_dir_name tmp;
      Fun.protect
        ~finally:(fun () -> Filename.set_temp_dir_name saved)
        (fun () ->
          let d = Dep.create ~n_records:1000 (dep_cfg Config.Disk) in
          ignore (Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 1) d);
          Alcotest.(check int) "one store root while open" 1 (Array.length (Sys.readdir tmp));
          Dep.close d;
          Dep.close d;
          Alcotest.(check (array string)) "nothing left behind" [||] (Sys.readdir tmp)))

(* -- Kv against a reference ---------------------------------------------- *)

(* The transaction semantics, restated on a plain array: the key wraps
   into the table (negative keys too), a write stores
   [Splitmix64.mix old + value] and returns it, a read returns the
   record, and a scan folds [Splitmix64.mix] over the [scan_len] rows
   from the key, wrapping past the last record.  [mutate:false] is the
   read-only path: writes compute their value but store nothing. *)
let reference_exec (model : int64 array) (b : Batch.t) ~mutate =
  let n = Array.length model in
  let buf = Buffer.create 256 in
  Buffer.add_string buf b.Batch.digest;
  Array.iter
    (fun (txn : Txn.t) ->
      let key = ((txn.Txn.key mod n) + n) mod n in
      let v =
        match txn.Txn.op with
        | Txn.Read -> model.(key)
        | Txn.Scan ->
            let acc = ref 0L in
            for j = 0 to Txn.scan_len txn - 1 do
              acc := Splitmix64.mix (Int64.logxor !acc model.((key + j) mod n))
            done;
            !acc
        | Txn.Write ->
            let nv = Int64.add (Splitmix64.mix model.(key)) txn.Txn.value in
            if mutate then model.(key) <- nv;
            nv
      in
      Buffer.add_int64_le buf v)
    b.Batch.txns;
  Sha256.digest (Buffer.contents buf)

(* Random tables (1 to 100 records, so scans often wrap, some more than
   once) and random batches of reads, scans and writes with negative
   and out-of-range keys, each applied or served read-only. *)
let prop_kv_matches_reference =
  let open QCheck in
  let txn =
    Gen.(
      map3
        (fun op key value -> Txn.make ~op ~key ~value ~client_id:0 ())
        (oneofl [ Txn.Read; Txn.Scan; Txn.Write ])
        (int_range (-1_000) 1_000) ui64)
  in
  let batch = Gen.(pair bool (array_size (int_range 1 8) txn)) in
  let gen = Gen.(pair (int_range 1 100) (list_size (int_range 1 12) batch)) in
  let print (n, bs) =
    Printf.sprintf "n_records=%d batches=[%s]" n
      (String.concat "; "
         (List.map
            (fun (apply, txns) ->
              Printf.sprintf "%s %s" (if apply then "apply" else "read")
                (String.concat ","
                   (Array.to_list
                      (Array.map
                         (fun (t : Txn.t) ->
                           Printf.sprintf "%s:%d:%Ld"
                             (match t.Txn.op with
                             | Txn.Read -> "r"
                             | Txn.Scan -> "s"
                             | Txn.Write -> "w")
                             t.Txn.key t.Txn.value)
                         txns))))
            bs))
  in
  Test.make ~name:"kv executes like the reference" ~count:300 (make ~print gen)
    (fun (n_records, batches) ->
      let kv = Kv.memory ~n_records () in
      let model = Array.init n_records (Bigarray.Array1.get (Kv.records kv)) in
      List.iteri
        (fun i (apply, txns) ->
          let b = Batch.create ~keychain:kc ~id:i ~cluster:0 ~origin:0 ~txns ~created:0 in
          let expected = reference_exec model b ~mutate:apply in
          let height = Kv.height kv and digest = Kv.state_digest kv in
          let r = if apply then Kv.apply kv b else Kv.read kv b in
          if r.App.digest <> expected then Test.fail_reportf "batch %d: result digest" i;
          if apply then begin
            if Kv.height kv <> height + 1 then Test.fail_reportf "batch %d: height" i
          end
          else if Kv.height kv <> height || Kv.state_digest kv <> digest then
            Test.fail_reportf "batch %d: read moved the state" i;
          Array.iteri
            (fun k v ->
              if not (Int64.equal v (Bigarray.Array1.get (Kv.records kv) k)) then
                Test.fail_reportf "batch %d: record %d" i k)
            model)
        batches;
      true)

let suite =
  [
    ("backend digest equivalence", `Quick, test_backend_digest_equivalence);
    ("reads leave state untouched", `Quick, test_reads_leave_state_untouched);
    ("crash at every log byte", `Quick, test_crash_at_every_log_byte);
    ("crash after compaction", `Quick, test_crash_after_compaction);
    ("corrupt frame stops replay", `Quick, test_corrupt_frame_stops_replay);
    ("lost snapshot falls back to genesis", `Quick, test_lost_snapshot_falls_back_to_genesis);
    ("recovery idempotent, re-anchored", `Quick, test_recovery_idempotent_and_reanchored);
    ("installed snapshot persists", `Quick, test_installed_snapshot_persists);
    ("mem vs disk deployments identical", `Quick, test_mem_vs_disk_deployment);
    ("snapshot spanning chunks, same bytes", `Quick, test_snapshot_spans_chunks);
    ("corrupt snapshot falls back to genesis", `Quick, test_corrupt_snapshot_falls_back_to_genesis);
    ("closed store ignores note_restore", `Quick, test_closed_store_ignores_restore);
    QCheck_alcotest.to_alcotest prop_checksum_matches_reference;
    ("crash sweep over delta and full compactions", `Quick, test_crash_sweep_delta_then_image);
    ("corrupt delta stops at the image", `Quick, test_corrupt_delta_stops_at_image);
    ("stale delta ignored", `Quick, test_stale_delta_ignored);
    ("disk deployment removes its scratch store", `Quick,
      test_disk_deployment_removes_scratch_store);
    QCheck_alcotest.to_alcotest prop_kv_matches_reference;
  ]

(* -- shared snapshots ---------------------------------------------------------- *)

(* Words [f ()] allocates, minor and major heap together.  The second
   [Gc.counters] reads the counters before allocating its own result,
   so the first call's result is the only overhead, the same on every
   call: [allocated_words ignore] measures it. *)
let allocated_words f =
  let mi0, pr0, ma0 = Gc.counters () in
  f ();
  let mi1, pr1, ma1 = Gc.counters () in
  int_of_float (mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0))

(* Two replicas that applied the same blocks. *)
let twin_kvs ~blocks =
  let a = Kv.memory ~n_records () and b = Kv.memory ~n_records () in
  for i = 0 to blocks - 1 do
    ignore (Kv.apply a (write_batch i));
    ignore (Kv.apply b (write_batch i))
  done;
  (a, b)

let test_snapshot_share_only_identical () =
  let a, b = twin_kvs ~blocks:4 in
  let sa = Kv.snapshot a in
  Alcotest.(check bool) "same height and records: the shared snapshot itself" true
    (Kv.snapshot ~share:sa b == sa);
  (* One record differs, at the first, a middle and the last index: a
     fresh snapshot of this Kv's own state. *)
  List.iter
    (fun key ->
      let _, c = twin_kvs ~blocks:4 in
      let records = Kv.records c in
      Bigarray.Array1.set records key (Int64.succ (Bigarray.Array1.get records key));
      let sc = Kv.snapshot ~share:sa c in
      let label = Printf.sprintf "record %d differs" key in
      Alcotest.(check bool) (label ^ ": not shared") false (sc == sa);
      Alcotest.(check int) (label ^ ": height") (Kv.height c) sc.App.height;
      Alcotest.(check string) (label ^ ": own state") (Kv.snapshot c).App.state sc.App.state;
      Alcotest.(check bool) (label ^ ": differs from the offer") false
        (String.equal sc.App.state sa.App.state))
    [ 0; n_records / 2; n_records - 1 ];
  (* Same records, another height: fresh, at this Kv's height. *)
  let d = Kv.memory ~n_records () in
  Kv.restore d { sa with App.height = sa.App.height + 3 };
  let sd = Kv.snapshot ~share:sa d in
  Alcotest.(check bool) "height differs: not shared" false (sd == sa);
  Alcotest.(check int) "height differs: own height" (sa.App.height + 3) sd.App.height;
  Alcotest.(check string) "height differs: same records" sa.App.state sd.App.state;
  (* An offer of another record count never matches. *)
  let big = Kv.memory ~n_records:(n_records * 2) () in
  let short = Kv.snapshot (Kv.memory ~n_records ()) in
  Alcotest.(check int) "record count differs: own state"
    (n_records * 2 * 8) (String.length (Kv.snapshot ~share:short big).App.state)

let test_snapshot_share_allocates_nothing () =
  (* 4096 records: the image (32 KiB) is allocated in the major heap,
     so only a count over both heaps can see it. *)
  let n_records = 4096 in
  let a = Kv.memory ~n_records () and b = Kv.memory ~n_records () in
  let share = Some (Kv.snapshot a) in
  let overhead = allocated_words ignore in
  Alcotest.(check int) "a sharing call" 0
    (allocated_words (fun () -> ignore (Sys.opaque_identity (Kv.snapshot ?share b))) - overhead);
  ignore (Kv.apply b (write_batch 0));
  Alcotest.(check bool) "a call that cannot share builds the image" true
    (allocated_words (fun () -> ignore (Sys.opaque_identity (Kv.snapshot ?share b))) - overhead
    >= n_records)

let suite =
  suite
  @ [
      ("snapshot ~share only when identical", `Quick, test_snapshot_share_only_identical);
      ("snapshot ~share allocates nothing", `Quick, test_snapshot_share_allocates_nothing);
    ]

(* -- shared images against private twins ----------------------------------- *)

(* Batches built without a signature of their own: [Kv] reads only the
   transactions and the digest. *)
let signed = lazy (write_batch 0)

let unsigned ~id txns =
  {
    (Lazy.force signed) with
    Batch.id;
    txns;
    digest = Batch.digest_of ~id ~cluster:0 ~origin:0 ~txns;
    vmemo = None;
  }

type shared_op =
  | Canonical of int  (** the member applies the canonical batch at its height *)
  | Fresh of int  (** a divergent batch: a transactions array of its own *)
  | Relabelled of int  (** the canonical transactions under another digest *)
  | Bypass of int * int  (** a read-only batch of point reads *)
  | Scanned of int * int  (** a read-only batch of scans *)
  | Snapshot of int * bool  (** with [~share] of the last snapshot served, or without *)
  | Digest of int
  | Restore of int * int  (** the second member's current snapshot *)
  | Outrun of int  (** the others apply until this member falls out of the window *)

let shared_op_to_string = function
  | Canonical i -> Printf.sprintf "canonical %d" i
  | Fresh i -> Printf.sprintf "fresh %d" i
  | Relabelled i -> Printf.sprintf "relabelled %d" i
  | Bypass (i, k) -> Printf.sprintf "read %d@%d" i k
  | Scanned (i, k) -> Printf.sprintf "scan %d@%d" i k
  | Snapshot (i, share) -> Printf.sprintf "snapshot %d%s" i (if share then " ~share" else "")
  | Digest i -> Printf.sprintf "digest %d" i
  | Restore (i, j) -> Printf.sprintf "restore %d from %d" i j
  | Outrun i -> Printf.sprintf "outrun %d" i

(* k members of one image and k private twins take the same operations;
   every result, snapshot, digest and height must match the twin's.
   The canonical batch of each height is one value, so members below
   the frontier take the step the first one recorded, while fresh and
   relabelled batches, restores and falling out of the window make a
   member leave the image. *)
let prop_shared_matches_private =
  let open QCheck in
  let op k =
    let m = Gen.int_bound (k - 1) in
    Gen.(
      frequency
        [
          (12, map (fun i -> Canonical i) m);
          (1, map (fun i -> Fresh i) m);
          (1, map (fun i -> Relabelled i) m);
          (2, map2 (fun i key -> Bypass (i, key)) m (int_bound 1_000));
          (2, map2 (fun i key -> Scanned (i, key)) m (int_bound 1_000));
          (2, map2 (fun i share -> Snapshot (i, share)) m bool);
          (1, map (fun i -> Digest i) m);
          (1, map2 (fun i j -> Restore (i, j)) m m);
          (1, map (fun i -> Outrun i) m);
        ])
  in
  let gen =
    Gen.(int_range 2 5 >>= fun k -> map (fun ops -> (k, ops)) (list_size (int_range 1 40) (op k)))
  in
  let print (k, ops) =
    Printf.sprintf "k=%d [%s]" k (String.concat "; " (List.map shared_op_to_string ops))
  in
  Test.make ~name:"shared image matches private twins" ~count:60
    (make ~print ~shrink:Shrink.(pair nil list) gen)
    (fun (k, ops) ->
      let members = Kv.shared ~n_records ~count:k () in
      let twins = Array.init k (fun _ -> Kv.memory ~n_records ()) in
      let canon = Hashtbl.create 64 in
      let canonical h =
        match Hashtbl.find_opt canon h with
        | Some b -> b
        | None ->
            let txns =
              Array.init 3 (fun j ->
                  let key =
                    Int64.to_int (Splitmix64.mix (Int64.of_int ((h * 3) + j))) land 0xFFFF
                  in
                  if j = 2 then Txn.make ~op:Txn.Read ~key ~value:0L ~client_id:0 ()
                  else Txn.make ~key ~value:(Int64.of_int (h + j)) ~client_id:0 ())
            in
            let b = unsigned ~id:h txns in
            Hashtbl.add canon h b;
            b
      in
      let fresh = ref 0 in
      let served_m = ref None and served_t = ref None in
      let same_result what (a : App.result) (b : App.result) =
        if a <> b then Test.fail_reportf "%s: result differs from the twin's" what
      in
      let same_snapshot what (a : App.snapshot) (b : App.snapshot) =
        if a.App.height <> b.App.height || not (String.equal a.App.state b.App.state) then
          Test.fail_reportf "%s: snapshot differs from the twin's" what
      in
      let apply what i b = same_result what (Kv.apply members.(i) b) (Kv.apply twins.(i) b) in
      let step op =
        let what = shared_op_to_string op in
        match op with
        | Canonical i -> apply what i (canonical (Kv.height members.(i)))
        | Fresh i ->
            incr fresh;
            let txns =
              [| Txn.make ~key:!fresh ~value:(Int64.of_int (-(!fresh))) ~client_id:0 () |]
            in
            apply what i (unsigned ~id:(-(!fresh)) txns)
        | Relabelled i ->
            let b = canonical (Kv.height members.(i)) in
            apply what i { b with Batch.digest = Sha256.digest ("relabelled" ^ b.Batch.digest) }
        | Bypass (i, key) | Scanned (i, key) ->
            let op = match op with Bypass _ -> Txn.Read | _ -> Txn.Scan in
            let txns =
              Array.init 2 (fun j ->
                  Txn.make ~op ~key:(key + j) ~value:(Int64.of_int key) ~client_id:0 ())
            in
            let b = unsigned ~id:(1_000_000 + key) txns in
            same_result what (Kv.read members.(i) b) (Kv.read twins.(i) b)
        | Snapshot (i, share) ->
            let sm = Kv.snapshot ?share:(if share then !served_m else None) members.(i) in
            let st = Kv.snapshot ?share:(if share then !served_t else None) twins.(i) in
            served_m := Some sm;
            served_t := Some st;
            same_snapshot what sm st
        | Digest i ->
            if Kv.state_digest members.(i) <> Kv.state_digest twins.(i) then
              Test.fail_reportf "%s: state digest differs from the twin's" what
        | Restore (i, j) ->
            let s = Kv.snapshot twins.(j) in
            Kv.restore members.(i) s;
            Kv.restore twins.(i) s
        | Outrun i ->
            let target = Kv.height members.(i) + Kv.window + 1 in
            Array.iteri
              (fun j m ->
                if j <> i then
                  while Kv.height m < target do
                    apply what j (canonical (Kv.height m))
                  done)
              members
      in
      List.iter
        (fun op ->
          step op;
          Array.iteri
            (fun i m ->
              let what = shared_op_to_string op in
              if Kv.height m <> Kv.height twins.(i) then
                Test.fail_reportf "after %s: member %d height differs from the twin's" what i;
              if Kv.state_digest m <> Kv.state_digest twins.(i) then
                Test.fail_reportf "after %s: member %d state differs from the twin's" what i)
            members)
        ops;
      true)

(* -- shared images in a deployment ------------------------------------------- *)

module GeoDep = Rdb_fabric.Deployment.Make (Rdb_geobft.Replica)
module Runner = Rdb_experiments.Runner
module Scenario = Rdb_experiments.Scenario
module Chaos = Rdb_chaos.Chaos

(* Runs the scenario with payloads retained, then replays each
   replica's own ledger on a private Kv: the replica's shared view must
   hold that state at that height.  The read mix serves bypass reads on
   lagging replicas, below the image's frontier; the chaos run's
   laggards catch up below it. *)
let replay_each_ledger (type d) (module D : Rdb_fabric.Deployment.S with type t = d) id =
  match Scenario.of_string id with
  | None -> Alcotest.failf "bad scenario id %S" id
  | Some s ->
      let cfg = s.Scenario.cfg in
      let d = D.create ~n_records:1000 ~retain_payloads:true cfg in
      Chaos.install (Runner.chaos_surface (module D) d s.Scenario.proto cfg) (Runner.timeline s);
      let r =
        D.run ~warmup:s.Scenario.windows.Runner.warmup ~measure:s.Scenario.windows.Runner.measure d
      in
      Alcotest.(check bool) (id ^ ": made progress") true (r.Report.completed_batches > 0);
      for i = 0 to Config.n_replicas cfg - 1 do
        let ledger = D.ledger d ~replica:i in
        let own = Kv.memory ~n_records:1000 () in
        List.iter
          (fun (b : Rdb_ledger.Block.t) -> ignore (Kv.apply own b.Rdb_ledger.Block.batch))
          (Ledger.read_from ledger ~height:0);
        let kv = D.kv d ~replica:i in
        Alcotest.(check int) (Printf.sprintf "%s: replica %d height" id i) (Kv.height own)
          (Kv.height kv);
        Alcotest.(check string)
          (Printf.sprintf "%s: replica %d state" id i)
          (Kv.state_digest own) (Kv.state_digest kv)
      done;
      D.close d

let test_shared_deployments_replay_their_ledgers () =
  replay_each_ledger (module GeoDep) "geobft z2 n4 b20 i8 seed1 w1000+3000 reads=0.5 scans=0.1";
  replay_each_ledger (module Dep) "pbft z2 n4 b20 i8 seed1 w1000+3000 fault=chaos:3"

(* The ring is sized to the lag of healthy replicas: a fault-free
   memory run whose frontier passes the window at least twice ends
   with every replica still reading the one image. *)
let stays_in_image (type d) (module D : Rdb_fabric.Deployment.S with type t = d) id =
  match Scenario.of_string id with
  | None -> Alcotest.failf "bad scenario id %S" id
  | Some s ->
      let cfg = s.Scenario.cfg in
      let d = D.create ~n_records:1000 ~retain_payloads:false cfg in
      ignore
        (D.run ~warmup:s.Scenario.windows.Runner.warmup ~measure:s.Scenario.windows.Runner.measure d);
      let kvs = List.init (Config.n_replicas cfg) (fun replica -> D.kv d ~replica) in
      let top = List.fold_left (fun acc kv -> max acc (Kv.height kv)) 0 kvs in
      Alcotest.(check bool)
        (Printf.sprintf "%s: frontier %d past twice the window" id top)
        true
        (top > 2 * Kv.window);
      List.iteri
        (fun i kv ->
          Alcotest.(check bool) (Printf.sprintf "%s: replica %d in the image" id i) true
            (Kv.in_image kv))
        kvs;
      D.close d

let test_fault_free_runs_stay_in_image () =
  stays_in_image (module Dep) "pbft z4 n7 b100 i64 seed1 w500+1000";
  stays_in_image (module GeoDep) "geobft z2 n4 b100 i64 seed1 w500+1500"

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_shared_matches_private;
      ("shared deployments replay their ledgers", `Quick,
        test_shared_deployments_replay_their_ledgers);
      ("fault-free runs stay in the image", `Quick, test_fault_free_runs_stay_in_image);
    ]
