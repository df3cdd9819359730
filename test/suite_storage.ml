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

let test_mem_vs_disk_deployment () =
  let cfg storage =
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
  in
  with_dir (fun store_dir ->
      let dm = Dep.create ~n_records:1000 (cfg Config.Memory) in
      let dd = Dep.create ~n_records:1000 ~store_dir (cfg Config.Disk) in
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
          ((Dep.app dm ~replica:i).App.state_digest ())
          ((Dep.app dd ~replica:i).App.state_digest ())
      done;
      Dep.close dm;
      Dep.close dd;
      (* The disk deployment left recoverable per-replica stores behind:
         reopening each replica's store reproduces its final height and
         state. *)
      for i = 0 to 3 do
        let app = Dep.app dm ~replica:i in
        let r =
          Kv.disk ~dir:(Filename.concat store_dir (Printf.sprintf "r%d" i)) ~n_records:1000 ()
        in
        Alcotest.(check int)
          (Printf.sprintf "replica %d store recovers final height" i)
          (app.App.height ()) (Kv.height r);
        Alcotest.(check string)
          (Printf.sprintf "replica %d store recovers final state" i)
          (app.App.state_digest ()) (Kv.state_digest r);
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
  ]
