(* Append-only persistent block store: a file-backed log of executed
   blocks plus periodic full-state snapshots.

   Layout under [dir]:
   - [snapshot.bin]  magic, height, n_records, the full record state,
                     checksum — written atomically (tmp + rename);
   - [blocks.log]    framed write-sets of executed blocks, one frame
                     per block applied since the snapshot.

   Every on-disk word is a little-endian int64, so frames stay 8-byte
   aligned and a single word-wise checksum covers any record.  A frame
   for the block that moved the store from height [h] to [h+1]:

     [h] [count] ([key] [post-value]){count} [checksum]

   Recovery-on-open loads the latest valid snapshot, replays the log
   suffix frame by frame, and stops at the first frame that is
   truncated, corrupt, or out of sequence — everything after a torn
   write is discarded, exactly like a write-ahead log.  The recovered
   store then re-anchors (fresh snapshot, empty log) so recovery is
   idempotent and torn tails do not accumulate.

   Compaction: after [snapshot_every] blocks the store writes a
   snapshot at the current height and truncates the log; the log never
   holds more than [snapshot_every] frames.  The same re-anchor step
   persists an externally installed state snapshot ([note_restore]),
   which is how checkpoint-based state transfer lands on disk. *)

let snapshot_magic = 0x5244425F534E4150L (* "RDB_SNAP" *)

(* Word-wise checksum: fold Splitmix64 mixing over little-endian int64
   words.  Not cryptographic — it guards against torn writes and bit
   rot, not an adversary with filesystem access.

   [mix_in acc w] is [Splitmix64.mix (Int64.logxor acc w)] written out
   so it inlines: a call would box [acc] once per word, while inlined
   into a loop the fold stays in registers. *)
let[@inline] mix_in acc w =
  let z = Int64.add (Int64.logxor acc w) 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The checksum of the words [s.(pos .. pos + 8*words)]. *)
let checksum (s : string) ~pos ~words =
  let acc = ref 0x436865636B73756DL in
  for k = 0 to words - 1 do
    acc := mix_in !acc (String.get_int64_le s (pos + (k * 8)))
  done;
  !acc

type t = {
  dir : string;
  records : Backend.records;
  n : int;
  snapshot_every : int;
  mutable height : int; (* blocks durably applied *)
  mutable base : int; (* height of the on-disk snapshot; log covers (base, height] *)
  mutable log : out_channel option;
  mutable closed : bool;
  frame : Buffer.t; (* reused frame-assembly buffer *)
}

let snapshot_path t = Filename.concat t.dir "snapshot.bin"
let log_path t = Filename.concat t.dir "blocks.log"

let rec mkdirs path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdirs (Filename.dirname path);
    (try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ())
  end

let read_file path =
  if Sys.file_exists path then
    Some (In_channel.with_open_bin path In_channel.input_all)
  else None

(* -- Snapshot file ----------------------------------------------------- *)

(* Streams the records out through one reused chunk, folding the
   checksum into each word as it is encoded, so no full image of the
   state is ever built and the fold hides the encoding's cost. *)
let write_snapshot t =
  let header = Bytes.create 24 in
  Bytes.set_int64_le header 0 snapshot_magic;
  Bytes.set_int64_le header 8 (Int64.of_int t.height);
  Bytes.set_int64_le header 16 (Int64.of_int t.n);
  let chunk = Bytes.create Backend.chunk_bytes in
  let tmp = snapshot_path t ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_bytes oc header;
      let acc = ref (checksum (Bytes.to_string header) ~pos:0 ~words:3) in
      let base = ref 0 in
      while !base < t.n do
        let b = !base in
        let m = min (Backend.chunk_bytes / 8) (t.n - b) in
        for k = 0 to m - 1 do
          let w = Bigarray.Array1.unsafe_get t.records (b + k) in
          Bytes.set_int64_le chunk (k * 8) w;
          acc := mix_in !acc w
        done;
        Out_channel.output oc chunk 0 (m * 8);
        base := b + m
      done;
      Bytes.set_int64_le header 0 !acc;
      Out_channel.output oc header 0 8);
  Sys.rename tmp (snapshot_path t);
  t.base <- t.height

(* Returns the snapshot height if a valid snapshot for this record
   count was loaded into [t.records]. *)
let load_snapshot t =
  match read_file (snapshot_path t) with
  | None -> None
  | Some s ->
      let len = String.length s in
      if len < 32 || len mod 8 <> 0 then None
      else
        let words = (len / 8) - 1 in
        if String.get_int64_le s (len - 8) <> checksum s ~pos:0 ~words then None
        else if String.get_int64_le s 0 <> snapshot_magic then None
        else
          let height = Int64.to_int (String.get_int64_le s 8) in
          let n = Int64.to_int (String.get_int64_le s 16) in
          if n <> t.n || words <> n + 3 || height < 0 then None
          else begin
            for i = 0 to n - 1 do
              Bigarray.Array1.unsafe_set t.records i
                (String.get_int64_le s (24 + (i * 8)))
            done;
            Some height
          end

(* -- Block log --------------------------------------------------------- *)

(* Truncate-and-reopen: the log only ever restarts empty (after a
   snapshot re-anchor), so plain [open_out_bin] is the truncation. *)
let reset_log t =
  (match t.log with Some oc -> Out_channel.close oc | None -> ());
  t.log <- Some (Out_channel.open_bin (log_path t))

(* Replay valid log frames in sequence on top of the loaded snapshot.
   Stops at the first truncated, corrupt, or out-of-sequence frame. *)
let replay_log t =
  match read_file (log_path t) with
  | None -> ()
  | Some s ->
      let len = String.length s in
      let pos = ref 0 in
      let ok = ref true in
      while !ok do
        let p = !pos in
        if p + 16 > len then ok := false
        else
          let h = Int64.to_int (String.get_int64_le s p) in
          let count = Int64.to_int (String.get_int64_le s (p + 8)) in
          let frame_len = 16 + (count * 16) + 8 in
          if count < 0 || count > (len - p) / 16 || p + frame_len > len then ok := false
          else if
            String.get_int64_le s (p + frame_len - 8)
            <> checksum s ~pos:p ~words:(2 + (count * 2))
          then ok := false
          else if h < t.height then pos := p + frame_len (* pre-snapshot leftover *)
          else if h > t.height then ok := false (* gap: cannot apply *)
          else begin
            for k = 0 to count - 1 do
              let key = Int64.to_int (String.get_int64_le s (p + 16 + (k * 16))) in
              let v = String.get_int64_le s (p + 24 + (k * 16)) in
              if key >= 0 && key < t.n then Bigarray.Array1.unsafe_set t.records key v
            done;
            t.height <- h + 1;
            pos := p + frame_len
          end
      done

(* -- Backend interface -------------------------------------------------- *)

let records t = t.records
let height t = t.height
let wants_writes (_ : t) = true

let log_block t ~height ~keys ~values ~count =
  if not t.closed then begin
    Buffer.clear t.frame;
    Buffer.add_int64_le t.frame (Int64.of_int height);
    Buffer.add_int64_le t.frame (Int64.of_int count);
    for k = 0 to count - 1 do
      Buffer.add_int64_le t.frame (Int64.of_int keys.(k));
      Buffer.add_int64_le t.frame values.(k)
    done;
    let body = Buffer.contents t.frame in
    let chk = checksum body ~pos:0 ~words:(2 + (count * 2)) in
    Buffer.add_int64_le t.frame chk;
    let oc = match t.log with Some oc -> oc | None -> invalid_arg "Blockstore: closed" in
    Buffer.output_buffer oc t.frame;
    (* Flush per block: the crash-consistency unit is one frame. *)
    Out_channel.flush oc;
    t.height <- height + 1;
    if t.height - t.base >= t.snapshot_every then begin
      write_snapshot t;
      reset_log t
    end
  end

(* Like [log_block], a no-op once the store is closed. *)
let note_restore t ~height =
  if not t.closed then begin
    t.height <- height;
    write_snapshot t;
    reset_log t
  end

let close t =
  if not t.closed then begin
    (match t.log with Some oc -> Out_channel.close oc | None -> ());
    t.log <- None;
    t.closed <- true
  end

(* -- Construction ------------------------------------------------------- *)

let open_or_create ?(snapshot_every = 64) ?init ~dir ~n_records () =
  if snapshot_every < 1 then invalid_arg "Blockstore: snapshot_every must be >= 1";
  mkdirs dir;
  let records =
    match init with
    | Some master ->
        if Bigarray.Array1.dim master <> n_records then
          invalid_arg "Blockstore: init image does not match n_records";
        Backend.copy_records master
    | None -> Backend.init_records ~n_records
  in
  let t =
    {
      dir;
      records;
      n = n_records;
      snapshot_every;
      height = 0;
      base = 0;
      log = None;
      closed = false;
      frame = Buffer.create 2048;
    }
  in
  let had_state = Sys.file_exists (snapshot_path t) || Sys.file_exists (log_path t) in
  (match load_snapshot t with
  | Some h ->
      t.height <- h;
      t.base <- h
  | None -> ());
  replay_log t;
  (* Re-anchor a recovered store so torn tails are discarded for good
     and a second crash-recovery starts from a clean snapshot. *)
  if had_state then write_snapshot t;
  reset_log t;
  t

let packed (t : t) = Backend.Packed ((module struct
  type nonrec t = t

  let records = records
  let height = height
  let wants_writes = wants_writes
  let log_block = log_block
  let note_restore = note_restore
  let close = close
end), t)
