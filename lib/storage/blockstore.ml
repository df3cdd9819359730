(* Append-only persistent block store: a file-backed log of executed
   blocks, periodic full-state images, and between two full images a
   delta holding the records written since the last one.

   Layout under [dir]:
   - [snapshot.bin]  magic, height, n_records, the full record state,
                     checksum — written atomically (tmp + rename);
   - [delta.bin]     magic, base height, base checksum, height, count,
                     ([key] [value]){count} in ascending key order,
                     checksum — every record written since the image
                     it names as its base, also tmp + rename;
   - [blocks.log]    framed write-sets of executed blocks, one frame
                     per block applied since the last compaction.

   Every on-disk word is a little-endian int64, so frames stay 8-byte
   aligned and a single word-wise checksum covers any record.  A frame
   for the block that moved the store from height [h] to [h+1]:

     [h] [count] ([key] [post-value]){count} [checksum]

   Compaction: after [snapshot_every] blocks the store persists its
   state at the current height and truncates the log, so the log never
   holds more than [snapshot_every] frames.  One dirty bit per record,
   set by [log_block], names the records written since [snapshot.bin]
   (or since genesis, before the first image).  A compaction rewrites
   [delta.bin] with them — 16 bytes a record — unless that is at least
   the 8 bytes a record of the full image, i.e. when
   [2 * dirty >= n_records]; then it writes [snapshot.bin], deletes
   [delta.bin] and clears the bits.  The full image is also what
   [note_restore] (how checkpoint-based state transfer lands on disk)
   and the re-anchor on reopen write.

   Recovery-on-open loads [snapshot.bin] (or starts from genesis),
   applies [delta.bin] only if its base height and base checksum name
   that image (a fixed tag stands for genesis), then replays the log
   suffix frame by frame: frames below the height reached are skipped,
   and replay stops at the first frame that is truncated, corrupt, or
   out of sequence — everything after a torn write is discarded,
   exactly like a write-ahead log.  The recovered store then
   re-anchors (full image, no delta, empty log) so recovery is
   idempotent and torn tails do not accumulate.

   Crash points: a delta compaction renames [delta.bin] into place and
   then truncates the log; a full one renames [snapshot.bin], removes
   [delta.bin], then truncates the log.  Between any two steps the
   files on disk recover to the compaction height or to the state
   before it: a leftover log's frames fall below the new anchor, and a
   leftover [delta.bin] names the previous image as its base, so it is
   ignored. *)

let snapshot_magic = 0x5244425F534E4150L (* "RDB_SNAP" *)
let delta_magic = 0x5244425F444C5441L (* "RDB_DLTA" *)

(* The base checksum a delta records when no [snapshot.bin] exists and
   its base is the genesis table. *)
let genesis_tag = 0x5244425F47454E30L (* "RDB_GEN0" *)

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

let checksum_seed = 0x436865636B73756DL

(* Folds the words [b.(pos .. pos + 8*words)] into [acc]. *)
let fold acc (b : Bytes.t) ~pos ~words =
  let acc = ref acc in
  for k = 0 to words - 1 do
    acc := mix_in !acc (Bytes.get_int64_le b (pos + (k * 8)))
  done;
  !acc

(* The checksum of the words [s.(pos .. pos + 8*words)]. *)
let checksum (s : string) ~pos ~words = fold checksum_seed (Bytes.unsafe_of_string s) ~pos ~words

type t = {
  dir : string;
  records : Backend.records;
  n : int;
  snapshot_every : int;
  mutable height : int; (* blocks durably applied *)
  mutable base : int; (* height of the last compaction; log covers (base, height] *)
  mutable image_height : int; (* height of [snapshot.bin], 0 for genesis *)
  mutable image_chk : int64; (* its checksum, or [genesis_tag] *)
  dirty : Bytes.t; (* bit [k] set: record [k] written since the image *)
  mutable n_dirty : int; (* bits set in [dirty] *)
  mutable log : out_channel option;
  mutable closed : bool;
  chunk : Bytes.t; (* the one write buffer: frames, deltas and images *)
}

let snapshot_path t = Filename.concat t.dir "snapshot.bin"
let delta_path t = Filename.concat t.dir "delta.bin"
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

(* Writes out the chunk's first [pos] bytes when fewer than [need]
   bytes are left after them; returns the position to write at. *)
let[@inline] spill oc (c : Bytes.t) pos need =
  if pos + need > Bytes.length c then begin
    Out_channel.output oc c 0 pos;
    0
  end
  else pos

(* Writes [path] atomically: [f] streams it into a temp file that then
   replaces [path]. *)
let write_atomically path f =
  let tmp = path ^ ".tmp" in
  let r = Out_channel.with_open_bin tmp f in
  Sys.rename tmp path;
  r

(* -- Full image ---------------------------------------------------------- *)

(* Streams the records out through the chunk, folding the checksum into
   each word as it is encoded, so no full image of the state is ever
   built and the fold hides the encoding's cost.  The new image is the
   base from now on: any [delta.bin] is stale and goes, and no record
   is dirty. *)
let write_image t =
  let chk =
    write_atomically (snapshot_path t) (fun oc ->
        let c = t.chunk in
        Bytes.set_int64_le c 0 snapshot_magic;
        Bytes.set_int64_le c 8 (Int64.of_int t.height);
        Bytes.set_int64_le c 16 (Int64.of_int t.n);
        let acc = ref (fold checksum_seed c ~pos:0 ~words:3) in
        let pos = ref 24 and i = ref 0 in
        while !i < t.n do
          let b = !i and p = !pos in
          let m = min ((Bytes.length c - p) / 8) (t.n - b) in
          for k = 0 to m - 1 do
            let w = Bigarray.Array1.unsafe_get t.records (b + k) in
            Bytes.set_int64_le c (p + (k * 8)) w;
            acc := mix_in !acc w
          done;
          i := b + m;
          pos := spill oc c (p + (m * 8)) 8
        done;
        Bytes.set_int64_le c !pos !acc;
        Out_channel.output oc c 0 (!pos + 8);
        !acc)
  in
  if Sys.file_exists (delta_path t) then Sys.remove (delta_path t);
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  t.n_dirty <- 0;
  t.image_height <- t.height;
  t.image_chk <- chk;
  t.base <- t.height

(* Loads a valid image for this record count into [t.records] and
   returns its height and checksum. *)
let load_image t =
  match read_file (snapshot_path t) with
  | None -> None
  | Some s ->
      let len = String.length s in
      if len < 32 || len mod 8 <> 0 then None
      else
        let words = (len / 8) - 1 in
        let chk = String.get_int64_le s (len - 8) in
        if chk <> checksum s ~pos:0 ~words then None
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
            Some (height, chk)
          end

(* -- Delta --------------------------------------------------------------- *)

let[@inline] mark t key =
  let i = key lsr 3 and bit = 1 lsl (key land 7) in
  let byte = Bytes.get_uint8 t.dirty i in
  if byte land bit = 0 then begin
    Bytes.set_uint8 t.dirty i (byte lor bit);
    t.n_dirty <- t.n_dirty + 1
  end

(* Streams every dirty record, in ascending key order, through the
   chunk with the checksum folded in as for the image. *)
let write_delta t =
  write_atomically (delta_path t) (fun oc ->
      let c = t.chunk in
      Bytes.set_int64_le c 0 delta_magic;
      Bytes.set_int64_le c 8 (Int64.of_int t.image_height);
      Bytes.set_int64_le c 16 t.image_chk;
      Bytes.set_int64_le c 24 (Int64.of_int t.height);
      Bytes.set_int64_le c 32 (Int64.of_int t.n_dirty);
      let acc = ref (fold checksum_seed c ~pos:0 ~words:5) in
      let pos = ref 40 in
      for i = 0 to Bytes.length t.dirty - 1 do
        let byte = Bytes.get_uint8 t.dirty i in
        if byte <> 0 then
          for j = 0 to 7 do
            if byte land (1 lsl j) <> 0 then begin
              let key = (i lsl 3) lor j in
              let kw = Int64.of_int key and v = Bigarray.Array1.unsafe_get t.records key in
              let p = spill oc c !pos 16 in
              Bytes.set_int64_le c p kw;
              Bytes.set_int64_le c (p + 8) v;
              acc := mix_in (mix_in !acc kw) v;
              pos := p + 16
            end
          done
      done;
      let p = spill oc c !pos 8 in
      Bytes.set_int64_le c p !acc;
      Out_channel.output oc c 0 (p + 8));
  t.base <- t.height

(* Applies a valid [delta.bin] whose base is the loaded image (or
   genesis) and moves [t.height] to its height; any other delta is
   ignored. *)
let load_delta t =
  match read_file (delta_path t) with
  | None -> ()
  | Some s ->
      let len = String.length s in
      if len >= 48 && len mod 8 = 0 then begin
        let words = (len / 8) - 1 in
        let word i = String.get_int64_le s (i * 8) in
        let height = Int64.to_int (word 3) and count = Int64.to_int (word 4) in
        if
          word words = checksum s ~pos:0 ~words
          && word 0 = delta_magic
          && word 1 = Int64.of_int t.image_height
          && word 2 = t.image_chk
          && height >= t.image_height
          && count >= 0
          && count <= len / 16
          && words = 5 + (2 * count)
        then begin
          for k = 0 to count - 1 do
            let key = Int64.to_int (word (5 + (2 * k))) in
            if key >= 0 && key < t.n then
              Bigarray.Array1.unsafe_set t.records key (word (6 + (2 * k)))
          done;
          t.height <- height
        end
      end

(* -- Block log --------------------------------------------------------- *)

(* Truncate-and-reopen: the log only ever restarts empty (after a
   compaction or re-anchor), so plain [open_out_bin] is the
   truncation. *)
let reset_log t =
  (match t.log with Some oc -> Out_channel.close oc | None -> ());
  t.log <- Some (Out_channel.open_bin (log_path t))

(* Replay valid log frames in sequence on top of the loaded state.
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
          else if h < t.height then pos := p + frame_len (* pre-anchor leftover *)
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

(* The delta unless it would be at least as large as the full image. *)
let compact t =
  if 2 * t.n_dirty >= t.n then write_image t else write_delta t;
  reset_log t

let log_block t ~height ~keys ~values ~count =
  if not t.closed then begin
    let oc = match t.log with Some oc -> oc | None -> invalid_arg "Blockstore: closed" in
    let c = t.chunk in
    let hw = Int64.of_int height and cw = Int64.of_int count in
    Bytes.set_int64_le c 0 hw;
    Bytes.set_int64_le c 8 cw;
    let acc = ref (mix_in (mix_in checksum_seed hw) cw) in
    let pos = ref 16 in
    for k = 0 to count - 1 do
      let key = keys.(k) and v = values.(k) in
      mark t key;
      let kw = Int64.of_int key in
      let p = spill oc c !pos 16 in
      Bytes.set_int64_le c p kw;
      Bytes.set_int64_le c (p + 8) v;
      acc := mix_in (mix_in !acc kw) v;
      pos := p + 16
    done;
    let p = spill oc c !pos 8 in
    Bytes.set_int64_le c p !acc;
    Out_channel.output oc c 0 (p + 8);
    (* Flush per block: the crash-consistency unit is one frame. *)
    Out_channel.flush oc;
    t.height <- height + 1;
    if t.height - t.base >= t.snapshot_every then compact t
  end

(* Like [log_block], a no-op once the store is closed. *)
let note_restore t ~height =
  if not t.closed then begin
    t.height <- height;
    write_image t;
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
      image_height = 0;
      image_chk = genesis_tag;
      dirty = Bytes.make ((n_records + 7) / 8) '\000';
      n_dirty = 0;
      log = None;
      closed = false;
      chunk = Bytes.create Backend.chunk_bytes;
    }
  in
  let had_state = List.exists Sys.file_exists [ snapshot_path t; delta_path t; log_path t ] in
  (match load_image t with
  | Some (h, chk) ->
      t.height <- h;
      t.image_height <- h;
      t.image_chk <- chk
  | None -> ());
  load_delta t;
  replay_log t;
  (* Re-anchor a recovered store so torn tails are discarded for good
     and a second crash-recovery starts from a clean full image. *)
  if had_state then write_image t;
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
