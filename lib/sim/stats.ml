(* Network traffic counters, split local (intra-region) vs global
   (inter-region) — the distinction at the heart of the paper (Table 2
   counts exactly these two message classes per consensus decision).
   Snapshots are taken at epoch barriers, where all shards are
   stopped. *)

type t = {
  mutable local_msgs : int;
  mutable global_msgs : int;
  mutable local_bytes : int;
  mutable global_bytes : int;
  mutable dropped_msgs : int;
  mutable dropped_bytes : int;
}

let create () =
  {
    local_msgs = 0;
    global_msgs = 0;
    local_bytes = 0;
    global_bytes = 0;
    dropped_msgs = 0;
    dropped_bytes = 0;
  }

let count_sent t ~local ~size =
  if local then begin
    t.local_msgs <- t.local_msgs + 1;
    t.local_bytes <- t.local_bytes + size
  end
  else begin
    t.global_msgs <- t.global_msgs + 1;
    t.global_bytes <- t.global_bytes + size
  end

let count_dropped t ~size =
  t.dropped_msgs <- t.dropped_msgs + 1;
  t.dropped_bytes <- t.dropped_bytes + size

let local_msgs t = t.local_msgs
let global_msgs t = t.global_msgs
let local_bytes t = t.local_bytes
let global_bytes t = t.global_bytes
let dropped_msgs t = t.dropped_msgs
let dropped_bytes t = t.dropped_bytes

type snapshot = {
  l_msgs : int;
  g_msgs : int;
  l_bytes : int;
  g_bytes : int;
  d_msgs : int;
  d_bytes : int;
}

let snapshot t =
  {
    l_msgs = t.local_msgs;
    g_msgs = t.global_msgs;
    l_bytes = t.local_bytes;
    g_bytes = t.global_bytes;
    d_msgs = t.dropped_msgs;
    d_bytes = t.dropped_bytes;
  }

(* Difference of two snapshots: traffic in the measurement window. *)
let diff ~after ~before =
  {
    l_msgs = after.l_msgs - before.l_msgs;
    g_msgs = after.g_msgs - before.g_msgs;
    l_bytes = after.l_bytes - before.l_bytes;
    g_bytes = after.g_bytes - before.g_bytes;
    d_msgs = after.d_msgs - before.d_msgs;
    d_bytes = after.d_bytes - before.d_bytes;
  }
