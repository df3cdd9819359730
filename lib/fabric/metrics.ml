(* Run metrics: completed work, latencies, traffic.

   Measurement methodology mirrors §4 of the paper: the run has a
   warm-up phase and a measurement window; throughput counts the
   transactions whose batches *completed at a client* inside the
   window, and latency is the client-observed request-to-f+1-replies
   time of those batches. *)

module Time = Rdb_sim.Time

type t = {
  mutable completed_batches : int;
  mutable completed_txns : int;
  mutable latencies_ms : float list;      (* within the window only *)
  mutable decisions : int;                (* consensus decisions (executions at replica 0) *)
  (* Per-op-class completion counts and the read-path latency split:
     read-only batches (reads and scans, including those served by the
     consensus bypass) have a very different latency profile from
     write batches, so their percentiles are reported separately. *)
  mutable read_txns : int;
  mutable scan_txns : int;
  mutable write_txns : int;
  mutable read_latencies_ms : float list;
  mutable window_open : bool;
  mutable window_start : Time.t;
  mutable window_end : Time.t;
}

let create () =
  {
    completed_batches = 0;
    completed_txns = 0;
    latencies_ms = [];
    decisions = 0;
    read_txns = 0;
    scan_txns = 0;
    write_txns = 0;
    read_latencies_ms = [];
    window_open = false;
    window_start = Time.zero;
    window_end = Time.zero;
  }

let open_window t ~now = t.window_open <- true; t.window_start <- now
let close_window t ~now = t.window_open <- false; t.window_end <- now

let record_completion t ~now:_ ~txns ?(reads = 0) ?(scans = 0) ?(writes = 0) ~latency () =
  if t.window_open then begin
    t.completed_batches <- t.completed_batches + 1;
    t.completed_txns <- t.completed_txns + txns;
    let ms = Time.to_ms_f latency in
    t.latencies_ms <- ms :: t.latencies_ms;
    t.read_txns <- t.read_txns + reads;
    t.scan_txns <- t.scan_txns + scans;
    t.write_txns <- t.write_txns + writes;
    if writes = 0 && reads + scans > 0 then
      t.read_latencies_ms <- ms :: t.read_latencies_ms
  end

let record_decision t = if t.window_open then t.decisions <- t.decisions + 1

let completed_batches t = t.completed_batches
let completed_txns t = t.completed_txns
let decisions t = t.decisions
let read_txns t = t.read_txns
let scan_txns t = t.scan_txns
let write_txns t = t.write_txns

let window_sec t = Time.to_sec_f (Time.sub t.window_end t.window_start)

let throughput_txn_s t =
  let w = window_sec t in
  if w <= 0. then 0. else float_of_int (completed_txns t) /. w

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

type latency_summary = { avg_ms : float; p50_ms : float; p95_ms : float; p99_ms : float; max_ms : float }

let summarize arr =
  Array.sort compare arr;
  let n = Array.length arr in
  if n = 0 then { avg_ms = 0.; p50_ms = 0.; p95_ms = 0.; p99_ms = 0.; max_ms = 0. }
  else
    {
      avg_ms = Array.fold_left ( +. ) 0. arr /. float_of_int n;
      p50_ms = percentile arr 0.50;
      p95_ms = percentile arr 0.95;
      p99_ms = percentile arr 0.99;
      max_ms = arr.(n - 1);
    }

let latency_summary t = summarize (Array.of_list t.latencies_ms)

(* Latencies of read-only batches alone (point-read and scan batches). *)
let read_latency_summary t = summarize (Array.of_list t.read_latencies_ms)
