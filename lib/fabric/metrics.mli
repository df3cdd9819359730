(** Run metrics with the paper's measurement methodology (§4): a
    warm-up phase, then a measurement window; throughput counts
    transactions whose batches completed at a client inside the window,
    latency is client-observed submit-to-quorum-of-replies time. *)

module Time = Rdb_sim.Time

type t

val create : unit -> t

val open_window : t -> now:Time.t -> unit
val close_window : t -> now:Time.t -> unit

val record_completion :
  t ->
  now:Time.t ->
  txns:int ->
  ?reads:int ->
  ?scans:int ->
  ?writes:int ->
  latency:Time.t ->
  unit ->
  unit
(** Ignored while the window is closed.  [reads]/[scans]/[writes] are
    the batch's per-op-class counts; a completion with no writes and at
    least one read or scan also lands in the read-latency split. *)

val record_decision : t -> unit
(** One consensus decision observed (counted at replica 0). *)

val completed_batches : t -> int
val completed_txns : t -> int
val decisions : t -> int

val read_txns : t -> int
val scan_txns : t -> int
val write_txns : t -> int
(** Completed transactions by op class, inside the window. *)

val window_sec : t -> float
val throughput_txn_s : t -> float

type latency_summary = {
  avg_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

val latency_summary : t -> latency_summary

val read_latency_summary : t -> latency_summary
(** Latency summary over read-only batch completions alone. *)
