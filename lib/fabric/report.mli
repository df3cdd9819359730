(** The result of one simulated deployment run: throughput, latency
    percentiles, traffic split (local/global), consensus decisions and
    view changes within the measurement window. *)

type t = {
  protocol : string;
  z : int;
  n : int;
  batch_size : int;
  throughput_txn_s : float;
  avg_latency_ms : float;
  p50_latency_ms : float;
  p95_latency_ms : float;
  p99_latency_ms : float;
  completed_batches : int;
  completed_txns : int;
  decisions : int;
  local_msgs : int;
  global_msgs : int;
  local_mb : float;
  global_mb : float;
  view_changes : int;
  state_transfers : int;   (** checkpoint state transfers installed *)
  holes_filled : int;      (** execution holes filled by catch-up *)
  retransmissions : int;   (** timeout-driven protocol retransmissions *)
  storage : string;        (** backend under the App ("mem" / "disk") *)
  read_txns : int;         (** completed transactions by op class *)
  scan_txns : int;
  write_txns : int;
  read_p50_latency_ms : float;
      (** latency percentiles over read-only batches alone (0 when the
          workload had none) *)
  read_p95_latency_ms : float;
  read_p99_latency_ms : float;
  window_sec : float;
  trace : Rdb_trace.Trace.summary option;
      (** whole-run trace summary (phase breakdown, traced message
          counts, deterministic digest); [None] when tracing was off *)
}

val local_msgs_per_decision : t -> float
(** The Table 2 quantities: messages per consensus decision. *)

val global_msgs_per_decision : t -> float

val pp : Format.formatter -> t -> unit

val pp_recovery : Format.formatter -> t -> unit
(** One-line summary of the recovery-subsystem counters. *)

val pp_trace : Format.formatter -> t -> unit
(** Per-phase latency breakdown + per-decision traced message counts;
    prints nothing when the run was not traced. *)

val to_string : t -> string

(** {1 Versioned JSON wire format}

    [to_json]/[of_json] are exact inverses: every field (including the
    optional trace summary) survives the round-trip, floats included
    (shortest-round-trip decimal encoding).  The [schema_version]
    field is embedded in every document; [of_json] accepts documents
    of the current version only and refuses older and newer ones with
    an error naming both versions. *)

val schema_version : int

val to_json : t -> Json.t
val to_json_string : t -> string
(** Compact single-line rendering of {!to_json}. *)

val of_json : Json.t -> (t, string) result
val of_json_string : string -> (t, string) result
