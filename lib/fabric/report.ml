(* The result of one simulated deployment run. *)

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
  decisions : int;                 (* consensus decisions at replica 0 *)
  local_msgs : int;                (* traffic inside the window *)
  global_msgs : int;
  local_mb : float;
  global_mb : float;
  view_changes : int;
  (* Recovery-subsystem totals over the whole run (all replicas):
     checkpoint state transfers installed, execution holes filled by
     catch-up fetches, timeout-driven retransmissions. *)
  state_transfers : int;
  holes_filled : int;
  retransmissions : int;
  (* Storage backend under the App state machine ("mem" / "disk") and
     the per-op-class view of the completed work: transaction counts by
     class, plus latency percentiles over read-only batches alone
     (reads commonly bypass consensus, so their profile differs from
     writes by an order of magnitude). *)
  storage : string;
  read_txns : int;
  scan_txns : int;
  write_txns : int;
  read_p50_latency_ms : float;
  read_p95_latency_ms : float;
  read_p99_latency_ms : float;
  window_sec : float;
  (* Whole-run trace summary (per-phase latency breakdown, traced
     message counts, deterministic digest); None when tracing was off. *)
  trace : Rdb_trace.Trace.summary option;
}

(* Per-decision message complexity — the quantities of Table 2. *)
let local_msgs_per_decision t =
  if t.decisions = 0 then 0. else float_of_int t.local_msgs /. float_of_int t.decisions

let global_msgs_per_decision t =
  if t.decisions = 0 then 0. else float_of_int t.global_msgs /. float_of_int t.decisions

let pp fmt t =
  Format.fprintf fmt
    "%-9s z=%d n=%-2d batch=%-3d | %10.0f txn/s | lat avg %7.1f ms p50 %7.1f p99 %7.1f | msgs/dec local %7.1f global %6.1f | vc %d"
    t.protocol t.z t.n t.batch_size t.throughput_txn_s t.avg_latency_ms t.p50_latency_ms
    t.p99_latency_ms (local_msgs_per_decision t) (global_msgs_per_decision t) t.view_changes;
  (* The op-class split only appears on mixed workloads: write-only
     runs keep the historical one-line shape. *)
  if t.read_txns > 0 || t.scan_txns > 0 then
    Format.fprintf fmt
      "@\nops: reads %d (p50 %.1f ms p95 %.1f p99 %.1f) | scans %d | writes %d | storage %s"
      t.read_txns t.read_p50_latency_ms t.read_p95_latency_ms t.read_p99_latency_ms
      t.scan_txns t.write_txns t.storage

let pp_recovery fmt t =
  Format.fprintf fmt
    "recovery: state transfers %d | holes filled %d | retransmissions %d"
    t.state_transfers t.holes_filled t.retransmissions

(* Per-phase latency breakdown and per-decision traced message counts
   (whole run, all nodes) — empty when the run was not traced. *)
let pp_trace fmt t =
  match t.trace with
  | None -> ()
  | Some s -> Rdb_trace.Trace.pp_summary fmt s

let to_string t = Format.asprintf "%a" pp t

(* -- versioned JSON wire format ----------------------------------------- *)

(* Bump on any shape change; of_json refuses documents from the
   future.  Version 1 was the ad-hoc, write-only shape the bench
   harness used to emit (no trace block, no inverse).  Version 2
   predates the storage redesign: no per-op-class counts, no read
   latency split, no storage field — [of_json] still accepts it,
   defaulting those fields to a write-only in-memory run. *)
let schema_version = 3

let json_of_trace (s : Rdb_trace.Trace.summary) : Json.t =
  Json.Obj
    [
      ( "phases",
        Json.List
          (List.map
             (fun (r : Rdb_trace.Trace.phase_row) ->
               Json.Obj
                 [
                   ("phase", Json.String r.Rdb_trace.Trace.phase);
                   ("count", Json.Int r.Rdb_trace.Trace.count);
                   ("total_ms", Json.Float r.Rdb_trace.Trace.total_ms);
                   ("avg_ms", Json.Float r.Rdb_trace.Trace.avg_ms);
                   ("max_ms", Json.Float r.Rdb_trace.Trace.max_ms);
                 ])
             s.Rdb_trace.Trace.phases) );
      ("net_local", Json.Int s.Rdb_trace.Trace.net_local);
      ("net_global", Json.Int s.Rdb_trace.Trace.net_global);
      ("net_dropped", Json.Int s.Rdb_trace.Trace.net_dropped);
      ("decisions", Json.Int s.Rdb_trace.Trace.decisions);
      ("events", Json.Int s.Rdb_trace.Trace.events);
      ("digest_hex", Json.String s.Rdb_trace.Trace.digest_hex);
    ]

let to_json t : Json.t =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("protocol", Json.String t.protocol);
      ("z", Json.Int t.z);
      ("n", Json.Int t.n);
      ("batch_size", Json.Int t.batch_size);
      ("throughput_txn_s", Json.Float t.throughput_txn_s);
      ("avg_latency_ms", Json.Float t.avg_latency_ms);
      ("p50_latency_ms", Json.Float t.p50_latency_ms);
      ("p95_latency_ms", Json.Float t.p95_latency_ms);
      ("p99_latency_ms", Json.Float t.p99_latency_ms);
      ("completed_batches", Json.Int t.completed_batches);
      ("completed_txns", Json.Int t.completed_txns);
      ("decisions", Json.Int t.decisions);
      ("local_msgs", Json.Int t.local_msgs);
      ("global_msgs", Json.Int t.global_msgs);
      ("local_mb", Json.Float t.local_mb);
      ("global_mb", Json.Float t.global_mb);
      ("view_changes", Json.Int t.view_changes);
      ("state_transfers", Json.Int t.state_transfers);
      ("holes_filled", Json.Int t.holes_filled);
      ("retransmissions", Json.Int t.retransmissions);
      ("storage", Json.String t.storage);
      ("read_txns", Json.Int t.read_txns);
      ("scan_txns", Json.Int t.scan_txns);
      ("write_txns", Json.Int t.write_txns);
      ("read_p50_latency_ms", Json.Float t.read_p50_latency_ms);
      ("read_p95_latency_ms", Json.Float t.read_p95_latency_ms);
      ("read_p99_latency_ms", Json.Float t.read_p99_latency_ms);
      ("window_sec", Json.Float t.window_sec);
      ("trace", match t.trace with None -> Json.Null | Some s -> json_of_trace s);
    ]

let to_json_string t = Json.to_string_compact (to_json t)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "Report.of_json: missing or ill-typed field %S" name)

let trace_of_json j =
  match j with
  | None | Some Json.Null -> Ok None
  | Some tj ->
      let* phases = field "phases" Json.to_list tj in
      let* phases =
        List.fold_left
          (fun acc pj ->
            let* acc = acc in
            let* phase = field "phase" Json.to_str pj in
            let* count = field "count" Json.to_int pj in
            let* total_ms = field "total_ms" Json.to_float pj in
            let* avg_ms = field "avg_ms" Json.to_float pj in
            let* max_ms = field "max_ms" Json.to_float pj in
            Ok ({ Rdb_trace.Trace.phase; count; total_ms; avg_ms; max_ms } :: acc))
          (Ok []) phases
      in
      let phases = List.rev phases in
      let* net_local = field "net_local" Json.to_int tj in
      let* net_global = field "net_global" Json.to_int tj in
      let* net_dropped = field "net_dropped" Json.to_int tj in
      let* decisions = field "decisions" Json.to_int tj in
      let* events = field "events" Json.to_int tj in
      let* digest_hex = field "digest_hex" Json.to_str tj in
      Ok
        (Some
           {
             Rdb_trace.Trace.phases;
             net_local;
             net_global;
             net_dropped;
             decisions;
             events;
             digest_hex;
           })

let of_json j : (t, string) result =
  let* v = field "schema_version" Json.to_int j in
  if v > schema_version then
    Error (Printf.sprintf "Report.of_json: schema_version %d is newer than %d" v schema_version)
  else if v < schema_version then
    Error
      (Printf.sprintf "Report.of_json: schema_version %d is older than %d and no longer read" v
         schema_version)
  else
    let* protocol = field "protocol" Json.to_str j in
    let* z = field "z" Json.to_int j in
    let* n = field "n" Json.to_int j in
    let* batch_size = field "batch_size" Json.to_int j in
    let* throughput_txn_s = field "throughput_txn_s" Json.to_float j in
    let* avg_latency_ms = field "avg_latency_ms" Json.to_float j in
    let* p50_latency_ms = field "p50_latency_ms" Json.to_float j in
    let* p95_latency_ms = field "p95_latency_ms" Json.to_float j in
    let* p99_latency_ms = field "p99_latency_ms" Json.to_float j in
    let* completed_batches = field "completed_batches" Json.to_int j in
    let* completed_txns = field "completed_txns" Json.to_int j in
    let* decisions = field "decisions" Json.to_int j in
    let* local_msgs = field "local_msgs" Json.to_int j in
    let* global_msgs = field "global_msgs" Json.to_int j in
    let* local_mb = field "local_mb" Json.to_float j in
    let* global_mb = field "global_mb" Json.to_float j in
    let* view_changes = field "view_changes" Json.to_int j in
    let* state_transfers = field "state_transfers" Json.to_int j in
    let* holes_filled = field "holes_filled" Json.to_int j in
    let* retransmissions = field "retransmissions" Json.to_int j in
    let* storage = field "storage" Json.to_str j in
    let* read_txns = field "read_txns" Json.to_int j in
    let* scan_txns = field "scan_txns" Json.to_int j in
    let* write_txns = field "write_txns" Json.to_int j in
    let* read_p50_latency_ms = field "read_p50_latency_ms" Json.to_float j in
    let* read_p95_latency_ms = field "read_p95_latency_ms" Json.to_float j in
    let* read_p99_latency_ms = field "read_p99_latency_ms" Json.to_float j in
    let* window_sec = field "window_sec" Json.to_float j in
    let* trace = trace_of_json (Json.member "trace" j) in
    Ok
      {
        protocol;
        z;
        n;
        batch_size;
        throughput_txn_s;
        avg_latency_ms;
        p50_latency_ms;
        p95_latency_ms;
        p99_latency_ms;
        completed_batches;
        completed_txns;
        decisions;
        local_msgs;
        global_msgs;
        local_mb;
        global_mb;
        view_changes;
        state_transfers;
        holes_filled;
        retransmissions;
        storage;
        read_txns;
        scan_txns;
        write_txns;
        read_p50_latency_ms;
        read_p95_latency_ms;
        read_p99_latency_ms;
        window_sec;
        trace;
      }

let of_json_string s =
  match Json.of_string s with Ok j -> of_json j | Error msg -> Error ("Report.of_json: " ^ msg)
