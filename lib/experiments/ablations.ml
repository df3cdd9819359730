(* Ablation studies for the design decisions DESIGN.md calls out.
   These go beyond the paper's own figures: each isolates one design
   choice of GeoBFT/ResilientDB and measures its contribution.

   A. Global-sharing fan-out (GeoBFT sends to f+1 replicas per remote
      cluster — Figure 5).  We sweep the fan-out s ∈ {1, f+1, n}:
      s = 1 minimizes traffic but a single unlucky receiver crash cuts
      the cluster off (remote view changes fire); s = n is the naive
      broadcast that wastes the scarce WAN bandwidth; s = f+1 is the
      paper's sweet spot — resilient with minimal cost.

   B. Pipelining depth (§2.5: replication, sharing and execution of
      consecutive rounds overlap).  Depth 1 forces lock-step rounds
      (every round pays the full WAN latency); the default depth keeps
      the WAN pipe full.

   C. MACs vs signatures (§2.1/§3: ResilientDB signs only forwarded
      messages — client requests and commits — and MACs the rest).
      We re-cost Pbft as if every message carried a signature
      (signature-heavy classic BFT), showing why the MAC/signature
      split matters.

   Like Figures.*, every ablation exposes [scenarios] (the canonical
   grid, in order) and [rows_of_reports] (fold the ordered results
   back into rows — positional, so it accepts exactly the list
   [scenarios] produced, run serially or through the sweep engine). *)

module Config = Rdb_types.Config
module Report = Rdb_fabric.Report
open Runner

let shape_error name =
  invalid_arg
    (Printf.sprintf "Ablations.%s.rows_of_reports: results do not match this ablation's grid" name)

(* -- A: sharing fan-out -------------------------------------------------- *)
module Fanout = struct
  type row = { fanout : int; label : string; healthy : Report.t; one_receiver_down : Report.t }

  let fanouts ~n = [ 1; 0; n ] (* 0 = the paper's f+1 *)

  (* For each fan-out: a healthy run, then one crashed backup per
     cluster (with fan-out 1 some shares now land exclusively on dead
     replicas — the rotation hits them every n rounds — forcing
     detection and resends). *)
  let scenarios ?(windows = default_windows) ?(z = 4) ?(n = 7) () =
    List.concat_map
      (fun fanout ->
        let cfg = { (Config.make ~z ~n ()) with Config.geobft_fanout = fanout } in
        [
          Scenario.make ~windows Geobft cfg;
          Scenario.make ~windows ~fault:One_nonprimary Geobft cfg;
        ])
      (fanouts ~n)

  let label_of ~n ~fanout =
    if fanout = 1 then "s=1 (minimal)"
    else if fanout = 0 then Printf.sprintf "s=f+1=%d (paper)" (((n - 1) / 3) + 1)
    else "s=n (broadcast)"

  let rec rows_of_reports = function
    | [] -> []
    | ((s : Scenario.t), healthy) :: (_, one_receiver_down) :: rest ->
        let cfg = s.Scenario.cfg in
        let fanout = cfg.Config.geobft_fanout in
        { fanout; label = label_of ~n:cfg.Config.n ~fanout; healthy; one_receiver_down }
        :: rows_of_reports rest
    | _ -> shape_error "Fanout"

  let print rows =
    Printf.printf "\nAblation A: GeoBFT global-sharing fan-out (z=4, n=7)\n";
    Printf.printf "%-18s %14s %14s %18s %14s\n" "fan-out" "txn/s" "global msgs/dec" "txn/s (1 crash)"
      "view changes";
    List.iter
      (fun r ->
        Printf.printf "%-18s %14.0f %14.1f %18.0f %14d\n" r.label
          r.healthy.Report.throughput_txn_s
          (Report.global_msgs_per_decision r.healthy)
          r.one_receiver_down.Report.throughput_txn_s r.one_receiver_down.Report.view_changes)
      rows
end

(* -- B: pipelining depth --------------------------------------------------- *)
module Pipeline = struct
  type row = { depth : int; report : Report.t }

  let depths = [ 1; 2; 4; 8; 32 ]

  let scenarios ?(windows = default_windows) ?(z = 4) ?(n = 7) () =
    List.map
      (fun depth ->
        Scenario.make ~windows Geobft
          { (Config.make ~z ~n ()) with Config.pipeline_depth = depth })
      depths

  let rows_of_reports results =
    List.map
      (fun ((s : Scenario.t), report) ->
        { depth = s.Scenario.cfg.Config.pipeline_depth; report })
      results

  let print rows =
    Printf.printf "\nAblation B: GeoBFT consensus pipelining depth (z=4, n=7)\n";
    Printf.printf "%-8s %14s %14s\n" "depth" "txn/s" "latency (ms)";
    List.iter
      (fun r ->
        Printf.printf "%-8d %14.0f %14.1f\n" r.depth r.report.Report.throughput_txn_s
          r.report.Report.avg_latency_ms)
      rows
end

(* -- C: MACs vs signatures -------------------------------------------------- *)
module Crypto_split = struct
  type row = { label : string; report : Report.t }

  let labels = [ "MACs + sigs (ResilientDB)"; "signatures everywhere" ]

  let scenarios ?(windows = default_windows) ?(z = 4) ?(n = 7) () =
    let base = Config.make ~z ~n () in
    let sign_everything =
      (* Every MAC becomes a signature: what classic signature-based
         BFT pays per message. *)
      {
        base with
        Config.costs = { base.Config.costs with Config.mac_us = base.Config.costs.Config.verify_us };
      }
    in
    [ Scenario.make ~windows Pbft base; Scenario.make ~windows Pbft sign_everything ]

  let rows_of_reports results =
    match results with
    | [ (_, macs); (_, sigs) ] ->
        [
          { label = List.nth labels 0; report = macs }; { label = List.nth labels 1; report = sigs };
        ]
    | _ -> shape_error "Crypto_split"

  let print rows =
    Printf.printf "\nAblation C: authenticators in Pbft (z=4, n=7)\n";
    Printf.printf "%-28s %14s %14s\n" "scheme" "txn/s" "latency (ms)";
    List.iter
      (fun r ->
        Printf.printf "%-28s %14.0f %14.1f\n" r.label r.report.Report.throughput_txn_s
          r.report.Report.avg_latency_ms)
      rows
end

(* -- D: threshold-signature certificates (§2.2, optional) ------------------- *)
module Threshold_certs = struct
  (* "if the size of commit messages starts dominating, then threshold
     signatures can be adopted to reduce their cost" (§4): the benefit
     grows with n, since plain certificates carry n − f signatures and
     every receiver verifies all of them. *)
  type row = { n : int; plain : Report.t; threshold : Report.t }

  let ns = [ 7; 15 ]

  let scenarios ?(windows = default_windows) ?(z = 4) () =
    List.concat_map
      (fun n ->
        let base = Config.make ~z ~n () in
        [
          Scenario.make ~windows Geobft base;
          Scenario.make ~windows Geobft { base with Config.threshold_certs = true };
        ])
      ns

  let rec rows_of_reports = function
    | [] -> []
    | ((s : Scenario.t), plain) :: (_, threshold) :: rest ->
        { n = s.Scenario.cfg.Config.n; plain; threshold } :: rows_of_reports rest
    | _ -> shape_error "Threshold_certs"

  let print rows =
    Printf.printf
      "\nAblation D: GeoBFT certificates: n-f signatures vs one threshold signature (z=4)\n";
    Printf.printf "%-4s %20s %20s %24s\n" "n" "plain txn/s" "threshold txn/s"
      "global MB (plain/thr)";
    List.iter
      (fun r ->
        Printf.printf "%-4d %20.0f %20.0f %14.1f / %-8.1f\n" r.n
          r.plain.Report.throughput_txn_s r.threshold.Report.throughput_txn_s
          r.plain.Report.global_mb r.threshold.Report.global_mb)
      rows
end

(* The full ablation grid as one scenario list (canonical order), plus
   the inverse: split a result list in that order back into the four
   ablations' rows. *)
let scenarios ?(windows = default_windows) () =
  Fanout.scenarios ~windows () @ Pipeline.scenarios ~windows ()
  @ Crypto_split.scenarios ~windows ()
  @ Threshold_certs.scenarios ~windows ()

type rows = {
  fanout : Fanout.row list;
  pipeline : Pipeline.row list;
  crypto_split : Crypto_split.row list;
  threshold_certs : Threshold_certs.row list;
}

let rows_of_reports ?(windows = default_windows) results =
  let split_at k l =
    let rec go acc k = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> shape_error "scenarios"
      | x :: rest -> go (x :: acc) (k - 1) rest
    in
    go [] k l
  in
  let a, rest = split_at (List.length (Fanout.scenarios ~windows ())) results in
  let b, rest = split_at (List.length (Pipeline.scenarios ~windows ())) rest in
  let c, d = split_at (List.length (Crypto_split.scenarios ~windows ())) rest in
  {
    fanout = Fanout.rows_of_reports a;
    pipeline = Pipeline.rows_of_reports b;
    crypto_split = Crypto_split.rows_of_reports c;
    threshold_certs = Threshold_certs.rows_of_reports d;
  }

let print rows =
  Fanout.print rows.fanout;
  Pipeline.print rows.pipeline;
  Crypto_split.print rows.crypto_split;
  Threshold_certs.print rows.threshold_certs
