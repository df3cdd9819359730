(* The named scenario matrices of the evaluation (§4).  Each paper
   artifact is defined once, here: its scenario grid and the renderer
   that turns the grid's results into the paper's table, so the one
   experiment driver (`rdb_cli sweep`) both runs and prints every
   artifact (EXPERIMENTS.md records the paper's values next to ours).

   A renderer finds each cell by its scenario's own fields — protocol,
   fault and configuration — never by its position in the result
   list. *)

module Config = Rdb_types.Config
module Report = Rdb_fabric.Report
module Topology = Rdb_sim.Topology
module Time = Rdb_sim.Time
open Runner

(* -- the chaos validation deployment --------------------------------------- *)

let chaos ~seeds =
  let windows = { warmup = Time.sec 1; measure = Time.sec 11 } in
  let cfg = Config.make ~z:2 ~n:4 ~batch_size:20 ~client_inflight:8 ~seed:1 () in
  List.concat_map
    (fun p -> List.map (fun seed -> Scenario.make ~windows ~fault:(Chaos seed) p cfg) (seeds p))
    all_protocols

let seed_range s =
  match List.map int_of_string_opt (String.split_on_char '-' (String.trim s)) with
  | [ Some one ] -> Some [ one ]
  | [ Some lo; Some hi ] when lo <= hi -> Some (List.init (hi - lo + 1) (fun i -> lo + i))
  | _ -> None

(* -- grids and cells --------------------------------------------------------- *)

type results = (Scenario.t * Report.t) list

(* Grid enumeration: protocols outermost, swept parameter inner — the
   canonical order every consumer sees. *)
let grid ~windows ?(fault = No_fault) protocols xs cfg_of =
  List.concat_map
    (fun p -> List.map (fun x -> Scenario.make ~windows ~fault p (cfg_of x)) xs)
    protocols

let render f =
  let b = Buffer.create 4096 in
  f b;
  Buffer.contents b

let find results p = List.find_map (fun (s, r) -> if p s then Some r else None) results

(* The report of [proto] run on exactly [cfg] under [fault]. *)
let cell ?(fault = No_fault) results proto cfg =
  match
    find results (fun (s : Scenario.t) -> s.proto = proto && s.fault = fault && s.cfg = cfg)
  with
  | Some r -> r
  | None ->
      invalid_arg
        ("Matrices: no result for " ^ Scenario.to_string (Scenario.make ~fault proto cfg))

(* -- Figures 10-13: one column per protocol, one row per swept value -------- *)

let tput r = Printf.sprintf "%.0f" r.Report.throughput_txn_s
let lat r = Printf.sprintf "%.2f" (r.Report.avg_latency_ms /. 1000.) (* ms -> s, as the paper plots *)
let z_of (s : Scenario.t) = s.cfg.Config.z
let n_of (s : Scenario.t) = s.cfg.Config.n

(* One plotted series over the runs of [results]; "-" where a protocol
   has no run at some value. *)
let series b ~title ~x_label ~x_of ~value results =
  Printf.bprintf b "\n%s\n%-10s" title x_label;
  let xs = List.sort_uniq compare (List.map (fun (s, _) -> x_of s) results) in
  let protos = List.sort_uniq compare (List.map (fun ((s : Scenario.t), _) -> s.proto) results) in
  List.iter (fun p -> Printf.bprintf b "%14s" (proto_name p)) protos;
  Buffer.add_char b '\n';
  List.iter
    (fun x ->
      Printf.bprintf b "%-10d" x;
      List.iter
        (fun p ->
          Printf.bprintf b "%14s"
            (match find results (fun (s : Scenario.t) -> s.proto = p && x_of s = x) with
            | Some r -> value r
            | None -> "-"))
        protos;
      Buffer.add_char b '\n')
    xs

(* Figures 10 and 11 plot throughput (left) and latency (right). *)
let tput_and_lat ~figure ~axis ~x_label ~x_of b results =
  series b ~title:(Printf.sprintf "Figure %d (left): throughput (txn/s) vs %s" figure axis)
    ~x_label ~x_of ~value:tput results;
  series b ~title:(Printf.sprintf "Figure %d (right): latency (s) vs %s" figure axis)
    ~x_label ~x_of ~value:lat results

let fig12_panels b results =
  List.iter
    (fun (fault, title) ->
      series b ~title ~x_label:"replicas" ~x_of:n_of ~value:tput
        (List.filter (fun ((s : Scenario.t), _) -> s.fault = fault) results))
    [
      (One_nonprimary, "Figure 12 (left): throughput (txn/s), one non-primary failure, z = 4");
      (F_nonprimary, "Figure 12 (middle): throughput (txn/s), f failures per cluster, z = 4");
      (Primary_failure, "Figure 12 (right): throughput (txn/s), single primary failure, z = 4");
    ]

(* -- Ablations: the design decisions DESIGN.md calls out ------------------- *)

(* These go beyond the paper's own figures: each isolates one design
   choice of GeoBFT/ResilientDB and measures its contribution, on the
   z = 4, n = 7 deployment. *)
let ablation_cfg = Config.make ~z:4 ~n:7 ()

(* A. Global-sharing fan-out (GeoBFT sends to f+1 replicas per remote
   cluster — Figure 5), swept over s ∈ {1, f+1, n}: s = 1 minimizes
   traffic but a single unlucky receiver crash cuts the cluster off
   (remote view changes fire); s = n is the naive broadcast that
   wastes the scarce WAN bandwidth; s = f+1 is the paper's sweet spot
   — resilient with minimal cost.  Each fan-out runs healthy, then
   with one crashed backup per cluster (with fan-out 1 some shares
   now land exclusively on dead replicas — the rotation hits them
   every n rounds — forcing detection and resends). *)
let fanouts = [ 1; 0; ablation_cfg.Config.n ] (* 0 = the paper's f+1 *)
let fanout_cfg s = { ablation_cfg with Config.geobft_fanout = s }

(* B. Pipelining depth (§2.5: replication, sharing and execution of
   consecutive rounds overlap).  Depth 1 forces lock-step rounds
   (every round pays the full WAN latency); the default depth keeps
   the WAN pipe full. *)
let depths = [ 1; 2; 4; 8; 32 ]
let depth_cfg d = { ablation_cfg with Config.pipeline_depth = d }

(* C. MACs vs signatures (§2.1/§3: ResilientDB signs only forwarded
   messages — client requests and commits — and MACs the rest).  Pbft
   re-costed as if every MAC were a signature: what classic
   signature-based BFT pays per message. *)
let schemes =
  let costs = ablation_cfg.Config.costs in
  [
    ("MACs + sigs (ResilientDB)", ablation_cfg);
    ( "signatures everywhere",
      { ablation_cfg with Config.costs = { costs with Config.mac_us = costs.Config.verify_us } } );
  ]

(* D. Threshold-signature certificates (§2.2, optional): "if the size
   of commit messages starts dominating, then threshold signatures can
   be adopted to reduce their cost" (§4).  The benefit grows with n,
   since plain certificates carry n − f signatures and every receiver
   verifies all of them. *)
let cert_ns = [ 7; 15 ]
let cert_cfg ~threshold n = { (Config.make ~z:4 ~n ()) with Config.threshold_certs = threshold }

let ablation_scenarios ~windows =
  List.concat_map
    (fun s ->
      let cfg = fanout_cfg s in
      [ Scenario.make ~windows Geobft cfg; Scenario.make ~windows ~fault:One_nonprimary Geobft cfg ])
    fanouts
  @ grid ~windows [ Geobft ] depths depth_cfg
  @ List.map (fun (_, cfg) -> Scenario.make ~windows Pbft cfg) schemes
  @ List.concat_map
      (fun n -> grid ~windows [ Geobft ] [ false; true ] (fun threshold -> cert_cfg ~threshold n))
      cert_ns

let ablations b results =
  Printf.bprintf b "\nAblation A: GeoBFT global-sharing fan-out (z=4, n=7)\n";
  Printf.bprintf b "%-18s %14s %14s %18s %14s\n" "fan-out" "txn/s" "global msgs/dec"
    "txn/s (1 crash)" "view changes";
  List.iter
    (fun s ->
      let healthy = cell results Geobft (fanout_cfg s) in
      let down = cell ~fault:One_nonprimary results Geobft (fanout_cfg s) in
      let label =
        if s = 1 then "s=1 (minimal)"
        else if s = 0 then Printf.sprintf "s=f+1=%d (paper)" (Config.f ablation_cfg + 1)
        else "s=n (broadcast)"
      in
      Printf.bprintf b "%-18s %14.0f %14.1f %18.0f %14d\n" label healthy.Report.throughput_txn_s
        (Report.global_msgs_per_decision healthy)
        down.Report.throughput_txn_s down.Report.view_changes)
    fanouts;
  Printf.bprintf b "\nAblation B: GeoBFT consensus pipelining depth (z=4, n=7)\n";
  Printf.bprintf b "%-8s %14s %14s\n" "depth" "txn/s" "latency (ms)";
  List.iter
    (fun d ->
      let r = cell results Geobft (depth_cfg d) in
      Printf.bprintf b "%-8d %14.0f %14.1f\n" d r.Report.throughput_txn_s r.Report.avg_latency_ms)
    depths;
  Printf.bprintf b "\nAblation C: authenticators in Pbft (z=4, n=7)\n";
  Printf.bprintf b "%-28s %14s %14s\n" "scheme" "txn/s" "latency (ms)";
  List.iter
    (fun (label, cfg) ->
      let r = cell results Pbft cfg in
      Printf.bprintf b "%-28s %14.0f %14.1f\n" label r.Report.throughput_txn_s
        r.Report.avg_latency_ms)
    schemes;
  Printf.bprintf b
    "\nAblation D: GeoBFT certificates: n-f signatures vs one threshold signature (z=4)\n";
  Printf.bprintf b "%-4s %20s %20s %24s\n" "n" "plain txn/s" "threshold txn/s"
    "global MB (plain/thr)";
  List.iter
    (fun n ->
      let plain = cell results Geobft (cert_cfg ~threshold:false n) in
      let thr = cell results Geobft (cert_cfg ~threshold:true n) in
      Printf.bprintf b "%-4d %20.0f %20.0f %14.1f / %-8.1f\n" n plain.Report.throughput_txn_s
        thr.Report.throughput_txn_s plain.Report.global_mb thr.Report.global_mb)
    cert_ns

(* -- Table 2: normal-case message complexity per consensus decision -------- *)

(* The paper states asymptotic counts for a system of z clusters of n
   replicas; we measure actual messages per decision in a fault-free
   run and print them next to the paper's formulas. *)
let table2_cfg = Config.make ~z:4 ~n:7 ()

let formula ~z ~n ~f = function
  | Geobft ->
      (* z parallel decisions: per decision O(2n^2) local + O(f(z-1)) global,
         globally O(2zn^2) local and O(fz^2)-ish global. *)
      ( Printf.sprintf "O(2n^2) = %d" (2 * n * n),
        Printf.sprintf "O(f(z-1)) = %d" ((f + 1) * (z - 1)) )
  | Pbft ->
      let m = z * n in
      (Printf.sprintf "O(2(zn)^2) = %d" (2 * m * m), "(all-to-all crosses regions)")
  | Zyzzyva -> (Printf.sprintf "O(zn) = %d" (z * n), "(primary to all)")
  | Hotstuff -> (Printf.sprintf "O(8zn) = %d" (8 * z * n), "(4 leader phases)")
  | Steward -> (Printf.sprintf "O(2zn^2)", "O(z^2)")

let table2 b results =
  let z = table2_cfg.Config.z and n = table2_cfg.Config.n and f = Config.f table2_cfg in
  Printf.bprintf b "\nTable 2: measured messages per consensus decision (z=%d, n=%d, f=%d)\n" z n
    f;
  Printf.bprintf b "%-10s %15s %15s   %-22s %s\n" "protocol" "local/decision" "global/decision"
    "paper (local)" "paper (global)";
  List.iter
    (fun p ->
      let r = cell results p table2_cfg in
      let fl, fg = formula ~z ~n ~f p in
      Printf.bprintf b "%-10s %15.1f %15.1f   %-22s %s\n" (proto_name p)
        (Report.local_msgs_per_decision r)
        (Report.global_msgs_per_decision r)
        fl fg)
    all_protocols

(* -- Table 1: inter-region RTT and bandwidth ------------------------------- *)

(* One region-by-region matrix, rows and columns in paper region
   order. *)
let region_matrix b ~title ~decimals m =
  Printf.bprintf b "\n%s\n%8s" title "";
  Array.iteri (fun j _ -> Printf.bprintf b "%9s" Topology.paper_regions.(j).Topology.short) m;
  Buffer.add_char b '\n';
  Array.iteri
    (fun i row ->
      Printf.bprintf b "%-8s" Topology.paper_regions.(i).Topology.name;
      Array.iter (Printf.bprintf b "%9.*f" decimals) row;
      Buffer.add_char b '\n')
    m

let table1_configured () =
  render (fun b ->
      region_matrix b ~title:"Table 1: ping round-trip times (ms) [configured from the paper]"
        ~decimals:1 Topology.paper_rtt_ms;
      region_matrix b ~title:"Table 1: bandwidth (Mbit/s) [configured from the paper]"
        ~decimals:0 Topology.paper_bw_mbps)

(* The in-simulator probe: one node per region pair; ping = send a
   small message and echo it back; bandwidth = push a 64 MB burst and
   time its arrival.  It verifies that the network model reproduces
   its own calibration. *)
type probe_msg = Ping of Time.t | Pong of Time.t | Bulk of { last : bool; started : Time.t }

let measure () =
  let module Engine = Rdb_sim.Engine in
  let module Network = Rdb_sim.Network in
  let r = Array.length Topology.paper_regions in
  let rtt = Array.make_matrix r r 0. in
  let bw = Array.make_matrix r r 0. in
  for i = 0 to r - 1 do
    for j = 0 to r - 1 do
      let engine = Engine.create ~seed:1 () in
      let topo = Topology.of_paper ~n_regions:r ~node_region:[| i; j |] in
      let net = ref None in
      let deliver ~src:_ ~dst:_ msg =
        let n = Option.get !net in
        match msg with
        | Ping t0 -> Network.send n ~src:1 ~dst:0 ~size:64 (Pong t0)
        | Pong t0 -> rtt.(i).(j) <- Time.to_ms_f (Time.sub (Engine.now engine) t0)
        | Bulk { last; started } ->
            if last then begin
              let secs = Time.to_sec_f (Time.sub (Engine.now engine) started) in
              let bytes = 64. *. 1024. *. 1024. in
              if secs > 0. then bw.(i).(j) <- bytes *. 8. /. secs /. 1e6
            end
      in
      let n = Network.create ~engine ~topo ~jitter_ms:0. ~deliver () in
      net := Some n;
      Network.send n ~src:0 ~dst:1 ~size:64 (Ping (Engine.now engine));
      (* 64 MB in 64 KB chunks. *)
      let chunks = 1024 in
      let started = Engine.now engine in
      for k = 1 to chunks do
        Network.send n ~src:0 ~dst:1 ~size:65536 (Bulk { last = k = chunks; started })
      done;
      Engine.run engine
    done
  done;
  (rtt, bw)

let table1 () =
  let rtt, bw = measure () in
  table1_configured ()
  ^ render (fun b ->
        region_matrix b ~title:"Table 1 (measured in simulator): ping RTT (ms)" ~decimals:1 rtt;
        region_matrix b ~title:"Table 1 (measured in simulator): bulk throughput (Mbit/s)"
          ~decimals:0 bw)

(* -- named matrices -------------------------------------------------------- *)

type t = { scenarios : Scenario.t list; render : (results -> string) option }

let all =
  [ "fig10"; "fig11"; "fig11-scale"; "fig12"; "fig12-scale"; "fig13"; "ablations"; "table2" ]

let names = ("smoke" :: all) @ [ "chaos"; "all" ]

let matrix ~windows ~seeds name =
  let table scenarios f = Some { scenarios; render = Some (fun r -> render (fun b -> f b r)) } in
  let plain scenarios = Some { scenarios; render = None } in
  let grid ?fault protocols xs cfg_of = grid ~windows ?fault protocols xs cfg_of in
  match name with
  | "smoke" ->
      (* One small traced run per protocol: z2 n4, 0.5 s + 1.5 s. *)
      let windows = { warmup = Time.ms 500; measure = Time.ms 1500 } in
      let cfg = Config.make ~z:2 ~n:4 ~batch_size:50 ~client_inflight:16 ~seed:1 () in
      plain (List.map (fun p -> Scenario.make ~windows ~trace:true p cfg) all_protocols)
  | "fig10" ->
      table
        (grid all_protocols [ 1; 2; 3; 4; 5; 6 ] (fun z -> Config.make ~z ~n:(60 / z) ()))
        (tput_and_lat ~figure:10 ~axis:"#clusters, zn = 60" ~x_label:"clusters" ~x_of:z_of)
  | "fig11" ->
      table
        (grid all_protocols [ 4; 7; 10; 12; 15 ] (fun n -> Config.make ~z:4 ~n ()))
        (tput_and_lat ~figure:11 ~axis:"replicas per cluster, z = 4" ~x_label:"replicas"
           ~x_of:n_of)
  | "fig11-scale" ->
      (* Figure 11's two axes pushed past the paper's hardware reach:
         n grows to 100+ replicas per cluster at the paper's 160k
         clients (one aggregated group per cluster), and z grows to 32
         tiled regions with groups representing 1.6M clients — 10x
         the paper.  GeoBFT only: the hierarchical design is what the
         paper claims scales, and the flat protocols' quadratic
         message complexity makes the largest rows disproportionately
         expensive to simulate. *)
      plain
        (grid [ Geobft ] [ 31; 61; 101 ] (fun n -> Config.make ~z:4 ~n ~clients:160_000 ())
        @ grid [ Geobft ] [ 8; 16; 32 ] (fun z -> Config.make ~z ~n:31 ~clients:1_600_000 ()))
  | "fig12" ->
      (* Left: one non-primary failure; middle: f non-primary failures
         per cluster; both for every protocol.  Right: a single
         primary failure mid-run, which the paper runs only for GeoBFT
         and Pbft (Zyzzyva cannot survive it, HotStuff has no fixed
         primary, Steward has no usable view-change). *)
      let ns = [ 4; 7; 10; 12 ] and cfg n = Config.make ~z:4 ~n () in
      table
        (grid ~fault:One_nonprimary all_protocols ns cfg
        @ grid ~fault:F_nonprimary all_protocols ns cfg
        @ grid ~fault:Primary_failure [ Geobft; Pbft ] ns cfg)
        fig12_panels
  | "fig12-scale" ->
      (* The failure experiments at large topologies: z = 8 tiled
         regions, 31 and 61 replicas per cluster, aggregated groups
         representing 1.6M clients.  GeoBFT and Pbft: the two
         protocols whose recovery paths the paper exercises at
         scale. *)
      let cfg n = Config.make ~z:8 ~n ~clients:1_600_000 () in
      plain
        (grid ~fault:One_nonprimary [ Geobft; Pbft ] [ 31; 61 ] cfg
        @ grid ~fault:F_nonprimary [ Geobft; Pbft ] [ 31; 61 ] cfg)
  | "fig13" ->
      table
        (grid all_protocols [ 10; 50; 100; 200; 300 ] (fun batch_size ->
             Config.make ~z:4 ~n:7 ~batch_size ()))
        (series ~title:"Figure 13: throughput (txn/s) vs batch size, z = 4, n = 7"
           ~x_label:"batch"
           ~x_of:(fun s -> s.Scenario.cfg.Config.batch_size)
           ~value:tput)
  | "ablations" -> table (ablation_scenarios ~windows) ablations
  | "table2" -> table (grid all_protocols [ table2_cfg ] Fun.id) table2
  | "chaos" -> plain (chaos ~seeds:(fun _ -> seeds))
  | _ -> None

let expand ~windows ~seeds = function
  | "all" -> Some (List.filter_map (matrix ~windows ~seeds) all)
  | name -> Option.map (fun m -> [ m ]) (matrix ~windows ~seeds name)
