(* Table 1 and Table 2 of the paper. *)

module Config = Rdb_types.Config
module Report = Rdb_fabric.Report
module Topology = Rdb_sim.Topology
module Time = Rdb_sim.Time
open Runner

(* -- Table 1: inter-region RTT and bandwidth ------------------------------- *)
module Table1 = struct
  (* The calibration matrix itself (what the simulator is configured
     with) plus an in-simulator probe that measures the effective
     round-trip of a small message and the effective throughput of a
     bulk transfer between each region pair — verifying that the
     network model reproduces its own calibration. *)

  let print_configured () =
    let t = Topology.clustered ~z:6 ~n:1 in
    let r = Topology.n_regions t in
    Printf.printf "\nTable 1: ping round-trip times (ms) [configured from the paper]\n%8s" "";
    for j = 0 to r - 1 do
      Printf.printf "%9s" Topology.paper_regions.(j).Topology.short
    done;
    print_newline ();
    for i = 0 to r - 1 do
      Printf.printf "%-8s" Topology.paper_regions.(i).Topology.name;
      for j = 0 to r - 1 do
        Printf.printf "%9.1f" Topology.paper_rtt_ms.(i).(j)
      done;
      print_newline ()
    done;
    Printf.printf "\nTable 1: bandwidth (Mbit/s) [configured from the paper]\n%8s" "";
    for j = 0 to r - 1 do
      Printf.printf "%9s" Topology.paper_regions.(j).Topology.short
    done;
    print_newline ();
    for i = 0 to r - 1 do
      Printf.printf "%-8s" Topology.paper_regions.(i).Topology.name;
      for j = 0 to r - 1 do
        Printf.printf "%9.0f" Topology.paper_bw_mbps.(i).(j)
      done;
      print_newline ()
    done

  (* Measured in-simulator: one node per region; ping = send a small
     message and echo it back; bandwidth = push a 64 MB burst and time
     its arrival. *)
  type probe_msg = Ping of Time.t | Pong of Time.t | Bulk of { last : bool; started : Time.t }

  let measure () =
    let module Engine = Rdb_sim.Engine in
    let module Network = Rdb_sim.Network in
    let r = 6 in
    let rtt = Array.make_matrix r r 0. in
    let bw = Array.make_matrix r r 0. in
    for i = 0 to r - 1 do
      for j = 0 to r - 1 do
        let engine = Engine.create ~seed:1 () in
        let topo =
          Topology.of_paper ~n_regions:r ~node_region:[| i; j |]
        in
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

  let print_measured () =
    let rtt, bw = measure () in
    Printf.printf "\nTable 1 (measured in simulator): ping RTT (ms)\n%8s" "";
    for j = 0 to 5 do
      Printf.printf "%9s" Topology.paper_regions.(j).Topology.short
    done;
    print_newline ();
    for i = 0 to 5 do
      Printf.printf "%-8s" Topology.paper_regions.(i).Topology.name;
      for j = 0 to 5 do
        Printf.printf "%9.1f" rtt.(i).(j)
      done;
      print_newline ()
    done;
    Printf.printf "\nTable 1 (measured in simulator): bulk throughput (Mbit/s)\n%8s" "";
    for j = 0 to 5 do
      Printf.printf "%9s" Topology.paper_regions.(j).Topology.short
    done;
    print_newline ();
    for i = 0 to 5 do
      Printf.printf "%-8s" Topology.paper_regions.(i).Topology.name;
      for j = 0 to 5 do
        Printf.printf "%9.0f" bw.(i).(j)
      done;
      print_newline ()
    done

  let print () =
    print_configured ();
    print_measured ()
end

(* -- Table 2: normal-case message complexity per consensus decision -------- *)
module Table2 = struct
  (* The paper states asymptotic counts for a system of z clusters of n
     replicas; we measure actual messages per decision in a fault-free
     run and print them next to the paper's formulas. *)

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

  let scenarios ?(windows = default_windows) ?(cfg = Config.make ~z:4 ~n:7 ()) () =
    List.map (fun p -> Scenario.make ~windows p cfg) all_protocols

  let rows_of_reports results =
    List.map (fun ((s : Scenario.t), report) -> (s.Scenario.proto, report)) results

  let print ?(cfg = Config.make ~z:4 ~n:7 ()) rows =
    let z = cfg.Config.z and n = cfg.Config.n in
    let f = Config.f cfg in
    Printf.printf
      "\nTable 2: measured messages per consensus decision (z=%d, n=%d, f=%d)\n" z n f;
    Printf.printf "%-10s %15s %15s   %-22s %s\n" "protocol" "local/decision" "global/decision"
      "paper (local)" "paper (global)";
    List.iter
      (fun (p, (r : Report.t)) ->
        let fl, fg = formula ~z ~n ~f p in
        Printf.printf "%-10s %15.1f %15.1f   %-22s %s\n" (proto_name p)
          (Report.local_msgs_per_decision r)
          (Report.global_msgs_per_decision r)
          fl fg)
      rows
end
