(* Deployment topology: regions, the latency/bandwidth matrix between
   them, and the region placement of every simulated node.

   The calibration data is Table 1 of the paper: real ping round-trip
   times and iperf bandwidths measured between Google Cloud n1 machines
   in six regions.  These numbers are the ground truth our simulated WAN
   reproduces (the `table1` bench prints this matrix and a measured
   in-simulator probe next to it). *)

type region = { name : string; short : string }

let oregon = { name = "Oregon"; short = "O" }
let iowa = { name = "Iowa"; short = "I" }
let montreal = { name = "Montreal"; short = "M" }
let belgium = { name = "Belgium"; short = "B" }
let taiwan = { name = "Taiwan"; short = "T" }
let sydney = { name = "Sydney"; short = "S" }

(* The paper's region order: experiments add regions in this sequence
   (§4: "we select regions in the order Oregon, Iowa, Montreal,
   Belgium, Taiwan, and Sydney"). *)
let paper_regions = [| oregon; iowa; montreal; belgium; taiwan; sydney |]

(* Table 1, ping round-trip times in ms.  Intra-region RTT is "<= 1";
   we use 0.5 ms.  The matrix is symmetric. *)
let paper_rtt_ms =
  [|
    (*            O      I      M      B      T      S   *)
    (* O *) [| 0.5; 38.0; 65.0; 136.0; 118.0; 161.0 |];
    (* I *) [| 38.0; 0.5; 33.0; 98.0; 153.0; 172.0 |];
    (* M *) [| 65.0; 33.0; 0.5; 82.0; 186.0; 202.0 |];
    (* B *) [| 136.0; 98.0; 82.0; 0.5; 252.0; 270.0 |];
    (* T *) [| 118.0; 153.0; 186.0; 252.0; 0.5; 137.0 |];
    (* S *) [| 161.0; 172.0; 202.0; 270.0; 137.0; 0.5 |];
  |]

(* Table 1, bandwidth in Mbit/s (symmetric). *)
let paper_bw_mbps =
  [|
    (*            O        I       M       B       T       S  *)
    (* O *) [| 7998.0; 669.0; 371.0; 194.0; 188.0; 136.0 |];
    (* I *) [| 669.0; 10004.0; 752.0; 243.0; 144.0; 120.0 |];
    (* M *) [| 371.0; 752.0; 7977.0; 283.0; 111.0; 102.0 |];
    (* B *) [| 194.0; 243.0; 283.0; 9728.0; 79.0; 66.0 |];
    (* T *) [| 188.0; 144.0; 111.0; 79.0; 7998.0; 160.0 |];
    (* S *) [| 136.0; 120.0; 102.0; 66.0; 160.0; 7977.0 |];
  |]

type t = {
  regions : region array;
  rtt_ms : float array array;      (* indexed by region *)
  bw_mbps : float array array;
  node_region : int array;         (* region index of every node id *)
}

let n_nodes t = Array.length t.node_region
let n_regions t = Array.length t.regions
let region_of t node = t.node_region.(node)
let same_region t a b = t.node_region.(a) = t.node_region.(b)

let rtt_ms t ~a ~b = t.rtt_ms.(t.node_region.(a)).(t.node_region.(b))
let bw_mbps t ~a ~b = t.bw_mbps.(t.node_region.(a)).(t.node_region.(b))
let region_one_way_ms t ~ra ~rb = t.rtt_ms.(ra).(rb) /. 2.0
let region_bw_mbps t ~ra ~rb = t.bw_mbps.(ra).(rb)

(* The smallest one-way latency between two distinct regions: the
   conservative-DES lookahead for cluster-per-region sharding (no
   cross-region message can arrive sooner than this after its send).
   [infinity] for single-region topologies (no cross-region traffic to
   bound). *)
let min_cross_region_one_way_ms t =
  let r = n_regions t in
  let m = ref infinity in
  for i = 0 to r - 1 do
    for j = 0 to r - 1 do
      if i <> j && t.rtt_ms.(i).(j) /. 2.0 < !m then m := t.rtt_ms.(i).(j) /. 2.0
    done
  done;
  !m

(* Beyond the paper's six regions the matrix tiles (the z=30+ scaling
   axis): region [i] inherits paper region [i mod 6]'s Table 1 row, and
   two *distinct* regions mapped to the same paper slot behave as
   nearby datacenters of that geography — [tile_rtt_ms] apart at
   intra-continent bandwidth — rather than collapsing into one region
   (cross-region latency must stay positive: it is the conservative
   engine's lookahead). *)
let tile_rtt_ms = 10.0
let tile_bw_mbps = 1_000.0

(* Build a topology over the first [n_regions] paper regions (tiled
   beyond six) with a caller-supplied node placement. *)
let of_paper ~n_regions ~node_region =
  if n_regions < 1 then invalid_arg "Topology.of_paper: n_regions must be >= 1";
  Array.iter
    (fun r ->
      if r < 0 || r >= n_regions then invalid_arg "Topology.of_paper: node region out of range")
    node_region;
  let base = Array.length paper_regions in
  if n_regions <= base then
    let slice m = Array.init n_regions (fun i -> Array.sub m.(i) 0 n_regions) in
    {
      regions = Array.sub paper_regions 0 n_regions;
      rtt_ms = slice paper_rtt_ms;
      bw_mbps = slice paper_bw_mbps;
      node_region;
    }
  else
    let regions =
      Array.init n_regions (fun i ->
          let p = paper_regions.(i mod base) in
          if i < base then p
          else
            {
              name = Printf.sprintf "%s-%d" p.name (i / base);
              short = Printf.sprintf "%s%d" p.short (i / base);
            })
    in
    let tiled paper same i j =
      if i = j then paper.(i mod base).(i mod base)
      else if i mod base = j mod base then same
      else paper.(i mod base).(j mod base)
    in
    {
      regions;
      rtt_ms =
        Array.init n_regions (fun i ->
            Array.init n_regions (fun j -> tiled paper_rtt_ms tile_rtt_ms i j));
      bw_mbps =
        Array.init n_regions (fun i ->
            Array.init n_regions (fun j -> tiled paper_bw_mbps tile_bw_mbps i j));
      node_region;
    }

(* Standard placement used by the experiments: [z] clusters of [n]
   replicas each, cluster [c] entirely inside region [c], plus one
   client-group node per cluster co-located with its cluster.  Node ids:
   replicas first ([c * n + i]), then client nodes ([z*n + c]). *)
let clustered ~z ~n =
  let node_region = Array.init ((z * n) + z) (fun id -> if id < z * n then id / n else id - (z * n)) in
  of_paper ~n_regions:z ~node_region

(* A custom synthetic topology (uniform latency/bandwidth), for tests
   and for deployments that do not follow the paper's six regions. *)
let uniform ~n_regions ~rtt_ms:r ~bw_mbps:b ~local_rtt_ms ~local_bw_mbps ~node_region =
  {
    regions = Array.init n_regions (fun i -> { name = Printf.sprintf "R%d" i; short = string_of_int i });
    rtt_ms =
      Array.init n_regions (fun i ->
          Array.init n_regions (fun j -> if i = j then local_rtt_ms else r));
    bw_mbps =
      Array.init n_regions (fun i ->
          Array.init n_regions (fun j -> if i = j then local_bw_mbps else b));
    node_region;
  }
