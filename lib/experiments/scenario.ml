(* A first-class experiment scenario: everything one simulated
   deployment run depends on — protocol, configuration, fault,
   measurement windows, trace option — as a single value with a stable
   human-readable id, which is also its only decoder.

   The id doubles as the key of bench baselines and sweep documents:
   it spells out the swept knobs (protocol, z, n, batch, inflight,
   seed, windows) and appends any Config field that differs from
   Config.default, so distinct scenarios get distinct ids and the
   common ones stay short:

     geobft z4 n7 b100 i64 seed1 w1000+4000
     pbft z2 n4 b50 i16 seed1 w500+1500 fault=chaos:3
     geobft z4 n7 b100 i64 seed1 w1000+4000 fanout=1 trace

   [of_string] inverts [to_string] exactly (token order is free on
   input), and every Config field has a token.  [to_json] spells every
   field out for the sweep documents that embed it. *)

module Config = Rdb_types.Config
module Time = Rdb_sim.Time
module Json = Rdb_fabric.Json
module Adversary = Rdb_adversary.Adversary

type proto = Geobft | Pbft | Zyzzyva | Hotstuff | Steward

let all_protocols = [ Geobft; Pbft; Zyzzyva; Hotstuff; Steward ]

let proto_name = function
  | Geobft -> "GeoBFT"
  | Pbft -> "Pbft"
  | Zyzzyva -> "Zyzzyva"
  | Hotstuff -> "HotStuff"
  | Steward -> "Steward"

let proto_of_string s =
  match String.lowercase_ascii s with
  | "geobft" -> Some Geobft
  | "pbft" -> Some Pbft
  | "zyzzyva" -> Some Zyzzyva
  | "hotstuff" -> Some Hotstuff
  | "steward" -> Some Steward
  | _ -> None

(* The failure scenarios of §4.3, plus seeded chaos injection. *)
type fault =
  | No_fault
  | One_nonprimary           (* one backup crashed from the start *)
  | F_nonprimary             (* f backups per cluster crashed from the start *)
  | Primary_failure          (* the (initial) primary crashes mid-run *)
  | Chaos of int             (* seeded fault timeline + invariant monitor;
                                a negative seed means "use cfg.seed" *)

let fault_name = function
  | No_fault -> "none"
  | One_nonprimary -> "one non-primary"
  | F_nonprimary -> "f non-primary per cluster"
  | Primary_failure -> "primary"
  | Chaos s -> if s < 0 then "chaos" else Printf.sprintf "chaos (seed %d)" s

(* Compact spelling used in ids and on the CLI. *)
let fault_id = function
  | No_fault -> "none"
  | One_nonprimary -> "one"
  | F_nonprimary -> "f"
  | Primary_failure -> "primary"
  | Chaos s -> if s < 0 then "chaos" else Printf.sprintf "chaos:%d" s

let fault_of_id s =
  match String.lowercase_ascii s with
  | "none" -> Some No_fault
  | "one" | "one-nonprimary" -> Some One_nonprimary
  | "f" | "f-nonprimary" -> Some F_nonprimary
  | "primary" -> Some Primary_failure
  | "chaos" -> Some (Chaos (-1))
  | s when String.length s > 6 && String.sub s 0 6 = "chaos:" -> (
      match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
      | Some seed when seed >= 0 -> Some (Chaos seed)
      | _ -> None)
  | _ -> None

(* Simulated measurement windows.  The paper runs 60 s + 120 s on the
   cloud; a deterministic simulator needs less: throughput is stable
   within a few seconds once pipelines fill. *)
type windows = { warmup : Time.t; measure : Time.t }

let default_windows = { warmup = Time.sec 1; measure = Time.sec 4 }
let full_windows = { warmup = Time.sec 15; measure = Time.sec 45 }

type t = {
  proto : proto;
  cfg : Config.t;
  fault : fault;
  windows : windows;
  trace : bool;  (* aggregate a consensus-path trace; Report.trace then
                    carries the per-phase breakdown and the
                    deterministic digest *)
  attack : Adversary.Attack.t option;
      (* a Byzantine strategy program (lib/adversary) installed at the
         deployment's interposition hook; None = no adversary *)
}

let make ?(windows = default_windows) ?(fault = No_fault) ?(trace = false) ?attack proto cfg =
  { proto; cfg; fault; windows; trace; attack }

let equal (a : t) (b : t) = a = b

(* -- the id ------------------------------------------------------------- *)

let fmt_f = Json.float_to_string

(* Drop the ".0" float_to_string puts on integral values: ids read
   better as w1000+4000 than w1000.0+4000.0. *)
let fmt_ms t =
  let f = Time.to_ms_f t in
  let s = fmt_f f in
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f else s

let to_string t =
  let c = t.cfg and d = Config.default in
  let dc = d.Config.costs and cc = t.cfg.Config.costs in
  let buf = Buffer.create 64 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  add "%s z%d n%d b%d i%d seed%d w%s+%s"
    (String.lowercase_ascii (proto_name t.proto))
    c.Config.z c.Config.n c.Config.batch_size c.Config.client_inflight c.Config.seed
    (fmt_ms t.windows.warmup) (fmt_ms t.windows.measure);
  if t.fault <> No_fault then add " fault=%s" (fault_id t.fault);
  (match t.attack with
  | None -> ()
  | Some a -> add " attack=%s" (Adversary.Attack.to_id a));
  if t.trace then add " trace";
  (* Non-default knobs, fixed order so equal scenarios print equally. *)
  if c.Config.checkpoint_interval <> d.Config.checkpoint_interval then
    add " ckpt=%d" c.Config.checkpoint_interval;
  if c.Config.pipeline_depth <> d.Config.pipeline_depth then add " pd=%d" c.Config.pipeline_depth;
  if c.Config.local_timeout_ms <> d.Config.local_timeout_ms then
    add " ltms=%s" (fmt_f c.Config.local_timeout_ms);
  if c.Config.remote_timeout_ms <> d.Config.remote_timeout_ms then
    add " rtms=%s" (fmt_f c.Config.remote_timeout_ms);
  if c.Config.client_timeout_ms <> d.Config.client_timeout_ms then
    add " ctms=%s" (fmt_f c.Config.client_timeout_ms);
  if c.Config.clients <> d.Config.clients then add " clients=%d" c.Config.clients;
  if c.Config.wan_egress_mbps <> d.Config.wan_egress_mbps then
    add " wan=%s" (fmt_f c.Config.wan_egress_mbps);
  if c.Config.geobft_fanout <> d.Config.geobft_fanout then add " fanout=%d" c.Config.geobft_fanout;
  if c.Config.threshold_certs then add " tcerts";
  if c.Config.read_fraction <> d.Config.read_fraction then
    add " reads=%s" (fmt_f c.Config.read_fraction);
  if c.Config.scan_fraction <> d.Config.scan_fraction then
    add " scans=%s" (fmt_f c.Config.scan_fraction);
  if c.Config.storage <> d.Config.storage then
    add " storage=%s" (Config.storage_name c.Config.storage);
  if cc.Config.sign_us <> dc.Config.sign_us then add " cost.sign=%s" (fmt_f cc.Config.sign_us);
  if cc.Config.verify_us <> dc.Config.verify_us then
    add " cost.verify=%s" (fmt_f cc.Config.verify_us);
  if cc.Config.mac_us <> dc.Config.mac_us then add " cost.mac=%s" (fmt_f cc.Config.mac_us);
  if cc.Config.hash_us_per_kb <> dc.Config.hash_us_per_kb then
    add " cost.hashkb=%s" (fmt_f cc.Config.hash_us_per_kb);
  if cc.Config.exec_us_per_txn <> dc.Config.exec_us_per_txn then
    add " cost.exec=%s" (fmt_f cc.Config.exec_us_per_txn);
  if cc.Config.batch_asm_us <> dc.Config.batch_asm_us then
    add " cost.asm=%s" (fmt_f cc.Config.batch_asm_us);
  if cc.Config.threshold_partial_us <> dc.Config.threshold_partial_us then
    add " cost.tpart=%s" (fmt_f cc.Config.threshold_partial_us);
  if cc.Config.threshold_combine_us <> dc.Config.threshold_combine_us then
    add " cost.tcomb=%s" (fmt_f cc.Config.threshold_combine_us);
  Buffer.contents buf

let of_string s =
  let ( let* ) = Option.bind in
  let tokens = String.split_on_char ' ' s |> List.filter (fun t -> t <> "") in
  match tokens with
  | [] -> None
  | proto_tok :: rest ->
      let* proto = proto_of_string proto_tok in
      let prefixed prefix tok =
        let lp = String.length prefix in
        if String.length tok > lp && String.sub tok 0 lp = prefix then
          Some (String.sub tok lp (String.length tok - lp))
        else None
      in
      let int_field prefix tok = Option.bind (prefixed prefix tok) int_of_string_opt in
      let float_field prefix tok = Option.bind (prefixed prefix tok) float_of_string_opt in
      let rec go acc = function
        | [] -> Some acc
        | tok :: rest -> (
            let t, cfg, w = acc in
            let c k = Some ((t, k, w) : t * Config.t * windows) in
            let costs k = c { cfg with Config.costs = k } in
            let next =
              match tok with
              | "trace" -> Some (({ t with trace = true } : t), cfg, w)
              | "tcerts" -> c { cfg with Config.threshold_certs = true }
              | tok when prefixed "fault=" tok <> None ->
                  let* f = Option.bind (prefixed "fault=" tok) fault_of_id in
                  Some ({ t with fault = f }, cfg, w)
              | tok when prefixed "attack=" tok <> None ->
                  let* a = Option.bind (prefixed "attack=" tok) Adversary.Attack.of_id in
                  let attack = if a = Adversary.Attack.empty then None else Some a in
                  Some ({ t with attack }, cfg, w)
              | tok when prefixed "w" tok <> None && String.contains tok '+' -> (
                  let* body = prefixed "w" tok in
                  match String.split_on_char '+' body with
                  | [ wu; me ] ->
                      let* wu = float_of_string_opt wu in
                      let* me = float_of_string_opt me in
                      Some (t, cfg, { warmup = Time.of_ms_f wu; measure = Time.of_ms_f me })
                  | _ -> None)
              | tok when int_field "seed" tok <> None ->
                  let* v = int_field "seed" tok in
                  c { cfg with Config.seed = v }
              | tok when int_field "ckpt=" tok <> None ->
                  let* v = int_field "ckpt=" tok in
                  c { cfg with Config.checkpoint_interval = v }
              | tok when int_field "pd=" tok <> None ->
                  let* v = int_field "pd=" tok in
                  c { cfg with Config.pipeline_depth = v }
              | tok when int_field "fanout=" tok <> None ->
                  let* v = int_field "fanout=" tok in
                  c { cfg with Config.geobft_fanout = v }
              | tok when float_field "ltms=" tok <> None ->
                  let* v = float_field "ltms=" tok in
                  c { cfg with Config.local_timeout_ms = v }
              | tok when float_field "rtms=" tok <> None ->
                  let* v = float_field "rtms=" tok in
                  c { cfg with Config.remote_timeout_ms = v }
              | tok when float_field "ctms=" tok <> None ->
                  let* v = float_field "ctms=" tok in
                  c { cfg with Config.client_timeout_ms = v }
              | tok when int_field "clients=" tok <> None ->
                  let* v = int_field "clients=" tok in
                  c { cfg with Config.clients = v }
              | tok when float_field "wan=" tok <> None ->
                  let* v = float_field "wan=" tok in
                  c { cfg with Config.wan_egress_mbps = v }
              | tok when float_field "reads=" tok <> None ->
                  let* v = float_field "reads=" tok in
                  c { cfg with Config.read_fraction = v }
              | tok when float_field "scans=" tok <> None ->
                  let* v = float_field "scans=" tok in
                  c { cfg with Config.scan_fraction = v }
              | tok when prefixed "storage=" tok <> None ->
                  let* v = Option.bind (prefixed "storage=" tok) Config.storage_of_string in
                  c { cfg with Config.storage = v }
              | tok when float_field "cost.sign=" tok <> None ->
                  let* v = float_field "cost.sign=" tok in
                  costs { cfg.Config.costs with Config.sign_us = v }
              | tok when float_field "cost.verify=" tok <> None ->
                  let* v = float_field "cost.verify=" tok in
                  costs { cfg.Config.costs with Config.verify_us = v }
              | tok when float_field "cost.mac=" tok <> None ->
                  let* v = float_field "cost.mac=" tok in
                  costs { cfg.Config.costs with Config.mac_us = v }
              | tok when float_field "cost.hashkb=" tok <> None ->
                  let* v = float_field "cost.hashkb=" tok in
                  costs { cfg.Config.costs with Config.hash_us_per_kb = v }
              | tok when float_field "cost.exec=" tok <> None ->
                  let* v = float_field "cost.exec=" tok in
                  costs { cfg.Config.costs with Config.exec_us_per_txn = v }
              | tok when float_field "cost.asm=" tok <> None ->
                  let* v = float_field "cost.asm=" tok in
                  costs { cfg.Config.costs with Config.batch_asm_us = v }
              | tok when float_field "cost.tpart=" tok <> None ->
                  let* v = float_field "cost.tpart=" tok in
                  costs { cfg.Config.costs with Config.threshold_partial_us = v }
              | tok when float_field "cost.tcomb=" tok <> None ->
                  let* v = float_field "cost.tcomb=" tok in
                  costs { cfg.Config.costs with Config.threshold_combine_us = v }
              | tok when int_field "z" tok <> None ->
                  let* v = int_field "z" tok in
                  c { cfg with Config.z = v }
              | tok when int_field "n" tok <> None ->
                  let* v = int_field "n" tok in
                  c { cfg with Config.n = v }
              | tok when int_field "b" tok <> None ->
                  let* v = int_field "b" tok in
                  c { cfg with Config.batch_size = v }
              | tok when int_field "i" tok <> None ->
                  let* v = int_field "i" tok in
                  c { cfg with Config.client_inflight = v }
              | _ -> None
            in
            match next with
            | Some (t, cfg, w) -> go (t, cfg, w) rest
            | None -> None)
      in
      let seed = { proto; cfg = Config.default; fault = No_fault; windows = default_windows;
                   trace = false; attack = None } in
      let* t, cfg, windows = go (seed, Config.default, default_windows) rest in
      Some { t with cfg; windows }

(* -- JSON round-trip ----------------------------------------------------- *)

(* v2 added the optional "attack" field (absent when None); v3 added
   the workload-mix and storage config fields (read_fraction,
   scan_fraction, storage); v4 added the aggregated client population
   ("clients") — absent fields default, so older documents still
   load. *)
let schema_version = 4

let json_of_costs (c : Config.costs) : Json.t =
  Json.Obj
    [
      ("sign_us", Json.Float c.Config.sign_us);
      ("verify_us", Json.Float c.Config.verify_us);
      ("mac_us", Json.Float c.Config.mac_us);
      ("hash_us_per_kb", Json.Float c.Config.hash_us_per_kb);
      ("exec_us_per_txn", Json.Float c.Config.exec_us_per_txn);
      ("batch_asm_us", Json.Float c.Config.batch_asm_us);
      ("threshold_partial_us", Json.Float c.Config.threshold_partial_us);
      ("threshold_combine_us", Json.Float c.Config.threshold_combine_us);
    ]

let json_of_config (c : Config.t) : Json.t =
  Json.Obj
    [
      ("z", Json.Int c.Config.z);
      ("n", Json.Int c.Config.n);
      ("batch_size", Json.Int c.Config.batch_size);
      ("checkpoint_interval", Json.Int c.Config.checkpoint_interval);
      ("pipeline_depth", Json.Int c.Config.pipeline_depth);
      ("local_timeout_ms", Json.Float c.Config.local_timeout_ms);
      ("remote_timeout_ms", Json.Float c.Config.remote_timeout_ms);
      ("client_inflight", Json.Int c.Config.client_inflight);
      ("client_timeout_ms", Json.Float c.Config.client_timeout_ms);
      ("clients", Json.Int c.Config.clients);
      ("wan_egress_mbps", Json.Float c.Config.wan_egress_mbps);
      ("geobft_fanout", Json.Int c.Config.geobft_fanout);
      ("threshold_certs", Json.Bool c.Config.threshold_certs);
      ("read_fraction", Json.Float c.Config.read_fraction);
      ("scan_fraction", Json.Float c.Config.scan_fraction);
      ("storage", Json.String (Config.storage_name c.Config.storage));
      ("costs", json_of_costs c.Config.costs);
      ("seed", Json.Int c.Config.seed);
    ]

let to_json t : Json.t =
  Json.Obj
    ([
       ("schema_version", Json.Int schema_version);
       ("id", Json.String (to_string t));
       ("proto", Json.String (String.lowercase_ascii (proto_name t.proto)));
       ("fault", Json.String (fault_id t.fault));
     ]
    @ (match t.attack with
      | None -> []
      | Some a -> [ ("attack", Adversary.Attack.to_json a) ])
    @ [
        ( "windows",
          Json.Obj
            [
              ("warmup_ms", Json.Float (Time.to_ms_f t.windows.warmup));
              ("measure_ms", Json.Float (Time.to_ms_f t.windows.measure));
            ] );
        ("trace", Json.Bool t.trace);
        ("config", json_of_config t.cfg);
      ])

let to_json_string t = Json.to_string_compact (to_json t)

(* Relative single-domain cost of simulating a scenario — used by the
   sweep engine to dispatch long runs first (pure load-balance
   heuristic; result order never depends on it).  Message work grows
   ~ z·n² (local all-to-all per cluster) and linearly with simulated
   time. *)
let cost_estimate t =
  let c = t.cfg in
  let zn2 = float_of_int (c.Config.z * c.Config.n * c.Config.n) in
  let horizon = Time.to_sec_f (Time.add t.windows.warmup t.windows.measure) in
  (* Aggregated client groups widen the outstanding-batch window, and
     with it the message volume, roughly linearly. *)
  let load =
    float_of_int (Config.group_inflight c ~cluster:0)
    /. float_of_int (max 1 c.Config.client_inflight)
  in
  zn2 *. horizon *. load
