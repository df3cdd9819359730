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
   input).  [knobs] below is the only list of Config fields: it spells
   each one in the id and in the JSON [config] object that [to_json]
   writes for the sweep documents. *)

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
  | Primary_failure          (* the initial primary crashes at warmup + 2 s *)
  | Chaos of int             (* seeded fault timeline + invariant monitor;
                                a negative seed means "use cfg.seed" *)

(* Compact spelling used in ids. *)
let fault_id = function
  | No_fault -> "none"
  | One_nonprimary -> "one"
  | F_nonprimary -> "f"
  | Primary_failure -> "primary"
  | Chaos s -> if s < 0 then "chaos" else Printf.sprintf "chaos:%d" s

let fault_of_id s =
  match String.lowercase_ascii s with
  | "none" -> Some No_fault
  | "one" -> Some One_nonprimary
  | "f" -> Some F_nonprimary
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

(* -- the knob table ---------------------------------------------------------- *)

let fmt_f = Json.float_to_string

(* How a knob's value is spelled: in the id after its token and [sep],
   and in JSON, where a cost is nested under "costs".  A flag is its
   bare token when set. *)
type 'a kind = {
  sep : string;
  show : 'a -> string;
  parse : string -> 'a option;
  json : 'a -> Json.t;
  cost : bool;
}

let kind ?(sep = "=") show parse json = { sep; show; parse; json; cost = false }
let int = kind string_of_int int_of_string_opt (fun v -> Json.Int v)
let float = kind fmt_f float_of_string_opt (fun v -> Json.Float v)
let flag = kind ~sep:"" (fun _ -> "") (function "" -> Some true | _ -> None) (fun v -> Json.Bool v)

let storage =
  kind Config.storage_name Config.storage_of_string (fun v -> Json.String (Config.storage_name v))

(* One Config knob: its id token, its JSON key and how to read and
   write it.  A header knob is glued to its token in every id ([z4]);
   the others appear only when they differ from Config.default, as
   [token=value]. *)
type knob =
  | Knob : {
      token : string;
      key : string;
      header : bool;
      kind : 'a kind;
      get : Config.t -> 'a;
      set : Config.t -> 'a -> Config.t;
    }
      -> knob

let knob ?(header = false) token key kind get set = Knob { token; key; header; kind; get; set }

let cost token key get set =
  knob ("cost." ^ token) key { float with cost = true }
    (fun c -> get c.Config.costs)
    (fun c v -> { c with Config.costs = set c.Config.costs v })

(* Every Config knob, in the order of the JSON config object; the id
   prints the header knobs in this order, then the changed others. *)
let knobs =
  Config.
    [
      knob ~header:true "z" "z" int (fun c -> c.z) (fun c v -> { c with z = v });
      knob ~header:true "n" "n" int (fun c -> c.n) (fun c v -> { c with n = v });
      knob ~header:true "b" "batch_size" int
        (fun c -> c.batch_size)
        (fun c v -> { c with batch_size = v });
      knob "ckpt" "checkpoint_interval" int
        (fun c -> c.checkpoint_interval)
        (fun c v -> { c with checkpoint_interval = v });
      knob "pd" "pipeline_depth" int
        (fun c -> c.pipeline_depth)
        (fun c v -> { c with pipeline_depth = v });
      knob "ltms" "local_timeout_ms" float
        (fun c -> c.local_timeout_ms)
        (fun c v -> { c with local_timeout_ms = v });
      knob "rtms" "remote_timeout_ms" float
        (fun c -> c.remote_timeout_ms)
        (fun c v -> { c with remote_timeout_ms = v });
      knob ~header:true "i" "client_inflight" int
        (fun c -> c.client_inflight)
        (fun c v -> { c with client_inflight = v });
      knob "ctms" "client_timeout_ms" float
        (fun c -> c.client_timeout_ms)
        (fun c v -> { c with client_timeout_ms = v });
      knob "clients" "clients" int (fun c -> c.clients) (fun c v -> { c with clients = v });
      knob "wan" "wan_egress_mbps" float
        (fun c -> c.wan_egress_mbps)
        (fun c v -> { c with wan_egress_mbps = v });
      knob "fanout" "geobft_fanout" int
        (fun c -> c.geobft_fanout)
        (fun c v -> { c with geobft_fanout = v });
      knob "tcerts" "threshold_certs" flag
        (fun c -> c.threshold_certs)
        (fun c v -> { c with threshold_certs = v });
      knob "reads" "read_fraction" float
        (fun c -> c.read_fraction)
        (fun c v -> { c with read_fraction = v });
      knob "scans" "scan_fraction" float
        (fun c -> c.scan_fraction)
        (fun c v -> { c with scan_fraction = v });
      knob "storage" "storage" storage (fun c -> c.storage) (fun c v -> { c with storage = v });
      cost "sign" "sign_us" (fun k -> k.sign_us) (fun k v -> { k with sign_us = v });
      cost "verify" "verify_us" (fun k -> k.verify_us) (fun k v -> { k with verify_us = v });
      cost "mac" "mac_us" (fun k -> k.mac_us) (fun k v -> { k with mac_us = v });
      cost "hashkb" "hash_us_per_kb"
        (fun k -> k.hash_us_per_kb)
        (fun k v -> { k with hash_us_per_kb = v });
      cost "exec" "exec_us_per_txn"
        (fun k -> k.exec_us_per_txn)
        (fun k v -> { k with exec_us_per_txn = v });
      cost "asm" "batch_asm_us" (fun k -> k.batch_asm_us) (fun k v -> { k with batch_asm_us = v });
      cost "tpart" "threshold_partial_us"
        (fun k -> k.threshold_partial_us)
        (fun k v -> { k with threshold_partial_us = v });
      cost "tcomb" "threshold_combine_us"
        (fun k -> k.threshold_combine_us)
        (fun k v -> { k with threshold_combine_us = v });
      knob ~header:true "seed" "seed" int (fun c -> c.seed) (fun c v -> { c with seed = v });
    ]

(* [Some rest] when [tok] is [prefix ^ rest]. *)
let after prefix tok =
  if String.starts_with ~prefix tok then
    Some (String.sub tok (String.length prefix) (String.length tok - String.length prefix))
  else None

let prefix (Knob k) = if k.header then k.token else k.token ^ k.kind.sep
let spell cfg (Knob k as kn) = prefix kn ^ k.kind.show (k.get cfg)

(* The knob's token and [cfg] with the knob set from [tok], if [tok] spells it. *)
let read cfg tok (Knob k as kn) =
  Option.map (fun v -> (k.token, k.set cfg v)) (Option.bind (after (prefix kn) tok) k.kind.parse)

(* -- the id ------------------------------------------------------------- *)

(* Drop the ".0" float_to_string puts on integral values: ids read
   better as w1000+4000 than w1000.0+4000.0. *)
let fmt_ms t =
  let f = Time.to_ms_f t in
  let s = fmt_f f in
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f else s

let to_string t =
  let header, others = List.partition (fun (Knob k) -> k.header) knobs in
  let changed (Knob k) = k.get t.cfg <> k.get Config.default in
  String.concat " "
    ((String.lowercase_ascii (proto_name t.proto) :: List.map (spell t.cfg) header)
    @ [ Printf.sprintf "w%s+%s" (fmt_ms t.windows.warmup) (fmt_ms t.windows.measure) ]
    @ (if t.fault <> No_fault then [ "fault=" ^ fault_id t.fault ] else [])
    @ (match t.attack with None -> [] | Some a -> [ "attack=" ^ Adversary.Attack.to_id a ])
    @ (if t.trace then [ "trace" ] else [])
    @ List.map (spell t.cfg) (List.filter changed others))

(* Each token sets one thing, named by the first component of its
   result; a second token for the same thing makes the id invalid. *)
let of_string s =
  let ( let* ) = Option.bind in
  let token t tok =
    match (tok, after "fault=" tok, after "attack=" tok, after "w" tok) with
    | "trace", _, _, _ -> Some ("trace", { t with trace = true })
    | _, Some f, _, _ ->
        let* fault = fault_of_id f in
        Some ("fault", { t with fault })
    | _, _, Some a, _ ->
        let* a = Adversary.Attack.of_id a in
        Some ("attack", { t with attack = (if a = Adversary.Attack.empty then None else Some a) })
    | _, _, _, Some w when String.contains w '+' -> (
        match String.split_on_char '+' w with
        | [ wu; me ] ->
            let* wu = float_of_string_opt wu in
            let* me = float_of_string_opt me in
            Some ("w", { t with windows = { warmup = Time.of_ms_f wu; measure = Time.of_ms_f me } })
        | _ -> None)
    | _ -> Option.map (fun (k, cfg) -> (k, { t with cfg })) (List.find_map (read t.cfg tok) knobs)
  in
  let step acc tok =
    let* seen, t = acc in
    let* key, t = token t tok in
    if List.mem key seen then None else Some (key :: seen, t)
  in
  match String.split_on_char ' ' s |> List.filter (fun t -> t <> "") with
  | [] -> None
  | proto :: tokens ->
      let* proto = proto_of_string proto in
      Option.map snd (List.fold_left step (Some ([], make proto Config.default)) tokens)

(* -- JSON round-trip ----------------------------------------------------- *)

(* v2 added the optional "attack" field (absent when None); v3 added
   the workload-mix and storage config fields (read_fraction,
   scan_fraction, storage); v4 added the aggregated client population
   ("clients"). *)
let schema_version = 4

(* The knobs in table order, the costs gathered into one "costs"
   object where the first of them stands. *)
let json_of_config (c : Config.t) : Json.t =
  let field (Knob k) = (k.key, k.kind.json (k.get c)) in
  let is_cost (Knob k) = k.kind.cost in
  let rec fields = function
    | [] -> []
    | kn :: _ as ks when is_cost kn ->
        ("costs", Json.Obj (List.map field (List.filter is_cost ks)))
        :: fields (List.filter (fun kn -> not (is_cost kn)) ks)
    | kn :: ks -> field kn :: fields ks
  in
  Json.Obj (fields knobs)

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
