(* Counterexample search (DESIGN.md §13, §14): one explore loop, one
   shrinker, one artifact codec and one replay, with two instances —
   [schedules] perturbs the schedule, [attacks] installs Byzantine
   strategy programs from lib/adversary.

   Every run is watched by the same invariant oracle:

   - the chaos safety monitor (prefix agreement, monotone execution,
     no duplicate execution, liveness) from lib/chaos, reused with an
     empty fault timeline;
   - certificate invariants scanned over every replica ledger at end
     of run: quorum-many distinct signers per commit certificate, and
     no two conflicting certificates for one (cluster, round) anywhere
     in the deployment — GeoBFT's one-certificate-per-cluster-per-round;
   - the quorum-evidence extractor (Rdb_types.Evidence): any protocol
     decision taken on less support than the unmutated configuration
     demands;
   - an execution-frontier check (fault-free runs only): no replica
     may sit still across the second half of the measurement window
     while the rest of the deployment keeps executing.

   On a violation, a ddmin shrinker minimizes the attempt's items
   (perturbations or attack rules) to a 1-minimal failing list and the
   result is serialized as a replayable JSON artifact.

   Runs are strictly sequential: the mutation/evidence hooks are plain
   globals, so the searches never use the multicore sweep engine. *)

module Scenario = Rdb_experiments.Scenario
module Runner = Rdb_experiments.Runner
module Adversary = Rdb_adversary.Adversary
module Chaos = Rdb_chaos.Chaos
module Ledger = Rdb_ledger.Ledger
module Block = Rdb_ledger.Block
module Certificate = Rdb_types.Certificate
module Config = Rdb_types.Config
module Mutation = Rdb_types.Mutation
module Evidence = Rdb_types.Evidence
module Engine = Rdb_sim.Engine
module Time = Rdb_sim.Time
module Rng = Rdb_prng.Rng
module Json = Rdb_fabric.Json
module Report = Rdb_fabric.Report

type violation = Chaos.violation = { at : Time.t; invariant : string; detail : string }

let violation_to_string = Chaos.violation_to_string

(* -- certificate invariants ----------------------------------------------- *)

(* Expected certificate quorum per protocol; None when the protocol's
   ledger carries no certificates ([cert = None] blocks). *)
let cert_quorum (s : Scenario.t) =
  let cfg = s.Scenario.cfg in
  match s.Scenario.proto with
  | Scenario.Geobft -> Some (Config.quorum cfg)
  | Scenario.Pbft ->
      (* Standalone Pbft runs one flat group over all z*n replicas. *)
      let nn = cfg.Config.z * cfg.Config.n in
      Some (nn - ((nn - 1) / 3))
  | Scenario.Zyzzyva | Scenario.Hotstuff | Scenario.Steward -> None

let scan_certificates (s : Scenario.t) (surface : Chaos.surface) : violation option =
  let quorum = cert_quorum s in
  let n_replicas = surface.Chaos.z * surface.Chaos.n in
  let seen : (int * int, string) Hashtbl.t = Hashtbl.create 256 in
  let found = ref None in
  let record inv detail =
    if !found = None then found := Some { at = surface.Chaos.now (); invariant = inv; detail }
  in
  (try
     for r = 0 to n_replicas - 1 do
       let led = surface.Chaos.ledger r in
       for h = 0 to Ledger.length led - 1 do
         match (Ledger.get led h).Block.cert with
         | None -> ()
         | Some c ->
             (match quorum with
             | Some q when Certificate.n_signatures c < q ->
                 record "certificate-quorum"
                   (Printf.sprintf
                      "replica %d height %d: certificate for (cluster %d, round %d) carries %d \
                       signatures, quorum is %d"
                      r h c.Certificate.cluster c.Certificate.seq (Certificate.n_signatures c) q)
             | _ -> ());
             if not (Certificate.distinct_signers c) then
               record "certificate-signers"
                 (Printf.sprintf
                    "replica %d height %d: certificate for (cluster %d, round %d) has duplicate \
                     signers"
                    r h c.Certificate.cluster c.Certificate.seq);
             let key = (c.Certificate.cluster, c.Certificate.seq) in
             (match Hashtbl.find_opt seen key with
             | Some d when not (String.equal d c.Certificate.digest) ->
                 record "conflicting-certificates"
                   (Printf.sprintf
                      "two certificates for (cluster %d, round %d) endorse different digests"
                      c.Certificate.cluster c.Certificate.seq)
             | Some _ -> ()
             | None -> Hashtbl.replace seen key c.Certificate.digest);
             if !found <> None then raise Exit
       done
     done
   with Exit -> ());
  !found

(* -- execution frontier --------------------------------------------------- *)

(* In a fault-free run every correct replica must keep executing: once
   the deployment has demonstrably worked ([min_global_total] blocks
   executed somewhere), no replica may sit still across the entire
   second half of the measurement window — that is a starved replica
   (e.g. a primary whose shares are systematically rejected) or a
   deployment-wide pipeline stall, not slow start.  Perturbation delays
   are capped well below the half-window, so a delayed-but-correct
   replica always lands some block in it.  Skipped under a fault or an
   attack: those starve replicas on purpose, inside the envelope. *)
let min_global_total = 8

let frontier_check (surface : Chaos.surface) ~mid : violation option =
  match mid with
  | None -> None
  | Some (mid_lens : int array) ->
      let n = Array.length mid_lens in
      let ends = Array.init n (fun r -> Ledger.length (surface.Chaos.ledger r)) in
      let gmax a = Array.fold_left max 0 a in
      if gmax ends < min_global_total then None
      else begin
        let stalled = ref None in
        for r = n - 1 downto 0 do
          if ends.(r) = mid_lens.(r) then stalled := Some r
        done;
        match !stalled with
        | None -> None
        | Some r ->
            Some
              {
                at = surface.Chaos.now ();
                invariant = "execution-frontier";
                detail =
                  Printf.sprintf
                    "replica %d executed nothing over the second half of the run (stuck at %d \
                     blocks) in a working deployment (max ledger %d blocks)"
                    r ends.(r) (gmax ends);
              }
      end

(* -- one run -------------------------------------------------------------- *)

type run_result = {
  violation : violation option;
  applied : Perturb.t list;
  digest : string option;
}

let run_one (s : Scenario.t) ~(hooks : Perturb.hooks) : run_result =
  Evidence.arm ();
  let surface_ref = ref None in
  let mon = ref None in
  let mid = ref None in
  let install (i : Runner.instrument) =
    let surface = i.Runner.inst_surface in
    surface_ref := Some surface;
    Engine.set_defer_hook i.Runner.inst_engine (Some hooks.Perturb.defer);
    i.Runner.inst_set_delivery_hook (Some hooks.Perturb.deliver);
    mon := Some (Chaos.monitor ~liveness_window_ms:i.Runner.inst_liveness_window_ms surface []);
    let windows = s.Scenario.windows in
    let half = Time.add windows.Scenario.warmup (windows.Scenario.measure / 2) in
    if s.Scenario.fault = Scenario.No_fault && s.Scenario.attack = None then
      surface.Chaos.at half (fun () ->
          mid :=
            Some
              (Array.init
                 (surface.Chaos.z * surface.Chaos.n)
                 (fun r -> Ledger.length (surface.Chaos.ledger r))))
  in
  let outcome =
    try Ok (Runner.run ~install s)
    with
    | Chaos.Violation msg -> Error ("chaos", msg)
    | e -> Error ("exception", Printexc.to_string e)
  in
  let evidence = Evidence.violations () in
  Evidence.disarm ();
  let surface = Option.get !surface_ref in
  let violation =
    match outcome with
    | Error (inv, detail) -> Some { at = surface.Chaos.now (); invariant = inv; detail }
    | Ok _ -> (
        (match !mon with Some m -> Chaos.check_now m | None -> ());
        match Option.bind !mon Chaos.first_violation with
        | Some v -> Some v
        | None -> (
            match evidence with
            | e :: _ ->
                Some
                  {
                    at = surface.Chaos.now ();
                    invariant = "quorum-evidence";
                    detail = Evidence.entry_to_string e;
                  }
            | [] -> (
                match scan_certificates s surface with
                | Some v -> Some v
                | None -> frontier_check surface ~mid:!mid)))
  in
  let digest =
    match outcome with
    | Ok report ->
        Option.map (fun t -> t.Rdb_trace.Trace.digest_hex) report.Report.trace
    | Error _ -> None
  in
  { violation; applied = hooks.Perturb.applied (); digest }

(* -- delta debugging ------------------------------------------------------ *)

let split_into n lst =
  let len = List.length lst in
  let base = len / n and extra = len mod n in
  let rec go i rest acc =
    if i >= n then List.rev acc
    else
      let take = base + if i < extra then 1 else 0 in
      let rec split k l pre =
        if k = 0 then (List.rev pre, l)
        else match l with [] -> (List.rev pre, []) | x :: tl -> split (k - 1) tl (x :: pre)
      in
      let chunk, rest = split take rest [] in
      go (i + 1) rest (chunk :: acc)
  in
  go 0 lst []

(* Zeller-Hildebrandt ddmin to 1-minimality: the result still fails,
   and removing any single element makes it pass. *)
let ddmin ~test items =
  let runs = ref 0 in
  let test l =
    incr runs;
    test l
  in
  let result =
    if items = [] then items
    else if test [] then []
    else begin
      let rec go current n =
        let len = List.length current in
        if len <= 1 then current
        else begin
          let chunks = split_into n current in
          match List.find_opt test chunks with
          | Some c -> go c 2
          | None -> (
              let complements =
                List.mapi (fun i _ -> List.concat (List.filteri (fun j _ -> j <> i) chunks)) chunks
              in
              match List.find_opt test complements with
              | Some c -> go c (max (n - 1) 2)
              | None -> if n < len then go current (min len (2 * n)) else current)
        end
      in
      go items 2
    end
  in
  (result, !runs)

(* -- the two searches ----------------------------------------------------- *)

type 'a search = {
  kind : string;
  command : string;
  index_key : string;
  measure : Time.t;
  mutants : (string * Scenario.t) list;
  base : Scenario.t -> Scenario.t;
  attempt : seed:int -> int -> Scenario.t -> 'a list * run_result;
  run : Scenario.t -> 'a list -> run_result;
  items_to_json : 'a list -> (string * Json.t) list;
  items_of_json : Json.t -> ('a list, string) result;
}

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "artifact: missing or malformed %S" name)

(* Small, fast deployments: the searches' power comes from schedule and
   strategy diversity, not scale. *)
let stock ~seed ~warmup ~measure (p : Scenario.proto) : Scenario.t =
  let cfg = Config.make ~z:2 ~n:4 ~batch_size:20 ~client_inflight:8 ~seed () in
  Scenario.make ~windows:{ Scenario.warmup; measure } ~trace:true p cfg

let default_scenario ?(seed = 1) ~measure p = stock ~seed ~warmup:(Time.ms 500) ~measure p

(* The weakened remote view-change honor quorum needs remote view-change
   traffic: the attack search must generate it itself.  The schedule
   checker scripts it in [rvc_window]: all of cluster 0 (cluster-wide,
   like the chaos equivocation action, so no local view change cures
   it) mutes its shares to cluster 1 over [1.5 s, 6.5 s), and cluster 1
   drives the Figure-7 remote view change. *)
let rvc_weak_scenario = stock ~seed:1 ~warmup:(Time.ms 1000) ~measure:(Time.ms 8000) Scenario.Geobft

let rvc_window =
  let mute r = Printf.sprintf "%d@1500:6500!mute.share.c1" r in
  let rules = List.init rvc_weak_scenario.Scenario.cfg.Config.n mute in
  { rvc_weak_scenario with Scenario.attack = Adversary.Attack.of_id (String.concat "+" rules) }

let schedule_rng ~seed ~schedule =
  Rng.create (Int64.of_int ((seed * 1_000_003) + schedule))

let schedules =
  let measure = Time.ms 2000 in
  let plain p = default_scenario ~measure p in
  {
    kind = "schedule";
    command = "check";
    index_key = "schedule";
    measure;
    mutants =
      [
        ("pbft-prepare-quorum", plain Scenario.Pbft);
        ("pbft-commit-quorum", plain Scenario.Pbft);
        ("zyzzyva-spec-history", plain Scenario.Zyzzyva);
        ("hotstuff-qc-quorum", plain Scenario.Hotstuff);
        ("geobft-share-stale", plain Scenario.Geobft);
        ("geobft-rvc-weak", rvc_window);
        ("steward-certify-quorum", plain Scenario.Steward);
      ];
    base = Fun.id;
    attempt =
      (fun ~seed k s ->
        let hooks =
          if k = 0 then Perturb.unperturbed
          else
            Perturb.explore
              ~rng:(schedule_rng ~seed ~schedule:k)
              ~tier:(Perturb.tier_for ~schedule:k)
        in
        let r = run_one s ~hooks in
        (r.applied, r));
    run = (fun s ps -> run_one s ~hooks:(Perturb.replay ps));
    items_to_json = (fun ps -> [ ("perturbations", Json.List (List.map Perturb.to_json ps)) ]);
    items_of_json =
      (fun j ->
        let* pjs = field "perturbations" Json.to_list j in
        List.fold_right
          (fun pj acc ->
            let* p = Perturb.of_json pj in
            let* ps = acc in
            Ok (p :: ps))
          pjs (Ok []));
  }

(* A different multiplier than {!schedule_rng} so attack streams never
   collide with schedule-perturbation streams for the same seed. *)
let attack_rng ~seed ~attempt = Rng.create (Int64.of_int ((seed * 1_000_033) + attempt))

(* Attack windows must clear well before the horizon so the oracle
   observes the protocol *after* it was supposed to heal. *)
let attack_tail_ms = 1000

let sample_attack ~seed ~attempt (s : Scenario.t) : Adversary.Attack.t =
  (* Attempt 0: the scenario's own attack if it pins one, else the
     empty program (the no-adversary baseline). *)
  if attempt = 0 then Option.value ~default:Adversary.Attack.empty s.Scenario.attack
  else
    let cfg = s.Scenario.cfg in
    let caps = Runner.adversary_profile s.Scenario.proto cfg in
    let w = s.Scenario.windows in
    let horizon_ms =
      int_of_float (Time.to_ms_f (Time.add w.Scenario.warmup w.Scenario.measure))
    in
    Adversary.sample
      ~rng:(attack_rng ~seed ~attempt)
      ~caps ~z:cfg.Config.z ~n:cfg.Config.n ~f:(Config.f cfg) ~horizon_ms
      ~tail_ms:attack_tail_ms ()

let run_attack (s : Scenario.t) (a : Adversary.Attack.t) : run_result =
  let attack = if a = Adversary.Attack.empty then None else Some a in
  run_one { s with Scenario.attack } ~hooks:Perturb.unperturbed

(* The attack search runs longer windows than the schedule checker:
   attack windows (up to 2.5 s) must open after warmup and close
   {!attack_tail_ms} before the horizon, and the horizon stays below
   every protocol's liveness window so an in-envelope adversary can
   never trip the liveness invariant.  Its mutants must be rediscovered
   from generic primitives alone; the quorum mutants fire on any
   decision path, so their 1-minimal attack is typically empty. *)
let attacks =
  let measure = Time.ms 4000 in
  let plain p = default_scenario ~measure p in
  {
    kind = "attack";
    command = "attack";
    index_key = "attempt";
    measure;
    mutants =
      [
        ("pbft-prepare-quorum", plain Scenario.Pbft);
        ("pbft-commit-quorum", plain Scenario.Pbft);
        ("hotstuff-qc-quorum", plain Scenario.Hotstuff);
        ("steward-certify-quorum", plain Scenario.Steward);
        ("geobft-rvc-weak", rvc_weak_scenario);
      ];
    base = (fun s -> { s with Scenario.attack = None });
    attempt =
      (fun ~seed k s ->
        let a = sample_attack ~seed ~attempt:k s in
        (a.Adversary.Attack.rules, run_attack s a));
    run = (fun s rules -> run_attack s { Adversary.Attack.rules });
    items_to_json =
      (fun rules ->
        let a = { Adversary.Attack.rules } in
        [
          ("attack", Adversary.Attack.to_json a);
          ("attack_id", Json.String (Adversary.Attack.to_id a));
        ]);
    items_of_json =
      (fun j ->
        let* aj = field "attack" Option.some j in
        let* a = Adversary.Attack.of_json aj in
        Ok a.Adversary.Attack.rules);
  }

let mutant_scenario search id = List.assoc_opt id search.mutants

(* -- exploration ---------------------------------------------------------- *)

type 'a counterexample = {
  scenario : Scenario.t;
  mutation : string option;
  seed : int;
  index : int;
  items : 'a list;
  violation : violation;
  digest : string option;
  runs : int;
}

let with_mutation mutation f =
  Mutation.set mutation;
  Fun.protect ~finally:(fun () -> Mutation.set None) f

let explore search ?(budget = 64) ?(seed = 1) ?mutation ?on_attempt (s : Scenario.t) =
  let runs = ref 0 in
  let run items =
    incr runs;
    search.run s items
  in
  let rec loop k =
    if k >= budget then None
    else begin
      incr runs;
      Option.iter (fun f -> f k) on_attempt;
      let items, r = search.attempt ~seed k s in
      match r.violation with
      | None -> loop (k + 1)
      | Some v ->
          let minimal, _ = ddmin ~test:(fun l -> (run l).violation <> None) items in
          (* One final replay of the minimal items: its violation and
             digest are what the artifact pins. *)
          let final = run minimal in
          Some
            {
              scenario = search.base s;
              mutation;
              seed;
              index = k;
              items = minimal;
              violation = Option.value final.violation ~default:v;
              digest = final.digest;
              runs = !runs;
            }
    end
  in
  with_mutation mutation (fun () -> loop 0)

(* -- artifacts ------------------------------------------------------------ *)

let schema_version = 1

(* Schedule artifacts predate the [kind] field: an artifact without one
   is a schedule artifact. *)
let untagged_kind = schedules.kind

let replayed_by kind =
  List.assoc_opt kind [ (schedules.kind, schedules.command); (attacks.kind, attacks.command) ]

let counterexample_to_json search (ce : _ counterexample) : Json.t =
  let opt_str = function None -> Json.Null | Some s -> Json.String s in
  let kind = if search.kind = untagged_kind then [] else [ ("kind", Json.String search.kind) ] in
  Json.Obj
    ((("schema", Json.Int schema_version) :: kind)
    @ [
        ("scenario", Json.String (Scenario.to_string ce.scenario));
        ("mutation", opt_str ce.mutation);
        ("seed", Json.Int ce.seed);
        (search.index_key, Json.Int ce.index);
      ]
    @ search.items_to_json ce.items
    @ [
        ( "violation",
          Json.Obj
            [
              ("invariant", Json.String ce.violation.invariant);
              ("detail", Json.String ce.violation.detail);
              ("at_ms", Json.Float (Time.to_ms_f ce.violation.at));
            ] );
        ("trace_digest", opt_str ce.digest);
        ("runs", Json.Int ce.runs);
      ])

let counterexample_to_string search ce = Json.to_string (counterexample_to_json search ce)

(* A key the codec does not read must be absent or null: an artifact
   recording a run input it cannot replay (older schedule artifacts
   named a scripted fault window) is refused, not replayed without it. *)
let replayable search = function
  | Json.Obj fields -> (
      let known = [ "schema"; "kind"; "scenario"; "mutation"; "seed"; "violation"; "runs" ] in
      let known = search.index_key :: "trace_digest" :: known in
      let known = known @ List.map fst (search.items_to_json []) in
      match List.find_opt (fun (k, v) -> v <> Json.Null && not (List.mem k known)) fields with
      | Some (k, _) ->
          Error (Printf.sprintf "artifact: cannot replay %S; script it as an attack=<id> token" k)
      | None -> Ok ())
  | _ -> Ok ()

let counterexample_of_json search (j : Json.t) =
  let opt_str name = match Json.member name j with Some (Json.String s) -> Some s | _ -> None in
  let* schema = field "schema" Json.to_int j in
  let* kind =
    match Json.member "kind" j with None -> Ok untagged_kind | Some _ -> field "kind" Json.to_str j
  in
  if schema <> schema_version then Error (Printf.sprintf "artifact: unsupported schema %d" schema)
  else if kind <> search.kind then
    Error
      (match replayed_by kind with
      | Some cmd -> Printf.sprintf "artifact: kind %S; replay it with the %S subcommand" kind cmd
      | None -> Printf.sprintf "artifact: unknown kind %S" kind)
  else
    let* () = replayable search j in
    let* sid = field "scenario" Json.to_str j in
    let* scenario =
      match Scenario.of_string sid with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "artifact: unparseable scenario id %S" sid)
    in
    let* seed = field "seed" Json.to_int j in
    let* index = field search.index_key Json.to_int j in
    let* items = search.items_of_json j in
    let* vj = field "violation" Option.some j in
    let* invariant = field "invariant" Json.to_str vj in
    let* detail = field "detail" Json.to_str vj in
    let at_ms = Option.value ~default:0. (Option.bind (Json.member "at_ms" vj) Json.to_float) in
    Ok
      {
        scenario = search.base scenario;
        mutation = opt_str "mutation";
        seed;
        index;
        items;
        violation = { at = Time.of_ms_f at_ms; invariant; detail };
        digest = opt_str "trace_digest";
        runs = Option.value ~default:0 (Option.bind (Json.member "runs" j) Json.to_int);
      }

let counterexample_of_string search s =
  let* j = Json.of_string s in
  counterexample_of_json search j

(* -- replay --------------------------------------------------------------- *)

type replay_outcome = {
  reproduced : bool;
  observed : violation option;
  digest_match : bool option;
}

let replay search (ce : _ counterexample) : replay_outcome =
  let r = with_mutation ce.mutation (fun () -> search.run ce.scenario ce.items) in
  let reproduced =
    match r.violation with
    | Some v -> String.equal v.invariant ce.violation.invariant
    | None -> false
  in
  let digest_match =
    match (ce.digest, r.digest) with Some a, Some b -> Some (String.equal a b) | _ -> None
  in
  { reproduced; observed = r.violation; digest_match }
