(* Chaos fault injection with continuous safety-invariant checking.

   Three pieces, all deterministic given their seeds:

   - fault actions: small reversible edits of the simulated network /
     deployment (crash, partition, link flap, loss, duplication,
     sharing equivocation), applied and reverted by scheduled events;
   - the planner: samples a timeline of fault windows from a seeded
     RNG under a budget that keeps every cluster within its f crash
     tolerance, so the protocols are *obliged* to stay safe;
   - the monitor: a self-rearming sampled check of the safety
     invariants while faults are raging, not just at run end.

   The planner draws from its own split RNG stream, so two runs with
   the same seed produce the same timeline event for event. *)

module Time = Rdb_sim.Time
module Rng = Rdb_prng.Rng
module Ledger = Rdb_ledger.Ledger
module Block = Rdb_ledger.Block
module Batch = Rdb_types.Batch

type action =
  | Crash of int
  | Partition of int * int
  | Link_down of { src : int; dst : int }
  | Link_loss of { src : int; dst : int; p : float }
  | Link_dup of { src : int; dst : int; p : float }
  | Equivocate of { cluster : int; skip : int list }

type event = { at : Time.t; until : Time.t; action : action }
type timeline = event list

let action_to_string = function
  | Crash r -> Printf.sprintf "crash replica %d" r
  | Partition (a, b) -> Printf.sprintf "partition clusters %d|%d" a b
  | Link_down { src; dst } -> Printf.sprintf "link down %d->%d" src dst
  | Link_loss { src; dst; p } -> Printf.sprintf "link loss %d->%d p=%.2f" src dst p
  | Link_dup { src; dst; p } -> Printf.sprintf "link dup %d->%d p=%.2f" src dst p
  | Equivocate { cluster; skip } ->
      Printf.sprintf "equivocate: cluster %d primary withholds shares from [%s]"
        cluster
        (String.concat ";" (List.map string_of_int skip))

let describe tl =
  String.concat "\n"
    (List.map
       (fun e ->
         Printf.sprintf "  [%7.1fms .. %7.1fms] %s" (Time.to_ms_f e.at)
           (Time.to_ms_f e.until)
           (action_to_string e.action))
       tl)

type caps = {
  crashable : int -> bool;
  partitions : bool;
  link_down : bool;
  link_loss : bool;
  link_dup : bool;
  equivocation : bool;
  rejoin_lag : int;
}

type agreement_mode = Prefix | Eventual_set of int

type surface = {
  z : int;
  n : int;
  f : int;
  caps : caps;
  agreement : agreement_mode;
  crash : int -> unit;
  recover : int -> unit;
  partition : ca:int -> cb:int -> unit;
  heal : ca:int -> cb:int -> unit;
  sever_link : src:int -> dst:int -> unit;
  restore_link : src:int -> dst:int -> unit;
  set_link_loss : src:int -> dst:int -> p:float -> unit;
  set_link_dup : src:int -> dst:int -> p:float -> unit;
  (* Equivocation-by-omission: the cluster withholds its certified
     shares from the [skip] clusters.  The runner implements this
     generically for every protocol through the adversary subsystem's
     silence primitive (lib/adversary), so the planner carries no
     protocol-specific special case; [caps.equivocation] alone decides
     whether the action is in the menu. *)
  equivocate : cluster:int -> skip:int list -> unit;
  stop_equivocate : cluster:int -> unit;
  ledger : int -> Ledger.t;
  now : unit -> Time.t;
  at : Time.t -> (unit -> unit) -> unit;
}

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)
(* ------------------------------------------------------------------ *)

type plan_cfg = {
  horizon : Time.t;
  tail : Time.t;
  n_faults : int;
  max_loss : float;
}

let default_plan ~horizon ~tail = { horizon; tail; n_faults = 4; max_loss = 0.3 }

type kind = KCrash | KPartition | KLink_down | KLink_loss | KLink_dup | KEquivocate

let overlaps (a : event) (b : event) =
  Time.(a.at < b.until) && Time.(b.at < a.until)

(* The shared f-per-cluster corruption budget: at most [f] of any one
   cluster's [n] members may be faulty/corrupt at a time.  Used below
   for concurrent crash windows and by the Byzantine-strategy
   subsystem (lib/adversary) for its corrupted-replica envelope. *)
let within_cluster_budget ~n ~f ids =
  let counts = Hashtbl.create 8 in
  List.for_all
    (fun v ->
      let c = v / n in
      let k = 1 + Option.value ~default:0 (Hashtbl.find_opt counts c) in
      Hashtbl.replace counts c k;
      k <= f)
    ids

(* Budget check: would admitting [cand] let the run exceed what the
   protocols are required to tolerate?  Conservative pairwise-overlap
   counting: any instant where more than f crash windows of one
   cluster coincide is rejected, as are overlapping partitions /
   equivocations (global faults are kept one-at-a-time so every heal
   is unambiguous) and overlapping faults on the same directed link. *)
let admissible ~n ~f accepted cand =
  let same_link s d = function
    | Link_down l -> l.src = s && l.dst = d
    | Link_loss l -> l.src = s && l.dst = d
    | Link_dup l -> l.src = s && l.dst = d
    | _ -> false
  in
  let is_global = function
    | Partition _ | Equivocate _ -> true
    | _ -> false
  in
  match cand.action with
  | Crash v ->
      List.for_all
        (fun e ->
          match e.action with
          | Crash v2 -> (not (overlaps cand e)) || v2 <> v
          | _ -> true)
        accepted
      && within_cluster_budget ~n ~f
           (v
           :: List.filter_map
                (fun e ->
                  match e.action with
                  | Crash v2 when overlaps cand e -> Some v2
                  | _ -> None)
                accepted)
  | Partition _ | Equivocate _ ->
      List.for_all
        (fun e -> (not (is_global e.action)) || not (overlaps cand e))
        accepted
  | Link_down { src; dst } | Link_loss { src; dst; _ } | Link_dup { src; dst; _ }
    ->
      List.for_all
        (fun e -> (not (same_link src dst e.action)) || not (overlaps cand e))
        accepted

let plan ~rng ~z ~n ~f ~caps (pc : plan_cfg) : timeline =
  let replicas = z * n in
  let crashables =
    Array.of_list (List.filter caps.crashable (List.init replicas (fun i -> i)))
  in
  let kinds =
    (if Array.length crashables > 0 && f > 0 then [ KCrash ] else [])
    @ (if caps.partitions && z >= 2 then [ KPartition ] else [])
    @ (if caps.link_down && replicas >= 2 then [ KLink_down ] else [])
    @ (if caps.link_loss && replicas >= 2 then [ KLink_loss ] else [])
    @ (if caps.link_dup && replicas >= 2 then [ KLink_dup ] else [])
    @ if caps.equivocation && z >= 2 then [ KEquivocate ] else []
  in
  let min_onset_ms = 500. in
  let latest_ms = Time.to_ms_f (Time.sub pc.horizon pc.tail) in
  if kinds = [] || latest_ms <= min_onset_ms then []
  else begin
    let kinds = Array.of_list kinds in
    let accepted = ref [] in
    let n_accepted = ref 0 in
    let attempts = pc.n_faults * 16 in
    for _ = 1 to attempts do
      if !n_accepted < pc.n_faults then begin
        let k = Rng.choose rng kinds in
        let dur_ms = Rng.float_range rng ~lo:800. ~hi:2500. in
        (* Always draw the onset so the RNG stream consumed per attempt
           is fixed-shape; clamp afterwards. *)
        let span = latest_ms -. min_onset_ms -. dur_ms in
        let at_ms = min_onset_ms +. (Rng.float rng *. Float.max span 0.) in
        let action =
          match k with
          | KCrash -> Crash (Rng.choose rng crashables)
          | KPartition ->
              let ca = Rng.int rng z in
              let cb = (ca + 1 + Rng.int rng (z - 1)) mod z in
              Partition (min ca cb, max ca cb)
          | KLink_down | KLink_loss | KLink_dup -> (
              let src = Rng.int rng replicas in
              let dst = (src + 1 + Rng.int rng (replicas - 1)) mod replicas in
              match k with
              | KLink_down -> Link_down { src; dst }
              | KLink_loss ->
                  Link_loss
                    { src; dst; p = Rng.float_range rng ~lo:0.05 ~hi:pc.max_loss }
              | _ ->
                  Link_dup { src; dst; p = Rng.float_range rng ~lo:0.1 ~hi:0.5 })
          | KEquivocate ->
              let cluster = Rng.int rng z in
              let skip = (cluster + 1 + Rng.int rng (z - 1)) mod z in
              Equivocate { cluster; skip = [ skip ] }
        in
        if span > 0. then begin
          let cand =
            {
              at = Time.of_ms_f at_ms;
              until = Time.of_ms_f (at_ms +. dur_ms);
              action;
            }
          in
          if admissible ~n ~f !accepted cand then begin
            accepted := cand :: !accepted;
            incr n_accepted
          end
        end
      end
    done;
    List.sort
      (fun (a : event) (b : event) ->
        let c = Time.compare a.at b.at in
        if c <> 0 then c else compare a.action b.action)
      !accepted
  end

(* ------------------------------------------------------------------ *)
(* Installation                                                        *)
(* ------------------------------------------------------------------ *)

let apply s = function
  | Crash v -> s.crash v
  | Partition (a, b) -> s.partition ~ca:a ~cb:b
  | Link_down { src; dst } -> s.sever_link ~src ~dst
  | Link_loss { src; dst; p } -> s.set_link_loss ~src ~dst ~p
  | Link_dup { src; dst; p } -> s.set_link_dup ~src ~dst ~p
  | Equivocate { cluster; skip } -> s.equivocate ~cluster ~skip

let reverse s = function
  | Crash v -> s.recover v
  | Partition (a, b) -> s.heal ~ca:a ~cb:b
  | Link_down { src; dst } -> s.restore_link ~src ~dst
  | Link_loss { src; dst; _ } -> s.set_link_loss ~src ~dst ~p:0.
  | Link_dup { src; dst; _ } -> s.set_link_dup ~src ~dst ~p:0.
  | Equivocate { cluster; _ } -> s.stop_equivocate ~cluster

let install s tl =
  List.iter
    (fun (e : event) ->
      s.at e.at (fun () -> apply s e.action);
      s.at e.until (fun () -> reverse s e.action))
    tl

(* ------------------------------------------------------------------ *)
(* Invariant monitor                                                   *)
(* ------------------------------------------------------------------ *)

type violation = { at : Time.t; invariant : string; detail : string }

let violation_to_string v =
  Printf.sprintf "%s at t=%.1fms: %s" v.invariant (Time.to_ms_f v.at) v.detail

type monitor = {
  s : surface;
  timeline : timeline;
  sample : Time.t;
  liveness_window : Time.t;
  (* per replica: executed (cluster, batch id) pairs, grown incrementally *)
  executed : (int * int, unit) Hashtbl.t array;
  scanned : int array;     (* blocks of each ledger already scanned *)
  prev_len : int array;
  ever_crashed : bool array;  (* crash-targeted at any point in the timeline *)
  mutable prev_total : int;
  mutable last_progress : Time.t;
  mutable violation : violation option;
  mutable n_samples : int;
}

let is_net_fault = function
  | Partition _ | Link_down _ | Link_loss _ | Link_dup _ | Equivocate _ -> true
  | Crash _ -> false

let record m invariant detail =
  if m.violation = None then
    m.violation <- Some { at = m.s.now (); invariant; detail }

(* Scan newly executed blocks of every ledger: lengths must be
   monotone, and no (cluster, batch) may execute twice on one replica.
   No-op batches are excluded — distinct no-ops legitimately share the
   round-filler role. *)
let scan_ledgers m =
  let replicas = m.s.z * m.s.n in
  for r = 0 to replicas - 1 do
    let l = m.s.ledger r in
    let len = Ledger.length l in
    if len < m.prev_len.(r) then
      record m "monotone-execution"
        (Printf.sprintf "replica %d ledger shrank %d -> %d" r m.prev_len.(r) len);
    m.prev_len.(r) <- len;
    for h = m.scanned.(r) to len - 1 do
      let b = Ledger.get l h in
      let batch = b.Block.batch in
      if not (Batch.is_noop batch) then begin
        let key = (b.Block.cluster, batch.Batch.id) in
        if Hashtbl.mem m.executed.(r) key then
          record m "no-duplicate-execution"
            (Printf.sprintf "replica %d executed batch (cluster %d, id %d) twice"
               r b.Block.cluster batch.Batch.id)
        else Hashtbl.replace m.executed.(r) key ()
      end
    done;
    m.scanned.(r) <- len
  done

let check_agreement m =
  let replicas = m.s.z * m.s.n in
  match m.s.agreement with
  | Prefix ->
      (* Pairwise prefix compatibility across *all* replicas: a crashed
         or recovering replica holds a frozen prefix, which still
         satisfies the relation — divergence anywhere is a bug. *)
      let quit = ref false in
      for i = 0 to replicas - 1 do
        for j = i + 1 to replicas - 1 do
          if not !quit then begin
            let a = m.s.ledger i and b = m.s.ledger j in
            if
              not (Ledger.is_prefix_of a b || Ledger.is_prefix_of b a)
            then begin
              record m "ledger-prefix-agreement"
                (Printf.sprintf
                   "replicas %d and %d diverge (lengths %d vs %d, common prefix \
                    %d)"
                   i j (Ledger.length a) (Ledger.length b)
                   (Ledger.common_prefix a b));
              quit := true
            end
          end
        done
      done
  | Eventual_set slack ->
      (* Replicas run interleaved per-instance logs; compare executed
         batch-id sets with bounded in-flight slack.  Crash-targeted
         replicas are excluded: a recovered replica legitimately has
         holes it never fills (no state transfer for this mode). *)
      let quit = ref false in
      for i = 0 to replicas - 1 do
        for j = i + 1 to replicas - 1 do
          if (not !quit) && (not m.ever_crashed.(i)) && not m.ever_crashed.(j)
          then begin
            let diff = ref 0 in
            Hashtbl.iter
              (fun k () -> if not (Hashtbl.mem m.executed.(j) k) then incr diff)
              m.executed.(i);
            Hashtbl.iter
              (fun k () -> if not (Hashtbl.mem m.executed.(i) k) then incr diff)
              m.executed.(j);
            if !diff > slack then begin
              record m "executed-set-agreement"
                (Printf.sprintf
                   "replicas %d and %d differ on %d executed batches (slack %d)"
                   i j !diff slack);
              quit := true
            end
          end
        done
      done

let check_liveness m =
  let now = m.s.now () in
  let total =
    let t = ref 0 in
    for r = 0 to (m.s.z * m.s.n) - 1 do
      t := !t + Ledger.length (m.s.ledger r)
    done;
    !t
  in
  if total > m.prev_total then begin
    m.prev_total <- total;
    m.last_progress <- now
  end;
  (* The liveness clock pauses while a *network* fault is active (the
     model permits stalling through a partition: safety over
     liveness), but deliberately keeps ticking through crash windows —
     BFT must stay live under <= f crash faults, and an over-budget
     crash set is exactly what this invariant is meant to catch. *)
  let net_active =
    List.exists
      (fun e ->
        is_net_fault e.action && Time.(e.at <= now) && Time.(now < e.until))
      m.timeline
  in
  if not net_active then begin
    let last_net_end =
      List.fold_left
        (fun acc e ->
          if is_net_fault e.action && Time.(e.until <= now) then
            Time.max acc e.until
          else acc)
        Time.zero m.timeline
    in
    let quiet_from = Time.max m.last_progress last_net_end in
    if Time.(Time.sub now quiet_from > m.liveness_window) then
      record m "liveness-after-heal"
        (Printf.sprintf
           "no replica executed anything for %.0fms with no network fault \
            active (window %.0fms)"
           (Time.to_ms_f (Time.sub now quiet_from))
           (Time.to_ms_f m.liveness_window))
  end

(* Per replica: once the deployment has been up and clear of every
   fault window for one liveness window, each replica trails the
   highest ledger by at most [caps.rejoin_lag] blocks.  The liveness
   check sums over all replicas, so without this a replica that never
   rejoins goes unnoticed while its peers carry on. *)
let check_rejoin m =
  let now = m.s.now () in
  let quiet_from =
    List.fold_left
      (fun acc (e : event) -> if Time.(e.at <= now) then Time.max acc e.until else acc)
      Time.zero m.timeline
  in
  if Time.(Time.sub now quiet_from >= m.liveness_window) then begin
    let top = Array.fold_left max 0 m.prev_len in
    Array.iteri
      (fun r len ->
        if top - len > m.s.caps.rejoin_lag then
          record m "rejoin"
            (Printf.sprintf
               "replica %d trails the highest ledger by %d blocks (%d against %d), %.0fms \
                after the last fault window (bound %d)"
               r (top - len) len top
               (Time.to_ms_f (Time.sub now quiet_from))
               m.s.caps.rejoin_lag))
      m.prev_len
  end

let sweep m =
  if m.violation = None then begin
    m.n_samples <- m.n_samples + 1;
    scan_ledgers m;
    check_agreement m;
    check_liveness m;
    check_rejoin m
  end

let monitor ?(sample_ms = 250.) ?(liveness_window_ms = 5000.) s timeline =
  let replicas = s.z * s.n in
  let ever_crashed = Array.make replicas false in
  List.iter
    (fun e ->
      match e.action with Crash v -> ever_crashed.(v) <- true | _ -> ())
    timeline;
  let m =
    {
      s;
      timeline;
      sample = Time.of_ms_f sample_ms;
      liveness_window = Time.of_ms_f liveness_window_ms;
      executed = Array.init replicas (fun _ -> Hashtbl.create 64);
      scanned = Array.make replicas 0;
      prev_len = Array.make replicas 0;
      ever_crashed;
      prev_total = 0;
      last_progress = s.now ();
      violation = None;
      n_samples = 0;
    }
  in
  let rec rearm () =
    s.at
      (Time.add (s.now ()) m.sample)
      (fun () ->
        sweep m;
        if m.violation = None then rearm ())
  in
  rearm ();
  m

let check_now m = sweep m
let first_violation m = m.violation
let samples m = m.n_samples

exception Violation of string

let fail ~protocol ~seed ~timeline ~violation =
  raise
    (Violation
       (Printf.sprintf
          "chaos: safety invariant violated under %s (seed %d)\n\
          \  first violation: %s\n\
          \  fault timeline (reproduce with the token fault=chaos:%d):\n\
           %s"
          protocol seed
          (violation_to_string violation)
          seed (describe timeline)))
