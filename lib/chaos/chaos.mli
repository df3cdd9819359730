(** Chaos fault injection with continuous safety-invariant checking.

    The paper's resilience claims (§4.3, Figure 7) say the fabric
    keeps its safety guarantees under crashes, partitions and
    Byzantine primaries as long as each cluster stays within its [f]
    tolerance.  This subsystem turns that claim into an executable
    property:

    + a library of composable, {e reversible} fault actions over the
      deployment surface (crash/recover, partition/heal, link flap,
      probabilistic loss, duplication, GeoBFT sharing equivocation);
    + a deterministic seeded scheduler that samples a fault timeline
      (kind, victim, onset, duration) under a budget keeping every
      cluster within [f] concurrent crashes — so safety {e must} hold
      and any violation is a bug;
    + an invariant monitor that checks, continuously on a sampling
      timer rather than only at run end: ledger prefix agreement (or
      per-instance set agreement for protocols with interleaved
      instance logs), monotone execution, no duplicate transaction
      execution, and liveness (progress resumes within a bounded
      window; the clock pauses while a network fault is active, but
      {e not} during in-budget crashes — BFT must stay live under
      [<= f] crash faults).

    Same seed ⇒ identical fault timeline, event for event. *)

module Time = Rdb_sim.Time
module Rng = Rdb_prng.Rng
module Ledger = Rdb_ledger.Ledger

(** {1 Fault actions} *)

type action =
  | Crash of int  (** crash-stop a replica (reverse: recover) *)
  | Partition of int * int
      (** sever all traffic between two clusters (reverse: heal) *)
  | Link_down of { src : int; dst : int }
      (** flap one directed link (reverse: restore) *)
  | Link_loss of { src : int; dst : int; p : float }
      (** drop each message on the link with probability [p] *)
  | Link_dup of { src : int; dst : int; p : float }
      (** duplicate each message on the link with probability [p] *)
  | Equivocate of { cluster : int; skip : int list }
      (** the cluster's primary stops sharing certified rounds with
          the clusters in [skip] — Byzantine equivocation by omission
          at GeoBFT's global-sharing step (Example 2.4 case 1) *)

type event = { at : Time.t; until : Time.t; action : action }
(** One reversible fault window: [action] applies at [at] and its
    inverse runs at [until]. *)

type timeline = event list

val describe : timeline -> string
(** Human-readable timeline, one fault window per line — printed on
    violation so any run reproduces from its seed. *)

(** {1 The deployment surface} *)

(** What a protocol can absorb: the scheduler only samples fault kinds
    a protocol is expected to survive (e.g. Zyzzyva has no view change,
    so its primary is not crashable; Steward's site representatives are
    single points of coordination).  Link faults are split by kind
    because they stress different machinery: flaps and loss require a
    retransmission/view-change path to heal, duplication only requires
    idempotent message handling. *)
type caps = {
  crashable : int -> bool;  (** may this replica be crash-targeted? *)
  partitions : bool;        (** cluster partitions heal cleanly *)
  link_down : bool;         (** severed-link windows recover *)
  link_loss : bool;         (** probabilistic loss recovers *)
  link_dup : bool;          (** duplication is handled idempotently *)
  equivocation : bool;      (** sharing-step equivocation (GeoBFT) *)
}

(** How cross-replica agreement is checked: [Prefix] for protocols
    with one totally-ordered log; [Eventual_set slack] for protocols
    whose replicas interleave independent instance logs (HotStuff),
    where executed batch-id sets must agree up to [slack] in-flight
    decisions. *)
type agreement_mode = Prefix | Eventual_set of int

(** First-class capability surface over one deployment, so this
    library depends on no protocol and no functor: the experiment
    runner wires a record per deployment. *)
type surface = {
  z : int;
  n : int;
  f : int;  (** per-cluster crash budget *)
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
  equivocate : cluster:int -> skip:int list -> unit;
      (** Equivocation-by-omission: the cluster withholds its certified
          shares from the [skip] clusters for the window.  Implemented
          generically through the adversary subsystem's silence
          primitive (lib/adversary); [caps.equivocation] gates whether
          the planner draws it. *)
  stop_equivocate : cluster:int -> unit;
  ledger : int -> Ledger.t;  (** per-replica, indices [0 .. z*n-1] *)
  now : unit -> Time.t;
  at : Time.t -> (unit -> unit) -> unit;  (** schedule in the engine *)
}

(** {1 Seeded scheduling} *)

type plan_cfg = {
  horizon : Time.t;  (** end of the run (warmup + measure) *)
  tail : Time.t;     (** fault-free recovery tail before [horizon] *)
  n_faults : int;    (** fault windows to attempt *)
  max_loss : float;  (** cap on sampled loss probability *)
}

val default_plan : horizon:Time.t -> tail:Time.t -> plan_cfg

val within_cluster_budget : n:int -> f:int -> int list -> bool
(** The shared f-per-cluster corruption budget: true iff at most [f]
    of any one cluster's [n] members appear in the list.  Used by the
    planner for concurrent crash windows and by the Byzantine-strategy
    subsystem (lib/adversary) for its corrupted-replica envelope. *)

val plan : rng:Rng.t -> z:int -> n:int -> f:int -> caps:caps -> plan_cfg -> timeline
(** Sample a fault timeline for [z] clusters of [n] replicas.  Every
    window clears before [horizon - tail]; concurrent crashes per
    cluster never exceed [f]; only [caps]-allowed kinds are drawn.  The
    result is a pure function of the RNG state and the arguments: no
    deployment is needed to plan. *)

val install : surface -> timeline -> unit
(** Schedule every fault's apply at [at] and inverse at [until]. *)

(** {1 The invariant monitor} *)

type violation = { at : Time.t; invariant : string; detail : string }

val violation_to_string : violation -> string

type monitor

val monitor :
  ?sample_ms:float ->
  ?liveness_window_ms:float ->
  surface ->
  timeline ->
  monitor
(** Install a self-rearming invariant check every [sample_ms]
    (default 250 ms).  [liveness_window_ms] (default 5000) bounds how
    long global execution may stall while no network fault is active.
    Only the first violation is retained; sampling stops after it. *)

val check_now : monitor -> unit
(** Run one extra check immediately (e.g. at end of run). *)

val first_violation : monitor -> violation option

val samples : monitor -> int
(** Invariant sweeps performed so far (diagnostics). *)

exception Violation of string
(** Raised by callers (the experiment runner) when a chaos run ends
    with a recorded violation; the payload carries the seed, the full
    fault timeline and the first violated invariant. *)

val fail :
  protocol:string -> seed:int -> timeline:timeline -> violation:violation -> 'a
(** Compose the loud failure message and raise {!Violation}. *)
