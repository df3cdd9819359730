(** Counterexample search (DESIGN.md §13, §14): run a {!Scenario.t}
    attempt after attempt under an invariant oracle — the chaos safety
    monitor, per-protocol certificate invariants, quorum-evidence
    extraction, and an execution-frontier check — then delta-debug the
    first violating attempt's items down to a 1-minimal list serialized
    as a replayable artifact.

    One search, two instances: {!schedules} perturbs the schedule
    (items are {!Perturb.t} edits), {!attacks} installs seeded
    Byzantine strategy programs from lib/adversary (items are attack
    rules).  Everything else — {!explore}, {!ddmin}, the artifact
    codec and {!replay} — is shared. *)

module Scenario = Rdb_experiments.Scenario
module Chaos = Rdb_chaos.Chaos
module Adversary = Rdb_adversary.Adversary
module Time = Rdb_sim.Time
module Json = Rdb_fabric.Json

type violation = Chaos.violation = { at : Time.t; invariant : string; detail : string }

val violation_to_string : violation -> string

(** {1 Single runs} *)

type run_result = {
  violation : violation option;
  applied : Perturb.t list;  (** perturbations that actually landed *)
  digest : string option;  (** trace digest, when the scenario traces *)
}

val run_one : Scenario.t -> hooks:Perturb.hooks -> run_result
(** One simulation under the given perturbation hooks, checked by the
    full oracle.  Sequential only: the mutation/evidence hooks are
    process-global. *)

val sample_attack : seed:int -> attempt:int -> Scenario.t -> Adversary.Attack.t
(** The attack program attempt [attempt] of [explore attacks ~seed]
    would install: the scenario's own attack (empty if none) for
    attempt 0, else a program sampled from
    {!Rdb_experiments.Runner.adversary_profile} — sampling made
    checkable without running anything. *)

val run_attack : Scenario.t -> Adversary.Attack.t -> run_result
(** One unperturbed run of the scenario with the attack installed,
    checked by the full oracle.  Sequential only. *)

(** {1 Shrinking} *)

val ddmin : test:('a list -> bool) -> 'a list -> 'a list * int
(** Delta debugging to 1-minimality.  [test subset] must return
    whether the subset still fails.  Returns the minimal in-order
    sublist and the number of tests spent. *)

(** {1 The searches} *)

type 'a search = {
  kind : string;  (** the artifact's kind: ["schedule"] or ["attack"] *)
  command : string;  (** the rdb_cli subcommand that runs and replays it *)
  index_key : string;  (** what one attempt is called, in artifacts and output *)
  measure : Time.t;  (** measurement window of {!default_scenario} for this search *)
  mutants : (string * Scenario.t) list;
      (** every mutation the search must catch, with the scenario (and
          its attack, if the mutation needs one) that exposes it *)
  base : Scenario.t -> Scenario.t;  (** the scenario an artifact records *)
  attempt : seed:int -> int -> Scenario.t -> 'a list * run_result;
      (** run attempt [k]; returns the items it applied *)
  run : Scenario.t -> 'a list -> run_result;
      (** replay exactly an item list *)
  items_to_json : 'a list -> (string * Json.t) list;
  items_of_json : Json.t -> ('a list, string) result;
}

val schedules : Perturb.t search
(** Attempt 0 runs unperturbed; attempt [k] perturbs with cycling
    intensity tiers seeded from [(seed, k)].  Artifacts carry no
    [kind] field; the recorded scenario keeps its attack. *)

val attacks : Adversary.rule search
(** Attempt [k] installs {!sample_attack} — attempt 0 the empty attack,
    so a violation there records that the configuration is broken
    without any adversary.  The recorded scenario carries no attack:
    the items replace it.  Artifacts are [kind:"attack"]. *)

val mutant_scenario : 'a search -> string -> Scenario.t option

val default_scenario : ?seed:int -> measure:Time.t -> Scenario.proto -> Scenario.t
(** The searches' stock deployment: z=2 n=4, small batches, traced,
    0.5 s warmup plus [measure]. *)

(** {1 Exploration} *)

type 'a counterexample = {
  scenario : Scenario.t;
  mutation : string option;
  seed : int;
  index : int;  (** attempt where the violation surfaced *)
  items : 'a list;  (** shrunk, 1-minimal *)
  violation : violation;
  digest : string option;  (** trace digest of the minimal replay *)
  runs : int;  (** simulations spent, exploration + shrinking *)
}

val explore :
  'a search ->
  ?budget:int ->
  ?seed:int ->
  ?mutation:string ->
  ?on_attempt:(int -> unit) ->
  Scenario.t ->
  'a counterexample option
(** Run up to [budget] (default 64) attempts and stop at the first
    violation, which is shrunk and replayed once more to pin its
    digest.  [mutation] activates a test-only protocol mutation for the
    whole exploration. *)

(** {1 Replayable artifacts} *)

val schema_version : int

val counterexample_to_json : 'a search -> 'a counterexample -> Json.t
val counterexample_to_string : 'a search -> 'a counterexample -> string

val counterexample_of_string : 'a search -> string -> ('a counterexample, string) result
(** Fails, naming the artifact's kind and its subcommand, on an
    artifact of another search, and on a non-null key the codec does
    not read (a run input it could not replay). *)

type replay_outcome = {
  reproduced : bool;  (** the replay violated the same invariant *)
  observed : violation option;
  digest_match : bool option;  (** [None] when either side lacks a digest *)
}

val replay : 'a search -> 'a counterexample -> replay_outcome
(** Re-run the artifact's scenario under its recorded items (and
    mutation, if any). *)
