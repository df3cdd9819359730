(** Schedule perturbations (DESIGN.md §13): point edits to the
    simulation's deterministic counters — extra delivery delay on the
    nth network send, tie-break deferral of the nth engine schedule
    call, same-link FIFO inversion of the nth send.  Every edit stays
    inside the latency model's legal envelope (arrivals never precede
    departure + base one-way latency; deferrals only permute
    simultaneous events). *)

module Time = Rdb_sim.Time
module Rng = Rdb_prng.Rng

type t =
  | Delay of { nth : int; extra : Time.t }
  | Defer of { nth : int }
  | Swap of { nth : int }

val to_string : t -> string
val to_json : t -> Rdb_fabric.Json.t
val of_json : Rdb_fabric.Json.t -> (t, string) result

type tier = {
  net_gap : int;
  defer_gap : int;
  max_delay_ms : float;
  swap_frac : float;
  max_net : int;
  max_defer : int;
}

val tier_for : schedule:int -> tier
(** Intensity for the k-th schedule of a budget (k >= 1; schedule 0
    runs unperturbed). *)

type hooks = {
  defer : int -> bool;
  deliver : Rdb_sim.Network.delivery_hook;
  applied : unit -> t list;
}

val unperturbed : hooks

val explore : rng:Rng.t -> tier:tier -> hooks
(** Seeded random perturbation: gap-sampled targets, bounded counts
    per run, every applied perturbation recorded. *)

val replay : t list -> hooks
(** Apply exactly a recorded perturbation list by counter lookup. *)
