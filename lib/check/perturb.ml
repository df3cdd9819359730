(* Schedule perturbations (DESIGN.md §13).

   Three kinds, each a point edit to one deterministic counter of the
   simulation — which is what makes a recorded perturbation list an
   exact schedule description:

   - [Delay]: the nth admitted network send arrives [extra] later than
     the latency model computed.  Legal because jitter is unbounded
     above within a run's envelope — any arrival >= departure + base
     one-way latency is producible by the model.
   - [Defer]: the nth engine schedule call is pushed behind its
     equal-timestamp group.  Legal because simultaneous events have no
     defined order; this permutes a tie the heap otherwise breaks by
     insertion order.
   - [Swap]: the nth admitted network send arrives 1 ns before the
     previous message scheduled on the same directed link (when the
     legality floor permits), inverting one same-link FIFO pair.

   Explore mode draws perturbations from a dedicated RNG (never the
   engine's: the pre-perturbation prefix of the run must be identical
   to the unperturbed run) and records what it applied; replay mode
   applies a recorded list by counter lookup.  Since the simulation is
   a deterministic function of (seed, schedule edits), replaying the
   recorded list reproduces the exploring run event for event. *)

module Time = Rdb_sim.Time
module Rng = Rdb_prng.Rng
module Json = Rdb_fabric.Json

type t =
  | Delay of { nth : int; extra : Time.t }
  | Defer of { nth : int }
  | Swap of { nth : int }

let to_string = function
  | Delay { nth; extra } -> Printf.sprintf "delay#%d+%.3fms" nth (Time.to_ms_f extra)
  | Defer { nth } -> Printf.sprintf "defer#%d" nth
  | Swap { nth } -> Printf.sprintf "swap#%d" nth

let to_json = function
  | Delay { nth; extra } ->
      Json.Obj
        [
          ("kind", Json.String "delay");
          ("nth", Json.Int nth);
          ("extra_ns", Json.Int extra);
        ]
  | Defer { nth } -> Json.Obj [ ("kind", Json.String "defer"); ("nth", Json.Int nth) ]
  | Swap { nth } -> Json.Obj [ ("kind", Json.String "swap"); ("nth", Json.Int nth) ]

let of_json j =
  let ( let* ) o f = match o with Some v -> f v | None -> Error "malformed perturbation" in
  let* kind = Option.bind (Json.member "kind" j) Json.to_str in
  let* nth = Option.bind (Json.member "nth" j) Json.to_int in
  match kind with
  | "delay" ->
      let* ns = Option.bind (Json.member "extra_ns" j) Json.to_int in
      Ok (Delay { nth; extra = ns })
  | "defer" -> Ok (Defer { nth })
  | "swap" -> Ok (Swap { nth })
  | k -> Error (Printf.sprintf "unknown perturbation kind %S" k)

(* -- intensity tiers ----------------------------------------------------- *)

(* How hard one explored schedule leans on the run.  Targets are picked
   by gap sampling (next target = current + 1 + uniform gap), so the
   perturbation RNG is consumed per-perturbation, not per-event, and
   counts stay small enough for delta debugging to be cheap.  The
   delay ceiling stays below every protocol timeout (2000 ms) and
   below half the measurement window, so a perturbed-but-correct run
   cannot be mistaken for a stalled one. *)
type tier = {
  net_gap : int;  (** mean-ish gap between perturbed sends *)
  defer_gap : int;  (** gap between deferred schedule calls *)
  max_delay_ms : float;
  swap_frac : float;  (** fraction of net perturbations that swap *)
  max_net : int;  (** cap on delay+swap perturbations per run *)
  max_defer : int;
}

let light =
  { net_gap = 4000; defer_gap = 20000; max_delay_ms = 50.; swap_frac = 0.3; max_net = 8; max_defer = 8 }

let medium =
  {
    net_gap = 1500;
    defer_gap = 8000;
    max_delay_ms = 300.;
    swap_frac = 0.4;
    max_net = 12;
    max_defer = 12;
  }

let heavy =
  {
    net_gap = 500;
    defer_gap = 3000;
    max_delay_ms = 800.;
    swap_frac = 0.5;
    max_net = 16;
    max_defer = 16;
  }

(* Schedule 0 of every budget runs unperturbed (the baseline the
   deterministic mutants fall to); the rest cycle light/medium/heavy. *)
let tier_for ~schedule =
  match schedule mod 3 with 1 -> light | 2 -> medium | _ -> heavy

(* -- hook pairs ---------------------------------------------------------- *)

type hooks = {
  defer : int -> bool;
  deliver : Rdb_sim.Network.delivery_hook;
  applied : unit -> t list;  (** what actually landed, in order *)
}

let unperturbed =
  {
    defer = (fun _ -> false);
    deliver = (fun ~src:_ ~dst:_ ~nth:_ ~floor:_ ~arrive ~last:_ -> arrive);
    applied = (fun () -> []);
  }

let explore ~rng ~(tier : tier) =
  let applied = ref [] in
  let gap g = 1 + Rng.int rng g in
  let next_defer = ref (gap tier.defer_gap) in
  let n_defer = ref 0 in
  let defer n =
    if !n_defer >= tier.max_defer || n < !next_defer then false
    else begin
      next_defer := n + gap tier.defer_gap;
      incr n_defer;
      applied := Defer { nth = n } :: !applied;
      true
    end
  in
  let next_net = ref (gap tier.net_gap) in
  let n_net = ref 0 in
  let deliver ~src:_ ~dst:_ ~nth ~floor ~arrive ~last =
    if !n_net >= tier.max_net || nth < !next_net then arrive
    else begin
      next_net := nth + gap tier.net_gap;
      let swap_target =
        if Rng.float rng < tier.swap_frac then
          match last with
          | Some l when Time.( >= ) (Time.sub l 1) floor -> Some (Time.sub l 1)
          | _ -> None
        else None
      in
      match swap_target with
      | Some target ->
          incr n_net;
          applied := Swap { nth } :: !applied;
          target
      | None ->
          let extra = Time.of_ms_f (Rng.float_range rng ~lo:1. ~hi:tier.max_delay_ms) in
          incr n_net;
          applied := Delay { nth; extra } :: !applied;
          Time.add arrive extra
    end
  in
  { defer; deliver; applied = (fun () -> List.rev !applied) }

let replay (ps : t list) =
  let defers = Hashtbl.create 16 in
  let delays = Hashtbl.create 16 in
  let swaps = Hashtbl.create 16 in
  List.iter
    (function
      | Defer { nth } -> Hashtbl.replace defers nth ()
      | Delay { nth; extra } -> Hashtbl.replace delays nth extra
      | Swap { nth } -> Hashtbl.replace swaps nth ())
    ps;
  let deliver ~src:_ ~dst:_ ~nth ~floor ~arrive ~last =
    if Hashtbl.mem swaps nth then
      match last with
      | Some l when Time.( >= ) (Time.sub l 1) floor -> Time.sub l 1
      | _ -> arrive
    else
      match Hashtbl.find_opt delays nth with
      | Some extra -> Time.add arrive extra
      | None -> arrive
  in
  { defer = (fun n -> Hashtbl.mem defers n); deliver; applied = (fun () -> ps) }
