(* Per-replica recovery handle: counters plus one stall-watch task with
   exponential backoff and jitter (see recovery.mli and DESIGN.md §9).

   Determinism discipline: the task draws jitter from the node's own
   RNG stream only when it actually fires a stalled retransmission, and
   protocols arm it only when they detect lag or recover from a crash —
   a fault-free run never touches the RNG. *)

module Time = Rdb_sim.Time
module Rng = Rdb_prng.Rng
module Config = Rdb_types.Config
module Ctx = Rdb_types.Ctx
module Protocol = Rdb_types.Protocol

(* Backoff: base is the local timeout, capped at 8×, stretched by up
   to 25%. *)
let cap_factor = 8.
let jitter = 0.25

type t = {
  set_timer : delay:Time.t -> (unit -> unit) -> unit;
  rng : Rng.t;
  base : Time.t;
  cap : Time.t;
  mutable needed : unit -> bool;
  mutable progress : unit -> int;
  mutable fire : attempt:int -> unit;
  mutable generation : int;
  mutable running : bool;
  mutable last_token : int;
  mutable attempt : int;
  mutable state_transfers : int;   (* checkpoint snapshots installed *)
  mutable holes_filled : int;      (* missing batches fetched + applied *)
  mutable retransmissions : int;   (* timeout-driven resends *)
}

let create (ctx : _ Ctx.t) =
  let timeout_ms = ctx.Ctx.config.Config.local_timeout_ms in
  {
    set_timer = (fun ~delay k -> ignore (ctx.Ctx.set_timer ~delay k));
    rng = ctx.Ctx.rng;
    base = Time.of_ms_f timeout_ms;
    cap = Time.of_ms_f (cap_factor *. timeout_ms);
    needed = (fun () -> false);
    progress = (fun () -> 0);
    fire = (fun ~attempt:_ -> ());
    generation = 0;
    running = false;
    last_token = min_int;
    attempt = 0;
    state_transfers = 0;
    holes_filled = 0;
    retransmissions = 0;
  }

let watch t ~needed ~progress ~fire =
  t.needed <- needed;
  t.progress <- progress;
  t.fire <- fire

(* min cap (base * 2^attempt), attempt clamped to 16, then jittered:
   called only after a stalled fire, so only then is the RNG drawn. *)
let backoff t attempt =
  let attempt = min attempt 16 in
  let d = Time.to_ms_f t.base *. Float.of_int (1 lsl attempt) in
  let d = Float.min d (Time.to_ms_f t.cap) in
  Time.of_ms_f (d *. (1. +. (jitter *. Rng.float t.rng)))

let rec arm t ~gen ~delay = t.set_timer ~delay (fun () -> tick t ~gen)

and tick t ~gen =
  if gen = t.generation then begin
    if not (t.needed ()) then t.running <- false
    else begin
      let token = t.progress () in
      if token <> t.last_token then begin
        (* Progress on its own: reset backoff, watch quietly. *)
        t.last_token <- token;
        t.attempt <- 0;
        arm t ~gen ~delay:t.base
      end
      else begin
        let attempt = t.attempt in
        t.attempt <- attempt + 1;
        t.fire ~attempt;
        arm t ~gen ~delay:(backoff t t.attempt)
      end
    end
  end

let start t =
  t.generation <- t.generation + 1;
  t.running <- true;
  t.last_token <- t.progress ();
  t.attempt <- 0;
  arm t ~gen:t.generation ~delay:t.base

let ensure t = if not t.running then start t

(* -- counters ------------------------------------------------------------- *)

let note_retransmit t = t.retransmissions <- t.retransmissions + 1

let note_installed t ~filled =
  if filled > 0 then begin
    t.holes_filled <- t.holes_filled + filled;
    t.state_transfers <- t.state_transfers + 1
  end

let stats t : Protocol.recovery_stats =
  {
    Protocol.state_transfers = t.state_transfers;
    holes_filled = t.holes_filled;
    retransmissions = t.retransmissions;
  }
