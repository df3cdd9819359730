(* The discrete-event engine: a clock and an ordered queue of pending
   events (closures), partitioned into shards that run in epochs.

   Determinism contract: with the same seed and the same sequence of
   [schedule] calls, two runs execute identical event sequences.  This
   is what lets the test suite assert exact cross-run agreement and lets
   every experiment in EXPERIMENTS.md be replayed bit-for-bit.

   Sharding (DESIGN.md §15).  A deployment may partition its nodes into
   shards (one per cluster): each shard owns a private heap, RNG stream
   and outboxes, and executes its own events.  Shards interact only
   through [schedule_at_shard], which stages cross-shard events in the
   *sender's* outbox; outboxes are drained into the destination heaps at
   epoch barriers, in canonical (dst, src, FIFO) order with fresh
   sequence numbers.  The conservative-DES invariant the
   caller must uphold: a cross-shard event scheduled during an epoch
   starting at T0 must not be earlier than T0 + lookahead.  The fabric
   guarantees this because clusters only talk over global WAN links
   whose one-way latency floor is the lookahead.

   Every epoch runs its shards one after another, in shard order, on
   the calling domain.  The partition stays because it fixes the event
   order: per-shard heaps, RNG streams and the canonical outbox drain
   decide which of two same-time events runs first, so the per-shard
   event sequences — and the per-shard trace streams — are a pure
   function of the seed and the epoch schedule (DESIGN.md §15).

   Everything else is one per engine.  One clock: the executing event
   sets it, and every shard clock would equal it at each barrier.  One
   sequence counter: [(time, seq)] is only ever compared within one
   heap, and one monotone counter orders each heap's pushes exactly as
   a per-heap counter would.  One executed-event counter and one
   freelist of event records.

   Control events ([schedule_control]) are global actions — fault
   injection, chaos timeline steps, monitors — that must observe and
   mutate cross-shard state.  They run only at epoch barriers, with
   every shard stopped, at exactly their scheduled time (the epoch
   schedule is cut at the next control time), before any ordinary event
   with the same timestamp.

   Event records are pooled: a popped event's record returns to the
   engine's freelist — a growable array stack, so returning a
   record allocates nothing — and is reused by later schedules, so the
   steady-state scheduling path allocates only the caller's closure and
   its timer handle.  A generation counter guards [cancel] against stale
   timer handles to recycled records. *)

type event = {
  mutable run : unit -> unit;
  mutable cancelled : bool;
  mutable gen : int; (* bumped when the record returns to the pool *)
}

type timer = { ev : event; tgen : int }

let noop_run () = ()

(* A staged cross-shard item: a single event, or a pooled fan-out group
   — the caller's [times] and [deliver] plus the group's agenda (see
   [agenda_for]).  A group occupies one outbox slot and one heap slot
   however many entries it carries (DESIGN.md §17). *)
type staged =
  | Sone of Time.t * event
  | Sgroup of Time.t array * int array * (int -> unit)

type shard = {
  sid : int;
  heap : event Heap.t;
  srng : Rdb_prng.Rng.t;
  (* Cross-shard events staged during an epoch, indexed by destination
     shard, most-recent first; drained at barriers. *)
  outboxes : staged list array;
}

type control = { ctime : Time.t; cseq : int; crun : unit -> unit }

type t = {
  shards : shard array;
  (* The shard whose events are executing; [None] between epochs, in
     control actions and before the first run. *)
  mutable cur : shard option;
  root_rng : Rdb_prng.Rng.t;
  lookahead : Time.t;
  mutable now : Time.t;
  mutable seq : int; (* last sequence number handed to any heap *)
  mutable executed : int;
  (* Freelist of recycled event records: a stack in [pool.(0 ..
     pool_len - 1)], grown by doubling. *)
  mutable pool : event array;
  mutable pool_len : int;
  mutable controls : control list; (* sorted by (ctime, cseq) *)
  mutable cseq : int;
  (* Schedule-exploration hook (lib/check): when installed, the nth
     schedule call (0-based) may be pushed behind its equal-timestamp
     group — a legal permutation of simultaneous events.  [None] costs
     one match per schedule.  Single-shard engines only. *)
  mutable defer_hook : (int -> bool) option;
  mutable sched_calls : int;
}

(* Far above any per-run event count, far below overflow: deferred
   events sort after every normally-sequenced event of the same
   timestamp while preserving their own relative order. *)
let defer_offset = 1_000_000_000

let create ?(seed = 42) ?(shards = 1) ?(lookahead = max_int) () =
  if shards < 1 then invalid_arg "Engine.create: shards must be >= 1";
  if shards > 1 && Time.( <= ) lookahead Time.zero then
    invalid_arg "Engine.create: multi-shard engines need a positive lookahead";
  let root_rng = Rdb_prng.Rng.create (Int64.of_int seed) in
  let mk_shard sid =
    {
      sid;
      heap = Heap.create ();
      (* Single-shard engines keep the root RNG as the shard RNG — the
         pre-sharding behavior, relied on by direct Engine users. *)
      srng =
        (if shards = 1 then root_rng else Rdb_prng.Rng.split root_rng ~index:sid);
      outboxes = Array.make shards [];
    }
  in
  {
    shards = Array.init shards mk_shard;
    cur = None;
    root_rng;
    lookahead;
    now = Time.zero;
    seq = 0;
    executed = 0;
    pool = [||];
    pool_len = 0;
    controls = [];
    cseq = 0;
    defer_hook = None;
    sched_calls = 0;
  }

let n_shards t = Array.length t.shards

let current_shard_id t = match t.cur with Some s -> s.sid | None -> 0
let lookahead t = t.lookahead

let now t = t.now
let rng t = match t.cur with Some s -> s.srng | None -> t.root_rng
let rng_of_shard t ~shard = t.shards.(shard).srng

let executed_events t = t.executed

let staged_count = function
  | Sone _ -> 1
  | Sgroup (_, agenda, _) -> Array.length agenda / 2

let pending_events t =
  Array.fold_left
    (fun acc s ->
      Array.fold_left
        (fun acc l -> List.fold_left (fun acc e -> acc + staged_count e) acc l)
        (acc + Heap.length s.heap) s.outboxes)
    0 t.shards

let set_defer_hook t h =
  if Array.length t.shards > 1 && h <> None then
    invalid_arg "Engine.set_defer_hook: schedule exploration requires a single-shard engine";
  t.defer_hook <- h;
  t.sched_calls <- 0

let schedule_calls t = t.sched_calls

(* -- event records ------------------------------------------------------ *)

let alloc_event t f =
  if t.pool_len = 0 then { run = f; cancelled = false; gen = 0 }
  else begin
    let n = t.pool_len - 1 in
    t.pool_len <- n;
    let e = Array.unsafe_get t.pool n in
    e.run <- f;
    e
  end

(* Recycle into the freelist.  The generation bump invalidates any timer
   handle still pointing here. *)
let release_event t e =
  e.run <- noop_run;
  e.cancelled <- false;
  e.gen <- e.gen + 1;
  let n = t.pool_len in
  if n = Array.length t.pool then begin
    (* The stack is full, so every slot holds a live record: the
       doubled array is filled with [e] until pushes overwrite it. *)
    let np = Array.make (max 64 (2 * n)) e in
    Array.blit t.pool 0 np 0 n;
    t.pool <- np
  end;
  Array.unsafe_set t.pool n e;
  t.pool_len <- n + 1

let pooled_events t = t.pool_len

(* -- scheduling --------------------------------------------------------- *)

(* Reserve the next sequence number for one schedule call; under
   schedule exploration the defer hook may push it behind its
   equal-timestamp group. *)
let next_seq t =
  t.seq <- t.seq + 1;
  match t.defer_hook with
  | None -> t.seq
  | Some defer ->
      let n = t.sched_calls in
      t.sched_calls <- n + 1;
      if defer n then t.seq + defer_offset else t.seq

(* Schedule onto [s]'s heap (clamped to the clock: scheduling in the
   past runs "immediately", preserving causality). *)
let schedule_local t s ~at f =
  let at = Time.max at t.now in
  let seq = next_seq t in
  let ev = alloc_event t f in
  Heap.push s.heap ~time:at ~seq ev;
  { ev; tgen = ev.gen }

(* The executing shard, or shard 0 from outside event execution (the
   single-shard case and pre-run setup). *)
let executing t = match t.cur with Some s -> s | None -> t.shards.(0)

(* Schedule [f] at absolute simulated time [at] on the current shard. *)
let schedule_at t ~at f = schedule_local t (executing t) ~at f

let schedule_after t ~delay f = schedule_at t ~at:(Time.add (now t) delay) f

(* Schedule onto an explicit shard — the cross-shard path used by the
   network (routing a delivery to the destination's shard) and by
   control actions re-arming per-node timers. *)
let schedule_at_shard t ~shard ~at f =
  match t.cur with
  | Some s when s.sid = shard -> schedule_local t s ~at f
  | Some s ->
      (* Cross-shard from inside an epoch: stage in the sender's outbox.
         Conservative lookahead means [at] can only land at or beyond
         the epoch horizon, so the destination cannot have passed it. *)
      let ev = alloc_event t f in
      s.outboxes.(shard) <- Sone (at, ev) :: s.outboxes.(shard);
      { ev; tgen = ev.gen }
  | None -> schedule_local t t.shards.(shard) ~at f

(* -- pooled fan-out ----------------------------------------------------- *)

(* Push a pre-sequenced event: [seq] was reserved up front by the
   fan-out path, so the counter is not consulted again. *)
let push_at t s ~at ~seq f = Heap.push s.heap ~time:at ~seq (alloc_event t f)

(* A fan-out group's agenda is one int array: slot 0 is the walk
   position, and the group's p-th entry is entry [a.(1 + 2p)] of the
   caller's arrays, scheduled under sequence number [a.(2 + 2p)].
   [agenda_for] lists the entries bound for shard [sh] in call order,
   sequence numbers still unset ([||] when there are none). *)
let agenda_for ~shards sh =
  let m = ref 0 in
  for i = 0 to Array.length shards - 1 do
    if shards.(i) = sh then incr m
  done;
  if !m = 0 then [||]
  else begin
    let a = Array.make (1 + (2 * !m)) 0 in
    let p = ref 0 in
    for i = 0 to Array.length shards - 1 do
      if shards.(i) = sh then begin
        a.(1 + (2 * !p)) <- i;
        incr p
      end
    done;
    a
  end

(* Sort an agenda by (time clamped to [floor], seq).  Insertion sort:
   it allocates nothing, and a group holds only one send's recipients
   on one shard, so its quadratic worst case stays small. *)
let sort_agenda ~floor ~times a =
  for p = 1 to (Array.length a / 2) - 1 do
    let i = a.(1 + (2 * p)) and sq = a.(2 + (2 * p)) in
    let at = Time.max times.(i) floor in
    let q = ref (p - 1) in
    while
      !q >= 0
      &&
      let c = Time.compare at (Time.max times.(a.(1 + (2 * !q))) floor) in
      c < 0 || (c = 0 && sq < a.(2 + (2 * !q)))
    do
      a.(3 + (2 * !q)) <- a.(1 + (2 * !q));
      a.(4 + (2 * !q)) <- a.(2 + (2 * !q));
      decr q
    done;
    a.(3 + (2 * !q)) <- i;
    a.(4 + (2 * !q)) <- sq
  done

(* Push one pooled record for a sequenced agenda bound for shard [s]:
   entry [i] runs [deliver i] at [times.(i)] clamped to [floor].  The
   record walks the agenda in (time, seq) order: each pop delivers one
   entry and re-inserts the record keyed at the next, so an m-entry
   group occupies one heap slot instead of m.  The keys are exactly
   those m individual schedules would have used and the record always
   carries the least remaining one, so the engine's pop order — and
   every downstream effect — is unchanged (DESIGN.md §17).  The record
   only ever runs on [s], so [run] finds [s] as the executing shard
   rather than capturing it beside [t]. *)
let push_group t s ~floor ~times ~agenda:a ~deliver =
  sort_agenda ~floor ~times a;
  let rec run () =
    let p = a.(0) + 1 in
    a.(0) <- p;
    if (2 * p) + 1 < Array.length a then
      push_at t (executing t) ~at:(Time.max times.(a.(1 + (2 * p))) floor) ~seq:a.(2 + (2 * p)) run;
    deliver a.((2 * p) - 1)
  in
  push_at t s ~at:(Time.max times.(a.(1)) floor) ~seq:a.(2) run

(* Schedule [deliver i] at [times.(i)] on shard [shards.(i)] for every
   entry [i], exactly as [k] separate [schedule_at_shard] calls would,
   as one pooled record per destination shard.  Entries for a shard
   the caller may push to directly — the executing shard, or any shard
   from outside event execution — reserve their sequence numbers now,
   in call order and through the defer hook like any schedule call.
   Entries for another shard stage as one outbox group that the barrier
   expands into consecutive sequence numbers at the group's FIFO
   position.  Either way the executed schedule is the one [k]
   individual schedules produce. *)
let fanout t ~shards ~times ~deliver =
  for sh = 0 to Array.length t.shards - 1 do
    let agenda = agenda_for ~shards sh in
    if Array.length agenda > 0 then
      match t.cur with
      | Some s when s.sid <> sh ->
          s.outboxes.(sh) <- Sgroup (times, agenda, deliver) :: s.outboxes.(sh)
      | _ ->
          (* Only one-shard engines take a defer hook, so reserving
             shard by shard is reserving in call order. *)
          let d = t.shards.(sh) in
          for p = 0 to (Array.length agenda / 2) - 1 do
            agenda.(2 + (2 * p)) <- next_seq t
          done;
          push_group t d ~floor:t.now ~times ~agenda ~deliver
  done

(* Global control action at absolute time [at]: runs at an epoch
   barrier with all shards stopped, before same-time ordinary events.
   Controls keep their scheduling order at equal times. *)
let schedule_control t ~at f =
  t.cseq <- t.cseq + 1;
  let c = { ctime = at; cseq = t.cseq; crun = f } in
  let rec insert = function
    | [] -> [ c ]
    | c' :: rest when Time.( <= ) c'.ctime c.ctime -> c' :: insert rest
    | rest -> c :: rest
  in
  t.controls <- insert t.controls

let cancel (tm : timer) = if tm.ev.gen = tm.tgen then tm.ev.cancelled <- true

(* -- execution ---------------------------------------------------------- *)

(* Push [d]'s staged entries from one source, in FIFO order, under
   fresh sequence numbers.  A group expands exactly where its entries
   would have sat in the FIFO: consecutive numbers in staging order. *)
let rec land_staged t d = function
  | [] -> ()
  | Sone (at, ev) :: rest ->
      t.seq <- t.seq + 1;
      Heap.push d.heap ~time:(Time.max at t.now) ~seq:t.seq ev;
      land_staged t d rest
  | Sgroup (times, agenda, deliver) :: rest ->
      for p = 0 to (Array.length agenda / 2) - 1 do
        t.seq <- t.seq + 1;
        agenda.(2 + (2 * p)) <- t.seq
      done;
      push_group t d ~floor:t.now ~times ~agenda ~deliver;
      land_staged t d rest

(* Drain staged cross-shard events into destination heaps.  Canonical
   order — destination shards ascending, then source shards ascending,
   then FIFO per source — so the merge is independent of the order the
   previous epoch ran its shards in. *)
let drain_outboxes t =
  let z = Array.length t.shards in
  for dst = 0 to z - 1 do
    let d = t.shards.(dst) in
    for src = 0 to z - 1 do
      match t.shards.(src).outboxes.(dst) with
      | [] -> ()
      | staged ->
          t.shards.(src).outboxes.(dst) <- [];
          land_staged t d (List.rev staged)
    done
  done

(* Execute [s]'s events with time < bound (or <= when [incl]).  Runs
   with [s] as the executing shard, so everything the events do
   resolves to it.  An event that raises leaves [s] executing, so the
   caller still reads the failing event's clock from [now]. *)
let run_shard t s ~bound ~incl =
  t.cur <- Some s;
  let continue = ref true in
  while !continue do
    let mt = Heap.min_time s.heap in
    if
      mt = max_int
      || (if incl then Time.( > ) mt bound else Time.( >= ) mt bound)
    then continue := false
    else begin
      let ev = Heap.pop_payload s.heap in
      if ev.cancelled then release_event t ev
      else begin
        t.now <- mt;
        t.executed <- t.executed + 1;
        let f = ev.run in
        release_event t ev;
        f ()
      end
    end
  done;
  t.cur <- None

(* One epoch: every shard in shard order.  Shard event sequences are
   independent within an epoch (the conservative invariant), so the
   order cannot affect outcomes. *)
let run_epoch t ~bound ~incl = Array.iter (fun s -> run_shard t s ~bound ~incl) t.shards

let advance_clock t at = if Time.( < ) t.now at then t.now <- at

(* Run due controls: the head group of equal scheduled times. *)
let run_control_group t =
  match t.controls with
  | [] -> ()
  | c0 :: _ ->
      advance_clock t c0.ctime;
      let rec go () =
        match t.controls with
        | c :: rest when Time.compare c.ctime c0.ctime = 0 ->
            t.controls <- rest;
            c.crun ();
            go ()
        | _ -> ()
      in
      go ()

let sat_add (a : Time.t) (b : Time.t) = if b > max_int - a then max_int else a + b

(* The epoch loop shared by [run_until] and [run].  Executes every
   event and control with time <= [until]; when [advance], the clock
   ends at [until] even if the queues drained early, so back-to-back
   calls observe monotone time. *)
let exec_until t ~until ~advance =
  let continue = ref true in
  while !continue do
    drain_outboxes t;
    let next_ev =
      Array.fold_left (fun acc s -> Time.min acc (Heap.min_time s.heap)) max_int t.shards
    in
    let next_c = match t.controls with [] -> max_int | c :: _ -> c.ctime in
    if Time.( <= ) next_c until && Time.( <= ) next_c next_ev then
      (* Control barrier: all shards stopped at the control time. *)
      run_control_group t
    else if next_ev = max_int || Time.( > ) next_ev until then begin
      if advance then advance_clock t until;
      continue := false
    end
    else begin
      (* Conservative horizon: everything below min-event + lookahead is
         safe to run; cut at the next control and at [until]. *)
      let cap = sat_add next_ev t.lookahead in
      if Time.( >= ) cap until && Time.( > ) next_c until then begin
        (* Final epoch: inclusive of [until] (the run_until contract). *)
        run_epoch t ~bound:until ~incl:true;
        advance_clock t until
      end
      else begin
        let bound = Time.min cap next_c in
        run_epoch t ~bound ~incl:false;
        advance_clock t bound
      end
    end
  done

let run_until t ~until = exec_until t ~until ~advance:true

(* Run to quiescence (no pending events or controls). *)
let run t =
  while pending_events t > 0 || t.controls <> [] do
    let next_ev =
      Array.fold_left (fun acc s -> Time.min acc (Heap.min_time s.heap)) max_int t.shards
    in
    let next_c = match t.controls with [] -> max_int | c :: _ -> c.ctime in
    let next = Time.min next_ev next_c in
    if next = max_int then drain_outboxes t
    else exec_until t ~until:next ~advance:false
  done

(* Execute the next pending event; [false] when the queue is exhausted.
   Single-shard engines only (unit tests and interactive stepping). *)
let step t =
  if Array.length t.shards > 1 then invalid_arg "Engine.step: single-shard engines only";
  let s = t.shards.(0) in
  if Heap.is_empty s.heap then false
  else begin
    let time = Heap.min_time s.heap in
    let ev = Heap.pop_payload s.heap in
    if ev.cancelled then release_event t ev
    else begin
      t.now <- time;
      t.executed <- t.executed + 1;
      let f = ev.run in
      release_event t ev;
      f ()
    end;
    true
  end
