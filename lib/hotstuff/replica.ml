(* HotStuff (Yin et al., PODC 2019), in the exact configuration the
   paper implemented in ResilientDB (§3 "Other protocols"):

   - the four-phase basic protocol: prepare → precommit → commit →
     decide, each phase a leader-broadcast followed by a vote round
     back to the leader (O(8·zn) messages per decision, Table 2);
   - *no threshold signatures* ("As there is no readily available
     implementation for threshold signatures ... we skip the
     construction and verification of threshold signatures"): quorum
     certificates therefore carry n − f individual signatures, and
     every replica receiving a QC pays n − f signature verifications —
     the computational ceiling the paper observes ("the high
     computational costs of the protocol prevent it from reaching high
     throughput in any setting");
   - *every replica acts as a primary in parallel, without
     pacemaker-based synchronization*: replica i runs instance i,
     ordering the batches submitted to it.  Instances are independent
     logs; each replica executes an instance's decided batches in that
     instance's height order.  A crashed replica stalls only its own
     instance (clients rotate to a live leader on retransmission),
     which reproduces HotStuff's moderate degradation under failures
     in Figure 12.

   Clients submit to their local region's replicas round-robin and wait
   for f_global + 1 matching replies. *)

module Batch = Rdb_types.Batch
module Config = Rdb_types.Config
module Ctx = Rdb_types.Ctx
module Wire = Rdb_types.Wire
module Client_core = Rdb_types.Client_core
module Time = Rdb_sim.Time
module Cpu = Rdb_sim.Cpu
module Sha256 = Rdb_crypto.Sha256
module Recovery = Rdb_recovery.Recovery
module Mutation = Rdb_types.Mutation
module Evidence = Rdb_types.Evidence

let name = "HotStuff"

(* Heights a leader may run concurrently within one instance: chained
   HotStuff keeps one proposal per phase in flight, i.e. a pipeline of
   depth 4. *)
let instance_window = 4

type phase = Prepare | Precommit | Commit

let phase_index = function Prepare -> 0 | Precommit -> 1 | Commit -> 2

type msg =
  | Request of Batch.t
  | Propose of { inst : int; height : int; batch : Batch.t }
  | Vote of { inst : int; height : int; phase : phase; digest : string }
  (* Leader's phase certificate: precommit/commit/decide broadcast,
     justified by n − f votes of the previous phase. *)
  | Qc of { inst : int; height : int; phase : phase; digest : string }
  | Reply of { batch_id : int; result_digest : string }
  (* Ledger state transfer (lib/recovery), the same rejoin idiom as
     Pbft/GeoBFT checkpoint catch-up: a replica whose instance stalled
     behind the heights it can see asks for the contiguous executed
     suffix of that instance's log starting at its own frontier, and a
     peer that executed it streams the batches back in chunks.  The
     requester chains further [Fetch_log]s as chunks land, so a
     multi-second outage heals in a few round trips.  This is what
     heals instances after crashes and link outages, which otherwise
     leave permanent holes (DESIGN.md §8). *)
  | Fetch_log of { inst : int; from : int }
  | Log_suffix of { inst : int; from : int; batches : Batch.t list }

(* Per-(instance, height) consensus state. *)
type slot = {
  mutable batch : Batch.t option;
  votes : (int, int) Hashtbl.t array;    (* per phase: voter -> 1 *)
  mutable qc_seen : bool array;          (* phases we advanced through *)
  mutable decided : bool;
}

type inst_state = {
  owner : int;
  pending : Batch.t Queue.t;             (* leader-side queue *)
  mutable next_height : int;             (* leader: next height to propose *)
  mutable decided_below : int;           (* leader: heights decided (window) *)
  slots : (int, slot) Hashtbl.t;
  mutable next_exec : int;               (* executing this instance in order *)
  mutable max_seen : int;                (* highest height seen proposed/certified *)
  (* Every executed batch of this instance, kept for the life of the
     run so the replica can serve [Fetch_log] arbitrarily far back: a
     bounded window is the state-transfer gap (an outage longer than
     it left holes no peer could serve).  Entries are shared batch
     values, so the cost is one table slot per decided height. *)
  archive : (int, Batch.t) Hashtbl.t;
  seen : (string, unit) Hashtbl.t;       (* leader-side dedup *)
  (* Frontier of the last [Fetch_log] sent for this instance (-1 =
     none): dedups the event-driven catch-up trigger so one chain is
     in flight per frontier; the stall task re-requests after backoff
     if the chain was lost. *)
  mutable fetched_from : int;
}

type replica = {
  ctx : msg Ctx.t;
  cfg : Config.t;
  n : int;                               (* total replicas = instances *)
  quorum : int;
  insts : inst_state array;
  mutable decided_total : int;
  (* Digests of the batches this replica has executed, in any instance:
     a client retry rotates to another leader, so two instances can
     order the same batch. *)
  executed_digests : (string, unit) Hashtbl.t;
  recovery : Recovery.t;
}

(* Catch-up tuning: the event-driven trigger fetches once the hole is
   this deep (shallower ones wait for the stall task), and a
   [Log_suffix] streams at most [log_chunk] batches so one reply never
   monopolizes the serving replica's uplink. *)
let nudge_depth = 64
let log_chunk = 256

(* Receipt digest, not an execution-result digest: the parallel
   instances give replicas no common global execution order, so real
   per-txn results can legitimately differ across replicas and could
   never gather f+1 matches.  Clients of this HotStuff configuration
   get agreement on *ordering* receipts only (the paper's clients
   likewise wait for matching responses per instance decision). *)
let result_digest (b : Batch.t) = Sha256.digest_list [ "result"; b.Batch.digest ]

(* The paper's implementation "skips the construction and verification
   of threshold signatures" entirely: votes and QCs are only
   MAC-authenticated, which (with the parallel primaries) is what gives
   their HotStuff its strong showing.  We reproduce that: every message
   pays only the receive floor, plus the client-signature check on
   proposals.  A QC and each batch of a [Log_suffix] are charged four
   signature entries at every n, not n − f (3 at n = 4, 5 at n = 7):
   a fixed size this declaration keeps until ROADMAP item 4 counts it. *)
let wire cfg m : Wire.cost =
  let batch_size = cfg.Config.batch_size in
  let fill = Wire.fill_bytes ~batch_size ~sigs:4 in
  match m with
  | Request _ -> { bytes = Client_core.request_bytes cfg; verifies = 0 }
  | Propose _ -> { bytes = Wire.batch_bytes ~batch_size; verifies = 1 }
  | Vote _ -> { bytes = Wire.small; verifies = 0 }
  | Qc _ -> { bytes = Wire.small + (Wire.commit_entry_bytes * 4); verifies = 0 }
  | Reply _ -> { bytes = Client_core.reply_bytes cfg; verifies = 0 }
  | Fetch_log _ -> { bytes = Wire.fetch_bytes; verifies = 0 }
  | Log_suffix { batches; _ } -> { bytes = Wire.small + (List.length batches * fill); verifies = 0 }

let broadcast r m =
  let dsts = ref [] in
  for dst = r.n - 1 downto 0 do
    if dst <> r.ctx.Ctx.id then dsts := dst :: !dsts
  done;
  Ctx.multicast r.ctx ~dsts:!dsts m

let slot_of inst height =
  match Hashtbl.find_opt inst.slots height with
  | Some s -> s
  | None ->
      let s =
        {
          batch = None;
          votes = Array.init 3 (fun _ -> Hashtbl.create 8);
          qc_seen = Array.make 3 false;
          decided = false;
        }
      in
      Hashtbl.replace inst.slots height s;
      s

(* -- catch-up ------------------------------------------------------------ *)

let decided inst h =
  match Hashtbl.find_opt inst.slots h with Some s -> s.decided | None -> false

(* An instance is stalled when heights it can see proposed/certified
   run more than a pipeline window ahead of what it has executed: in
   healthy operation the leader keeps at most [instance_window]
   heights in flight, so a larger gap means deliveries were lost. *)
let inst_stalled inst = inst.max_seen >= inst.next_exec + instance_window

let any_stalled r = Array.exists inst_stalled r.insts

(* Progress token for the stall task: must reflect only the *stalled*
   instances — summing every instance's cursor would reset the backoff
   on each execution in a healthy instance and starve the task. *)
let stall_token r =
  Array.fold_left
    (fun acc inst -> if inst_stalled inst then acc + inst.next_exec + 1 else acc)
    0 r.insts

(* Ask for the instance's log from our frontier: its leader first (it
   certainly decided the heights), everyone once that link proves to be
   the faulty one.  Chunk replies chain further [Fetch_log]s without
   waiting on the stall task's backoff. *)
let fetch_log r inst ~attempt =
  Recovery.note_retransmit r.recovery;
  inst.fetched_from <- inst.next_exec;
  let m = Fetch_log { inst = inst.owner; from = inst.next_exec } in
  if attempt = 0 && inst.owner <> r.ctx.Ctx.id then Ctx.send r.ctx ~dst:inst.owner m
  else broadcast r m

(* Event-driven catch-up.  The first delivery after an outage heals is
   what reveals the hole (max_seen jumps past the pipeline window);
   fetching right here — instead of waiting out whatever backoff the
   stall task accumulated while its requests were being dropped — is
   what keeps the executed-set divergence inside the chaos monitor's
   slack.  [fetched_from] dedups to one in-flight chain per frontier;
   lost chains and shallow holes are left to the task. *)
let nudge_catch_up r inst =
  Recovery.ensure r.recovery;
  if
    inst.max_seen - inst.next_exec >= nudge_depth
    && (not (decided inst inst.next_exec))
    && inst.fetched_from <> inst.next_exec
  then fetch_log r inst ~attempt:0

let create_replica (ctx : msg Ctx.t) =
  let cfg = ctx.Ctx.config in
  let n = Config.n_replicas cfg in
  let f = (n - 1) / 3 in
  let r =
    {
      ctx;
      cfg;
      n;
      quorum = n - f;
      recovery = Recovery.create ctx;
      insts =
        Array.init n (fun owner ->
            {
              owner;
              pending = Queue.create ();
              next_height = 0;
              decided_below = 0;
              slots = Hashtbl.create 64;
              next_exec = 0;
              max_seen = -1;
              archive = Hashtbl.create 64;
              seen = Hashtbl.create 256;
              fetched_from = -1;
            });
      decided_total = 0;
      executed_digests = Hashtbl.create 256;
    }
  in
  Recovery.watch r.recovery
    ~needed:(fun () -> any_stalled r)
    ~progress:(fun () -> stall_token r)
    ~fire:(fun ~attempt ->
      Array.iter (fun inst -> if inst_stalled inst then fetch_log r inst ~attempt) r.insts);
  r

let view_changes (_ : replica) = 0
let decided_total r = r.decided_total

(* Crash-recover: any stall task armed before the crash died with its
   timer; re-arm if an instance is stalled. *)
let on_recover (r : replica) = if any_stalled r then Recovery.start r.recovery

let recovery (r : replica) = Recovery.stats r.recovery



(* -- leader side ---------------------------------------------------------- *)

(* Trace-phase slot key for (instance owner, height): instances are
   per-replica logs, so heights alone would collide across owners. *)
let hs_key ~owner ~height = ((owner + 1) lsl 32) lor height

let rec leader_propose r inst =
  if
    inst.owner = r.ctx.Ctx.id
    && (not (Queue.is_empty inst.pending))
    && inst.next_height < inst.decided_below + instance_window
  then begin
    let batch = Queue.pop inst.pending in
    let height = inst.next_height in
    inst.next_height <- height + 1;
    r.ctx.Ctx.charge ~stage:Cpu.Batching ~cost:(Config.batch_asm_cost r.cfg) (fun () ->
        let s = slot_of inst height in
        s.batch <- Some batch;
        r.ctx.Ctx.phase ~key:(hs_key ~owner:inst.owner ~height) ~name:"propose";
        broadcast r (Propose { inst = inst.owner; height; batch });
        (* The leader's proposal is its own prepare vote. *)
        record_vote r inst ~height ~phase:Prepare ~voter:r.ctx.Ctx.id ~digest:batch.Batch.digest);
    leader_propose r inst
  end

and record_vote r inst ~height ~phase ~voter ~digest:_ =
  let s = slot_of inst height in
  let tbl = s.votes.(phase_index phase) in
  if not (Hashtbl.mem tbl voter) then begin
    Hashtbl.replace tbl voter 1;
    let gate = if Mutation.is "hotstuff-qc-quorum" then r.quorum - 1 else r.quorum in
    if Hashtbl.length tbl >= gate then begin
      let pi = phase_index phase in
      if not s.qc_seen.(pi) then begin
        Evidence.note ~point:"hotstuff.qc" ~node:r.ctx.Ctx.id ~count:(Hashtbl.length tbl)
          ~need:r.quorum;
        s.qc_seen.(pi) <- true;
        match s.batch with
        | None -> ()
        | Some b ->
            (* Broadcast the QC that opens the next phase (or decides);
               QCs are MAC-authenticated (no threshold signatures). *)
            let next = Qc { inst = inst.owner; height; phase; digest = b.Batch.digest } in
            broadcast r next;
            apply_qc r inst ~height ~phase
      end
    end
  end

(* A QC for [phase] advances the slot; at the leader it also counts as
   the leader's own next-phase vote. *)
and apply_qc r inst ~height ~phase =
  let s = slot_of inst height in
  match s.batch with
  | None -> ()
  | Some b -> (
      let digest = b.Batch.digest in
      let me = r.ctx.Ctx.id in
      let i_am_leader = inst.owner = me in
      let key = hs_key ~owner:inst.owner ~height in
      match phase with
      | Prepare ->
          r.ctx.Ctx.phase ~key ~name:"prepare";
          if i_am_leader then record_vote r inst ~height ~phase:Precommit ~voter:me ~digest
          else vote r inst ~height ~phase:Precommit ~digest
      | Precommit ->
          (* The precommit QC is HotStuff's lock: from here the slot can
             only decide, so it maps onto the generic "commit" phase. *)
          r.ctx.Ctx.phase ~key ~name:"commit";
          if i_am_leader then record_vote r inst ~height ~phase:Commit ~voter:me ~digest
          else vote r inst ~height ~phase:Commit ~digest
      | Commit -> decide r inst ~height)

and vote r inst ~height ~phase ~digest =
  Ctx.send r.ctx ~dst:inst.owner (Vote { inst = inst.owner; height; phase; digest })

and decide r inst ~height =
  let s = slot_of inst height in
  if not s.decided then begin
    s.decided <- true;
    if inst.owner = r.ctx.Ctx.id then begin
      inst.decided_below <- inst.decided_below + 1;
      leader_propose r inst
    end;
    exec_ready r inst
  end

(* Execute this instance's decided heights in order. *)
and exec_ready r inst =
  match Hashtbl.find_opt inst.slots inst.next_exec with
  | Some s when s.decided -> (
      match s.batch with
      | None -> ()
      | Some batch ->
          inst.next_exec <- inst.next_exec + 1;
          Hashtbl.replace inst.archive (inst.next_exec - 1) batch;
          Hashtbl.remove inst.slots (inst.next_exec - 64);
          r.decided_total <- r.decided_total + 1;
          let exec_height = inst.next_exec - 1 in
          (* A later decided copy of an executed batch only advances
             this instance's frontier. *)
          if Hashtbl.mem r.executed_digests batch.Batch.digest then exec_ready r inst
          else begin
            Hashtbl.replace r.executed_digests batch.Batch.digest ();
            r.ctx.Ctx.execute batch ~cert:None ~on_done:(fun _ ->
                r.ctx.Ctx.phase ~key:(hs_key ~owner:inst.owner ~height:exec_height) ~name:"execute";
                (if not (Batch.is_noop batch) then
                   Ctx.send r.ctx ~dst:batch.Batch.origin
                     (Reply { batch_id = batch.Batch.id; result_digest = result_digest batch }));
                exec_ready r inst)
          end)
  | _ -> ()

(* -- dispatch --------------------------------------------------------------- *)

let on_message r ~src (m : msg) =
  match m with
  | Request batch ->
      (* We are this batch's designated leader: order it in our own
         instance. *)
      let inst = r.insts.(r.ctx.Ctx.id) in
      if
        (not (Hashtbl.mem inst.seen batch.Batch.digest))
        && Batch.verify ~keychain:r.ctx.Ctx.keychain batch
      then begin
        Hashtbl.replace inst.seen batch.Batch.digest ();
        Queue.push batch inst.pending;
        leader_propose r inst
      end
  | Propose { inst = i; height; batch } ->
      if i = src && i <> r.ctx.Ctx.id then begin
        let inst = r.insts.(i) in
        inst.max_seen <- max inst.max_seen height;
        let s = slot_of inst height in
        if s.batch = None then begin
          s.batch <- Some batch;
          r.ctx.Ctx.phase ~key:(hs_key ~owner:i ~height) ~name:"propose";
          vote r inst ~height ~phase:Prepare ~digest:batch.Batch.digest
        end;
        if inst_stalled inst then nudge_catch_up r inst
      end
  | Vote { inst = i; height; phase; digest } ->
      if i = r.ctx.Ctx.id then record_vote r r.insts.(i) ~height ~phase ~voter:src ~digest
  | Qc { inst = i; height; phase; digest = _ } ->
      if i = src && i <> r.ctx.Ctx.id then begin
        let inst = r.insts.(i) in
        inst.max_seen <- max inst.max_seen height;
        apply_qc r inst ~height ~phase;
        if inst_stalled inst then nudge_catch_up r inst
      end
  | Fetch_log { inst = i; from } ->
      (* Serve a contiguous executed suffix of this instance's log from
         the archive, capped at [log_chunk] batches per reply.  Asking
         at or past our frontier yields nothing (the stall task's
         backoff covers the retry). *)
      let inst = r.insts.(i) in
      if from >= 0 && from < inst.next_exec then begin
        let upto = min inst.next_exec (from + log_chunk) in
        let batches = ref [] in
        let complete = ref true in
        for h = upto - 1 downto from do
          match Hashtbl.find_opt inst.archive h with
          | Some b -> batches := b :: !batches
          | None -> complete := false
        done;
        if !complete && !batches <> [] then
          Ctx.send r.ctx ~dst:src (Log_suffix { inst = i; from; batches = !batches })
      end
  | Log_suffix { inst = i; from; batches } ->
      (* Install: each entry is trusted like a checkpoint block (the
         serving replica executed it, so its digest is fixed by
         agreement).  Installing fresh heights counts as one state
         transfer; if the instance is still behind afterwards, chain
         the next chunk immediately instead of waiting for the stall
         task. *)
      let inst = r.insts.(i) in
      let installed = ref 0 in
      List.iteri
        (fun k batch ->
          let h = from + k in
          inst.max_seen <- max inst.max_seen h;
          let s = slot_of inst h in
          if (not s.decided) && h >= inst.next_exec then begin
            if s.batch = None then s.batch <- Some batch;
            s.decided <- true;
            incr installed
          end)
        batches;
      Recovery.note_installed r.recovery ~filled:!installed;
      if !installed > 0 then begin
        exec_ready r inst;
        let next_from = from + List.length batches in
        if inst_stalled inst && next_from <= inst.max_seen && not (decided inst next_from)
        then begin
          inst.fetched_from <- next_from;
          Ctx.send r.ctx ~dst:src (Fetch_log { inst = i; from = next_from })
        end
      end
  | Reply _ -> ()

(* -- client ------------------------------------------------------------------ *)

type client = msg Client_core.t

let create_client (ctx : msg Ctx.t) ~cluster =
  let cfg = ctx.Ctx.config in
  let locals = Array.of_list (Config.replicas_of_cluster cfg cluster) in
  let rr = ref 0 in
  (* Round-robin over local replicas; a retry naturally rotates to the
     next (live) leader. *)
  let pick () =
    let dst = locals.(!rr mod Array.length locals) in
    incr rr;
    dst
  in
  let f_global = (Config.n_replicas cfg - 1) / 3 in
  (* No consensus-bypass reads: without a cross-instance global order,
     replica states legitimately diverge in interleaving, so read
     digests would not gather f+1 matches — reads go through an
     instance like any other batch. *)
  Client_core.create ~ctx ~threshold:(f_global + 1)
    ~request:(fun b -> Request b) ~route:(Pick pick) ()

let submit = Client_core.submit

let on_client_message (c : client) ~src (m : msg) =
  match m with
  | Reply { batch_id; result_digest } -> Client_core.on_reply c ~src ~batch_id ~result_digest
  | _ -> ()

(* -- adversarial view (lib/adversary) -------------------------------------- *)

(* [Share] covers the leader's phase certificates (QCs).  Content
   equivocation is not modelled: every replica leads its own parallel
   instance, so a two-faced leader maps to instance-local speculation
   that the executed-set monitor attributes with slack rather than as
   a safety decision — the sound primitives here are delay and
   replay. *)
let adversary : msg Rdb_types.Interpose.view =
  let open Rdb_types.Interpose in
  let classify = function
    | Request _ | Reply _ -> Client
    | Propose _ -> Proposal
    | Vote _ -> Vote
    | Qc _ -> Share
    | Fetch_log _ | Log_suffix _ -> Sync
  in
  let conflict ~keychain:_ ~nonce:_ _ = None in
  { classify; conflict }
