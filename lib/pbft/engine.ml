(* The Pbft replication engine (Castro & Liskov) for one cluster.

   This single engine plays two roles in the repo, mirroring the paper:
   - it is the *local replication* step of GeoBFT (§2.2): each cluster
     runs one instance over its n replicas, producing a commit
     certificate per sequence number;
   - it is the standalone Pbft baseline (§4) when instantiated over all
     z·n replicas as one flat cluster.

   Implemented here, beyond the three-phase normal case:
   - commit certificates assembled from n − f signed commit messages
     (the artifact GeoBFT ships across clusters and the ledger stores);
   - checkpointing with quorum-stable garbage collection;
   - local view-changes: censorship timers with exponential back-off,
     view-change/new-view with prepared-certificate carry-over,
     the f+1 join rule, and immediate view-change on provable primary
     equivocation;
   - request forwarding (backups forward client batches to the primary
     and time it out if it censors them);
   - no-op proposals for GeoBFT rounds (§2.5);
   - an externally-triggered view change, the hook GeoBFT's remote
     view-change protocol needs (§2.3, Figure 7, line 17).

   In-order delivery: [on_committed] fires in strictly increasing
   sequence order regardless of commit arrival order. *)

module Batch = Rdb_types.Batch
module Certificate = Rdb_types.Certificate
module Config = Rdb_types.Config
module Ctx = Rdb_types.Ctx
module Wire = Rdb_types.Wire
module Time = Rdb_sim.Time
module Cpu = Rdb_sim.Cpu
module Keychain = Rdb_crypto.Keychain
module Mutation = Rdb_types.Mutation
module Evidence = Rdb_types.Evidence
open Messages

(* A slot's votes are arrays indexed by local member: [absent] (compared
   physically, so no wire digest can alias it) marks a member not yet
   heard from.  The two tallies count the votes matching the slot's
   accepted (view, digest); they are recomputed whenever that changes
   and adjusted on every recorded vote, so a quorum check is O(1). *)
type slot = {
  seq : int;
  mutable sview : int;                     (* view of the accepted preprepare *)
  mutable batch : Batch.t option;
  mutable digest : string option;
  prepares : string array;                 (* local idx -> digest, or [absent] *)
  (* local idx -> (view, digest, signature) of its commit; digest [absent]
     when none *)
  commit_views : int array;
  commit_digests : string array;
  commit_sigs : Rdb_crypto.Schnorr.signature array;
  mutable prepared_votes : int;            (* prepares matching [digest] *)
  mutable committed_votes : int;           (* commits matching (sview, digest) *)
  (* The last commit payload built for this slot and its (view, digest). *)
  mutable payload_view : int;
  mutable payload_digest : string;
  mutable payload : string;
  mutable sent_prepare : bool;
  mutable sent_commit : bool;
  mutable committed : bool;
  mutable emitted : bool;
}

type vc_vote = { v_last_stable : int; v_prepared : prepared_proof list }

type t = {
  ctx : msg Ctx.t;
  members : int array;                     (* global node ids; index = local id *)
  cluster : int;
  me : int;                                (* local index into members *)
  n : int;
  f : int;
  quorum : int;
  mutable view : int;
  mutable mode : [ `Normal | `ViewChange of int ];
  slots : (int, slot) Hashtbl.t;
  mutable unemitted : int;                 (* slots holding a batch not yet emitted *)
  mutable next_seq : int;
  mutable next_emit : int;
  mutable low_water : int;                 (* last stable checkpoint seq *)
  mutable stable_digest : string;          (* chain digest at [low_water] *)
  window : int;                            (* max in-flight sequence numbers *)
  pending : Batch.t Queue.t;               (* primary-side batch queue *)
  pending_digests : (string, unit) Hashtbl.t;
  forwarded : (string, Batch.t) Hashtbl.t; (* batches we forwarded, awaiting commit *)
  executed_digests : (string, unit) Hashtbl.t; (* duplicate-proposal guard *)
  mutable chain : string;                  (* rolling digest of emitted batches *)
  checkpoint_every : int;                  (* in sequence numbers *)
  checkpoints : (int, string array) Hashtbl.t; (* seq -> local idx -> digest *)
  vc_votes : (int, (int, vc_vote) Hashtbl.t) Hashtbl.t;
  mutable vc_timer : Ctx.timer option;
  mutable timeout : Time.t;
  base_timeout : Time.t;
  mutable noop_nonce : int;
  on_committed : seq:int -> Batch.t -> Certificate.t -> unit;
  on_view_change : view:int -> unit;
  mutable on_behind : (seq:int -> unit) option;
      (* fired when a commit arrives so far past [next_emit] that the
         acceptance window already dropped it: the group has moved on
         and only a state transfer can bring this replica back *)
  mutable n_view_changes : int;            (* completed view changes (metric) *)
  mutable deferred : (int * msg) list;     (* messages from views ahead of ours *)
}

(* -- construction ----------------------------------------------------- *)

let absent = String.make 1 '\000'
let no_signature = { Rdb_crypto.Schnorr.e = 0L; s = 0L }

(* Members are contiguous global ids (pbft: 0..z·n−1; a GeoBFT cluster:
   [Config.replica_id ~cluster ~index]), so a sender's local index is
   one subtraction; -1 for a non-member. *)
let local_of members src =
  let i = src - members.(0) in
  if i >= 0 && i < Array.length members then i else -1

let create ~(ctx : msg Ctx.t) ~members ~cluster ~on_committed ~on_view_change () =
  let cfg = ctx.Ctx.config in
  let n = Array.length members in
  Array.iteri
    (fun i m ->
      if m <> members.(0) + i then invalid_arg "Engine.create: members must be contiguous")
    members;
  let me = local_of members ctx.Ctx.id in
  if me < 0 then invalid_arg "Engine.create: this node is not a member";
  let f = (n - 1) / 3 in
  {
    ctx;
    members;
    cluster;
    me;
    n;
    f;
    quorum = n - f;
    view = 0;
    mode = `Normal;
    slots = Hashtbl.create 64;
    unemitted = 0;
    next_seq = 0;
    next_emit = 0;
    low_water = -1;
    stable_digest = Rdb_crypto.Sha256.digest "pbft-chain-genesis";
    window = cfg.Config.pipeline_depth;
    pending = Queue.create ();
    pending_digests = Hashtbl.create 64;
    forwarded = Hashtbl.create 64;
    executed_digests = Hashtbl.create 256;
    chain = Rdb_crypto.Sha256.digest "pbft-chain-genesis";
    checkpoint_every = max 1 (cfg.Config.checkpoint_interval / max 1 cfg.Config.batch_size);
    checkpoints = Hashtbl.create 16;
    vc_votes = Hashtbl.create 4;
    vc_timer = None;
    timeout = Time.of_ms_f cfg.Config.local_timeout_ms;
    base_timeout = Time.of_ms_f cfg.Config.local_timeout_ms;
    noop_nonce = 0;
    on_committed;
    on_view_change;
    on_behind = None;
    n_view_changes = 0;
    deferred = [];
  }

let set_on_behind t fn = t.on_behind <- fn

(* -- basic accessors --------------------------------------------------- *)

let view t = t.view
let n_view_changes t = t.n_view_changes
let primary_local t = t.view mod t.n
let primary t = t.members.(primary_local t)
let is_primary t = primary_local t = t.me
let in_flight t = t.next_seq - t.next_emit
let next_emit t = t.next_emit
let next_seq t = t.next_seq
let pending_count t = Queue.length t.pending

let slot t seq =
  match Hashtbl.find_opt t.slots seq with
  | Some s -> s
  | None ->
      let s =
        {
          seq;
          sview = -1;
          batch = None;
          digest = None;
          prepares = Array.make t.n absent;
          commit_views = Array.make t.n 0;
          commit_digests = Array.make t.n absent;
          commit_sigs = Array.make t.n no_signature;
          prepared_votes = 0;
          committed_votes = 0;
          payload_view = -1;
          payload_digest = absent;
          payload = "";
          sent_prepare = false;
          sent_commit = false;
          committed = false;
          emitted = false;
        }
      in
      Hashtbl.replace t.slots seq s;
      s

(* -- votes ---------------------------------------------------------------- *)

let matches s d = match s.digest with Some x -> String.equal x d | None -> false

(* Member [i] committed over [d] in the slot's accepted view. *)
let commit_matches s i d =
  let d' = s.commit_digests.(i) in
  d' != absent && s.commit_views.(i) = s.sview && String.equal d d'

(* Recount both tallies against the slot's current (sview, digest). *)
let retally s =
  let p = ref 0 and c = ref 0 in
  (match s.digest with
  | Some d ->
      for i = 0 to Array.length s.prepares - 1 do
        let d' = s.prepares.(i) in
        if d' != absent && String.equal d d' then incr p;
        if commit_matches s i d then incr c
      done
  | None -> ());
  s.prepared_votes <- !p;
  s.committed_votes <- !c

(* Record (or overwrite) member [i]'s prepare. *)
let set_prepare s i d =
  let old = s.prepares.(i) in
  if old != absent && matches s old then s.prepared_votes <- s.prepared_votes - 1;
  s.prepares.(i) <- d;
  if matches s d then s.prepared_votes <- s.prepared_votes + 1

(* Record member [i]'s commit; its first one wins. *)
let add_commit s i ~view ~digest ~signature =
  if s.commit_digests.(i) == absent then begin
    s.commit_views.(i) <- view;
    s.commit_digests.(i) <- digest;
    s.commit_sigs.(i) <- signature;
    if view = s.sview && matches s digest then s.committed_votes <- s.committed_votes + 1
  end

(* A slot leaving the live set while it still holds an unemitted batch. *)
let forget t s = if s.batch <> None && not s.emitted then t.unemitted <- t.unemitted - 1

(* Drop a slot's state from an older view; never applied to an emitted
   or committed slot. *)
let clear_slot t s =
  forget t s;
  Array.fill s.prepares 0 t.n absent;
  Array.fill s.commit_digests 0 t.n absent;
  s.prepared_votes <- 0;
  s.committed_votes <- 0;
  s.sview <- -1;
  s.batch <- None;
  s.digest <- None;
  s.sent_prepare <- false;
  s.sent_commit <- false;
  s.committed <- false

(* The payload a commit for this slot in [view] over [digest] signs,
   rebuilt only when (view, digest) differs from the last one asked. *)
let commit_payload t s ~view ~digest =
  if
    not
      (view = s.payload_view && s.payload_digest != absent
      && String.equal digest s.payload_digest)
  then begin
    s.payload_view <- view;
    s.payload_digest <- digest;
    s.payload <- Certificate.commit_payload ~cluster:t.cluster ~view ~seq:s.seq ~digest
  end;
  s.payload

(* -- sending ------------------------------------------------------------ *)

let cfg t = t.ctx.Ctx.config
let batch_bytes t = Wire.batch_bytes ~batch_size:(cfg t).Config.batch_size

let send_to t ~dst_local m = Ctx.send t.ctx ~dst:t.members.(dst_local) m

(* Broadcast to all other members; the caller handles its own copy
   directly (self-delivery never crosses the network). *)
let broadcast t m =
  (* Outbound MACs are generated by the output threads; charge them as
     deferred Misc work so they consume modeled CPU without delaying
     the sends themselves. *)
  t.ctx.Ctx.charge ~stage:Cpu.Misc
    ~cost:(Time.of_us_f ((cfg t).Config.costs.Config.mac_us *. float_of_int (t.n - 1)))
    (fun () -> ());
  let dsts = ref [] in
  for i = t.n - 1 downto 0 do
    if i <> t.me then dsts := t.members.(i) :: !dsts
  done;
  Ctx.multicast t.ctx ~dsts:!dsts m

(* Garbage-collect every slot and checkpoint vote at or below a stable
   checkpoint [seq]. *)
let collect_below t ~seq =
  Hashtbl.filter_map_inplace
    (fun s slot ->
      if s <= seq then begin
        forget t slot;
        None
      end
      else Some slot)
    t.slots;
  Hashtbl.filter_map_inplace (fun s votes -> if s <= seq then None else Some votes) t.checkpoints

(* -- progress timer ------------------------------------------------------ *)

let has_outstanding t =
  (not (Queue.is_empty t.pending)) || Hashtbl.length t.forwarded > 0 || t.unemitted > 0

let rec update_timer t =
  match t.vc_timer with
  | Some _ when not (has_outstanding t) ->
      (match t.vc_timer with Some h -> t.ctx.Ctx.cancel_timer h | None -> ());
      t.vc_timer <- None
  | None when has_outstanding t ->
      t.vc_timer <- Some (t.ctx.Ctx.set_timer ~delay:t.timeout (fun () -> on_timeout t))
  | _ -> ()

and reset_timer t =
  (match t.vc_timer with Some h -> t.ctx.Ctx.cancel_timer h | None -> ());
  t.vc_timer <- None;
  update_timer t

(* -- view change --------------------------------------------------------- *)

and prepared_proofs t : prepared_proof list =
  (* Includes slots already executed locally (above the stable
     checkpoint): they are decided, and carrying their certificates
     into the new view is what stops a new primary from reusing their
     sequence numbers for different batches. *)
  let acc = ref [] in
  Hashtbl.iter
    (fun _ s ->
      if s.seq > t.low_water then
        match (s.batch, s.digest) with
        | Some b, Some d ->
            (* Prepared: accepted preprepare + n − f matching prepares. *)
            if s.prepared_votes >= t.quorum then
              acc := { pp_seq = s.seq; pp_view = s.sview; pp_digest = d; pp_batch = b } :: !acc
        | _ -> ())
    t.slots;
  List.sort (fun a b -> compare a.pp_seq b.pp_seq) !acc

and start_view_change t ~target =
  if target > t.view || (match t.mode with `ViewChange tgt -> target > tgt | `Normal -> target > t.view)
  then begin
    t.mode <- `ViewChange target;
    let prepared = prepared_proofs t in
    let vc = ViewChange { target; last_stable = t.low_water; prepared } in
    (* Sign-ish cost of assembling the view-change message. *)
    t.ctx.Ctx.charge ~stage:Cpu.Worker ~cost:(Config.sign_cost (cfg t)) (fun () -> ());
    broadcast t vc;
    handle_view_change t ~src_local:t.me ~target ~last_stable:t.low_water ~prepared;
    (* If this view change stalls (next primary also faulty), escalate. *)
    t.timeout <- Time.add t.timeout t.timeout;
    reset_timer t
  end

and on_timeout t =
  t.vc_timer <- None;
  let target = (match t.mode with `Normal -> t.view | `ViewChange tgt -> tgt) + 1 in
  start_view_change t ~target

and handle_view_change t ~src_local ~target ~last_stable ~prepared =
  if target > t.view then begin
    let votes =
      match Hashtbl.find_opt t.vc_votes target with
      | Some v -> v
      | None ->
          let v = Hashtbl.create 8 in
          Hashtbl.replace t.vc_votes target v;
          v
    in
    if not (Hashtbl.mem votes src_local) then begin
      Hashtbl.replace votes src_local { v_last_stable = last_stable; v_prepared = prepared };
      (* f+1 join rule: at least one non-faulty replica saw the primary
         fail, so join even without our own timeout.  Join the smallest
         target above our view for which anyone voted. *)
      let total_above = ref 0 and min_target = ref max_int in
      Hashtbl.iter
        (fun tgt votes ->
          if tgt > t.view then begin
            total_above := !total_above + Hashtbl.length votes;
            if tgt < !min_target then min_target := tgt
          end)
        t.vc_votes;
      (match t.mode with
      | `Normal when !total_above >= t.f + 1 -> start_view_change t ~target:!min_target
      | _ -> ());
      (* New primary of [target] assembles the new view at n − f votes. *)
      if Hashtbl.length votes >= t.quorum && target mod t.n = t.me then begin
        match t.mode with
        | `ViewChange tgt when tgt <= target -> become_primary t ~target ~votes
        | `Normal when t.view < target -> become_primary t ~target ~votes
        | _ -> ()
      end
    end
  end

and become_primary t ~target ~votes =
  (* Consolidate prepared certificates from the n − f view-change votes:
     for every sequence number above the highest stable checkpoint, the
     proposal with the highest view wins; gaps become no-ops. *)
  let ls = Hashtbl.fold (fun _ v acc -> max acc v.v_last_stable) votes t.low_water in
  let best : (int, prepared_proof) Hashtbl.t = Hashtbl.create 16 in
  let max_seq = ref ls in
  Hashtbl.iter
    (fun _ v ->
      List.iter
        (fun p ->
          if p.pp_seq > ls then begin
            max_seq := max !max_seq p.pp_seq;
            match Hashtbl.find_opt best p.pp_seq with
            | Some q when q.pp_view >= p.pp_view -> ()
            | _ -> Hashtbl.replace best p.pp_seq p
          end)
        v.v_prepared)
    votes;
  let preprepares = ref [] in
  for seq = !max_seq downto max (ls + 1) t.next_emit do
    let b =
      match Hashtbl.find_opt best seq with
      | Some p -> p.pp_batch
      | None ->
          t.noop_nonce <- t.noop_nonce + 1;
          Batch.noop ~keychain:t.ctx.Ctx.keychain ~cluster:t.cluster ~origin:t.ctx.Ctx.id
            ~created:(t.ctx.Ctx.now ()) ~nonce:(1_000_000 + t.noop_nonce)
    in
    preprepares := (seq, b) :: !preprepares
  done;
  t.n_view_changes <- t.n_view_changes + 1;
  t.view <- target;
  t.mode <- `Normal;
  t.next_seq <- max (max t.next_seq (!max_seq + 1)) t.next_emit;
  broadcast t (NewView { target; preprepares = !preprepares });
  t.on_view_change ~view:target;
  (* Process our own embedded preprepares (resetting stale vote state
     from older views first, exactly as backups do on new-view). *)
  List.iter
    (fun (seq, b) ->
      (match Hashtbl.find_opt t.slots seq with
      | Some s when (not s.emitted) && not s.committed -> clear_slot t s
      | _ -> ());
      accept_preprepare t ~view:target ~seq ~batch:b)
    !preprepares;
  rehome_forwarded t;
  reset_timer t;
  propose_more t

and enter_new_view t ~target ~preprepares =
  let ok = match t.mode with `ViewChange tgt -> target >= tgt | `Normal -> target > t.view in
  if ok && target mod t.n <> t.me then begin
    t.n_view_changes <- t.n_view_changes + 1;
    t.view <- target;
    t.mode <- `Normal;
    t.on_view_change ~view:target;
    List.iter
      (fun (seq, b) ->
        if seq > t.low_water then begin
          (* Reset any state from older views for this slot; slots we
             already committed are decided and left untouched. *)
          let s = slot t seq in
          if (not s.emitted) && not s.committed then begin
            clear_slot t s;
            accept_preprepare t ~view:target ~seq ~batch:b
          end
        end)
      preprepares;
    rehome_forwarded t;
    reset_timer t
  end

(* -- normal case --------------------------------------------------------- *)

and accept_preprepare t ~view ~seq ~batch =
  let s = slot t seq in
  if s.emitted then ()
  else begin
    t.ctx.Ctx.phase ~key:seq ~name:"propose";
    if s.batch = None then t.unemitted <- t.unemitted + 1;
    s.sview <- view;
    s.batch <- Some batch;
    s.digest <- Some batch.Batch.digest;
    retally s;
    (* The primary's preprepare doubles as its prepare vote. *)
    set_prepare s (view mod t.n) batch.Batch.digest;
    if not s.sent_prepare then begin
      s.sent_prepare <- true;
      if t.me <> view mod t.n then begin
        broadcast t (Prepare { view; seq; digest = batch.Batch.digest });
        set_prepare s t.me batch.Batch.digest
      end
    end;
    update_timer t;
    check_prepared t s;
    (* Commits may have reached quorum before the preprepare arrived. *)
    check_committed t s
  end

and check_prepared t s =
  match (s.digest, s.batch) with
  | Some d, Some _ when not s.sent_commit ->
      let matching = s.prepared_votes in
      let gate = if Mutation.is "pbft-prepare-quorum" then t.quorum - 1 else t.quorum in
      if matching >= gate then begin
        Evidence.note ~point:"pbft.prepared" ~node:t.ctx.Ctx.id ~count:matching ~need:t.quorum;
        s.sent_commit <- true;
        t.ctx.Ctx.phase ~key:s.seq ~name:"prepare";
        let payload = commit_payload t s ~view:s.sview ~digest:d in
        let signature = Keychain.sign t.ctx.Ctx.keychain ~signer:t.ctx.Ctx.id payload in
        let m = Commit { view = s.sview; seq = s.seq; digest = d; signature } in
        (* Commit messages are signed (they form the certificate). *)
        t.ctx.Ctx.charge ~stage:Cpu.Worker ~cost:(Config.sign_cost (cfg t)) (fun () ->
            broadcast t m;
            handle_commit t ~src_local:t.me ~view:s.sview ~seq:s.seq ~digest:d ~signature)
      end
  | _ -> ()

and handle_commit t ~src_local ~view ~seq ~digest ~signature =
  if seq > t.low_water then begin
    let s = slot t seq in
    if not s.committed then begin
      (* Verify the commit signature before counting it (the modeled
         CPU cost was already charged by the fabric: Messages.wire
         declares one signature check per commit). *)
      let payload = commit_payload t s ~view ~digest in
      let signer = t.members.(src_local) in
      if Keychain.verify t.ctx.Ctx.keychain ~signer payload signature then begin
        add_commit s src_local ~view ~digest ~signature;
        check_committed t s
      end
    end
  end

and check_committed t s =
  match (s.digest, s.batch) with
  | Some _, Some _ when not s.committed && s.sview >= 0 ->
      (* Count commits matching the accepted (view, digest): the
         certificate must carry signatures over one payload. *)
      let matching = s.committed_votes in
      let gate = if Mutation.is "pbft-commit-quorum" then t.quorum - 1 else t.quorum in
      if matching >= gate then begin
        Evidence.note ~point:"pbft.committed" ~node:t.ctx.Ctx.id ~count:matching ~need:t.quorum;
        s.committed <- true;
        emit_ready t
      end
  | _ -> ()

and emit_ready t =
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt t.slots t.next_emit with
    | Some s when s.committed && not s.emitted -> (
        match (s.batch, s.digest) with
        | Some b, Some d ->
            s.emitted <- true;
            t.unemitted <- t.unemitted - 1;
            t.ctx.Ctx.phase ~key:s.seq ~name:"commit";
            t.chain <- Rdb_crypto.Sha256.digest_list [ t.chain; d ];
            (* Assemble the commit certificate: the n − f lowest
               signers among the matching signed commits (members are
               contiguous, so local order is global order). *)
            let cert =
              Certificate.collect ~cluster:t.cluster ~view:s.sview ~seq:s.seq ~digest:d
                ~max:t.quorum (fun add ->
                  for local = 0 to t.n - 1 do
                    if commit_matches s local d then
                      add ~replica:t.members.(local) s.commit_sigs.(local)
                  done)
            in
            Hashtbl.remove t.forwarded d;
            Hashtbl.remove t.pending_digests d;
            Hashtbl.replace t.executed_digests d ();
            t.next_emit <- t.next_emit + 1;
            (* Progress: reset the censorship back-off. *)
            t.timeout <- t.base_timeout;
            reset_timer t;
            t.on_committed ~seq:s.seq b cert;
            maybe_checkpoint t ~seq:s.seq;
            propose_more t
        | _ -> continue := false)
    | _ -> continue := false
  done

(* -- checkpointing -------------------------------------------------------- *)

and maybe_checkpoint t ~seq =
  if (seq + 1) mod t.checkpoint_every = 0 then begin
    let m = Checkpoint { seq; state_digest = t.chain } in
    broadcast t m;
    handle_checkpoint t ~src_local:t.me ~seq ~state_digest:t.chain
  end

(* A quorum is n − f > n/2 votes, so only a strict majority of the
   recorded digests can reach it: find the one majority candidate
   (Boyer–Moore) and count its votes. *)
and handle_checkpoint t ~src_local ~seq ~state_digest =
  if seq > t.low_water then begin
    let votes =
      match Hashtbl.find_opt t.checkpoints seq with
      | Some votes -> votes
      | None ->
          let votes = Array.make t.n absent in
          Hashtbl.replace t.checkpoints seq votes;
          votes
    in
    votes.(src_local) <- state_digest;
    let cand = ref absent and lead = ref 0 in
    for i = 0 to t.n - 1 do
      let d = votes.(i) in
      if d != absent then
        if !lead = 0 then begin
          cand := d;
          lead := 1
        end
        else if String.equal d !cand then incr lead
        else decr lead
    done;
    let count = ref 0 in
    for i = 0 to t.n - 1 do
      let d = votes.(i) in
      if d != absent && String.equal d !cand then incr count
    done;
    if !count >= t.quorum && seq > t.low_water && seq < t.next_emit then begin
      t.low_water <- seq;
      (* Record the quorum digest: the anchor a checkpoint state
         transfer serves and verifies against. *)
      t.stable_digest <- !cand;
      collect_below t ~seq
    end
  end

(* -- proposing ------------------------------------------------------------- *)

(* A digest already assigned to a live slot must not be proposed again
   under a fresh sequence number: with client retransmission, a batch
   carried across a view change inside a prepared slot can reappear via
   [Forward] or [rehome_forwarded] before that slot emits, and a second
   proposal would execute it twice. *)
and digest_in_flight t d =
  Hashtbl.fold
    (fun _ s acc ->
      acc || (match s.digest with Some d' -> String.equal d d' | None -> false))
    t.slots false

and propose_more t =
  if is_primary t && t.mode = `Normal then begin
    let continue = ref true in
    while !continue && (not (Queue.is_empty t.pending)) && in_flight t < t.window do
      let batch = Queue.pop t.pending in
      if Hashtbl.mem t.executed_digests batch.Batch.digest
         || digest_in_flight t batch.Batch.digest
      then
        (* Already ordered (e.g. carried over by a view change). *)
        Hashtbl.remove t.pending_digests batch.Batch.digest
      else begin
        let seq = t.next_seq in
        t.next_seq <- t.next_seq + 1;
        let view = t.view in
        (* Batch assembly + digest on the batching thread, then broadcast. *)
        t.ctx.Ctx.charge ~stage:Cpu.Batching
          ~cost:(Time.add (Config.batch_asm_cost (cfg t)) (Config.hash_cost (cfg t) ~bytes:(batch_bytes t)))
          (fun () ->
            if t.view = view && t.mode = `Normal then begin
              broadcast t (Preprepare { view; seq; batch });
              accept_preprepare t ~view ~seq ~batch
            end);
        if in_flight t >= t.window then continue := false
      end
    done
  end

(* After a view change, requests stranded at the old primary must reach
   the new one quickly (the paper's primary-failure experiment measures
   exactly this recovery): the new primary adopts every batch it saw
   only as a forwarder; backups re-forward theirs. *)
and rehome_forwarded t =
  let entries = Hashtbl.fold (fun d b acc -> (d, b) :: acc) t.forwarded [] in
  let entries = List.sort (fun (_, a) (_, b) -> compare a.Batch.id b.Batch.id) entries in
  if is_primary t then
    List.iter
      (fun (d, b) ->
        if (not (Hashtbl.mem t.executed_digests d))
           && (not (Hashtbl.mem t.pending_digests d))
           && not (digest_in_flight t d)
        then begin
          Hashtbl.remove t.forwarded d;
          Hashtbl.replace t.pending_digests d ();
          Queue.push b t.pending
        end)
      entries
  else List.iter (fun (_, b) -> send_to t ~dst_local:(primary_local t) (Forward b)) entries

(* Submit a client batch at this replica.  The primary queues and
   proposes it; backups forward it to the primary and start the
   anti-censorship timer. *)
let submit_batch t (batch : Batch.t) =
  if Hashtbl.mem t.pending_digests batch.Batch.digest
     || Hashtbl.mem t.forwarded batch.Batch.digest
     || Hashtbl.mem t.executed_digests batch.Batch.digest
     || digest_in_flight t batch.Batch.digest
  then ()
  else if is_primary t then begin
    Hashtbl.replace t.pending_digests batch.Batch.digest ();
    Queue.push batch t.pending;
    update_timer t;
    propose_more t
  end
  else begin
    Hashtbl.replace t.forwarded batch.Batch.digest batch;
    send_to t ~dst_local:(primary_local t) (Forward batch);
    update_timer t
  end

(* Propose a no-op (GeoBFT §2.5): called by the embedding layer when
   other clusters are progressing but this cluster has no requests. *)
let propose_noop t =
  if is_primary t && t.mode = `Normal && Queue.is_empty t.pending then begin
    t.noop_nonce <- t.noop_nonce + 1;
    let b =
      Batch.noop ~keychain:t.ctx.Ctx.keychain ~cluster:t.cluster ~origin:t.ctx.Ctx.id
        ~created:(t.ctx.Ctx.now ()) ~nonce:t.noop_nonce
    in
    Queue.push b t.pending;
    propose_more t
  end

(* External failure detection (GeoBFT remote view-change, Figure 7
   line 17): treat the current primary as faulty. *)
let force_view_change t =
  let target = (match t.mode with `Normal -> t.view | `ViewChange tgt -> tgt) + 1 in
  start_view_change t ~target

(* -- dispatch ---------------------------------------------------------------- *)

let rec on_message t ~src (m : msg) =
  let src_local = local_of t.members src in
  if src_local < 0 then () (* not a member of this cluster: ignore *)
  else
    match m with
    | Forward batch ->
        if is_primary t then submit_batch t batch
    | Preprepare { view; seq; _ } when view > t.view && seq > t.low_water ->
        (* From a view ahead of ours: hold until we catch up. *)
        t.deferred <- (src, m) :: t.deferred
    | Preprepare { view; seq; batch } ->
        if view = t.view && t.mode = `Normal && src_local = view mod t.n
           && seq > t.low_water && seq < t.next_emit + (4 * t.window) then begin
          let s = slot t seq in
          match s.digest with
          | Some d when not (String.equal d batch.Batch.digest) && s.sview = view ->
              (* Equivocation: two conflicting preprepares signed into
                 the same (view, seq) — provable primary fault. *)
              start_view_change t ~target:(t.view + 1)
          | Some _ when s.sview < view && (not s.emitted) && not s.committed ->
              (* Stale state from an older view (the slot never
                 prepared, or the new-view message did not cover it):
                 the newer view's proposal supersedes it. *)
              clear_slot t s;
              accept_preprepare t ~view ~seq ~batch
          | Some _ -> () (* duplicate *)
          | None -> accept_preprepare t ~view ~seq ~batch
        end
    | Prepare { view; seq; _ } when view > t.view && seq > t.low_water ->
        t.deferred <- (src, m) :: t.deferred
    | Prepare { view; seq; digest } ->
        if view = t.view && t.mode = `Normal && seq > t.low_water
           && seq < t.next_emit + (4 * t.window) then begin
          let s = slot t seq in
          if s.prepares.(src_local) == absent then begin
            set_prepare s src_local digest;
            check_prepared t s
          end
        end
    | Commit { view; seq; digest; signature } ->
        if seq < t.next_emit + (4 * t.window) then
          handle_commit t ~src_local ~view ~seq ~digest ~signature
        else
          (* Too far past our frontier to even buffer: the group has
             left us behind, and nobody retransmits the normal-path
             messages we are dropping here.  Hand the liveness problem
             to the state-transfer layer. *)
          Option.iter (fun f -> f ~seq) t.on_behind
    | Checkpoint { seq; state_digest } -> handle_checkpoint t ~src_local ~seq ~state_digest
    | ViewChange { target; last_stable; prepared } ->
        handle_view_change t ~src_local ~target ~last_stable ~prepared;
        (* We may just have become the new primary. *)
        replay_deferred t
    | NewView { target; preprepares } ->
        if src_local = target mod t.n then begin
          enter_new_view t ~target ~preprepares;
          replay_deferred t
        end

(* Replay messages that were ahead of our view when they arrived. *)
and replay_deferred t =
  let ms = List.rev t.deferred in
  t.deferred <- [];
  List.iter
    (fun (src, m) ->
      match m with
      | Preprepare { view; _ } | Prepare { view; _ } ->
          if view > t.view then t.deferred <- (src, m) :: t.deferred
          else if view = t.view then on_message t ~src m
      | _ -> ())
    ms

(* -- recovery hooks (lib/recovery: checkpoint state transfer) ------------- *)

let low_water t = t.low_water
let stable_digest t = t.stable_digest
let checkpoint_every t = t.checkpoint_every
let retained_slots t = Hashtbl.length t.slots
let min_retained_slot t = Hashtbl.fold (fun s _ acc -> min s acc) t.slots max_int

(* A batch learned out-of-band (checkpoint state transfer): advance the
   emit cursor past it without assembling a local certificate.  Only
   the exact frontier advances — the caller installs a contiguous
   ledger suffix in order and skips sequences already emitted here.
   Returns whether the cursor moved. *)
let note_external_commit t ~seq (batch : Batch.t) =
  if seq <> t.next_emit then false
  else begin
    let d = batch.Batch.digest in
    t.chain <- Rdb_crypto.Sha256.digest_list [ t.chain; d ];
    Hashtbl.replace t.executed_digests d ();
    Hashtbl.remove t.pending_digests d;
    Hashtbl.remove t.forwarded d;
    Option.iter (forget t) (Hashtbl.find_opt t.slots seq);
    Hashtbl.remove t.slots seq;
    t.next_emit <- t.next_emit + 1;
    if t.next_seq < t.next_emit then t.next_seq <- t.next_emit;
    (* Slots above may already hold commit quorums gathered while this
       replica was catching up. *)
    emit_ready t;
    true
  end

(* Adopt a transferred stable checkpoint: advance the watermark and
   garbage-collect everything at or below it, exactly as a locally
   quorum-stable checkpoint would. *)
let install_checkpoint t ~seq ~digest =
  if seq > t.low_water && seq < t.next_emit then begin
    t.low_water <- seq;
    t.stable_digest <- digest;
    collect_below t ~seq
  end

(* Adopt the view the rest of the group is in, learned from f+1
   matching state-transfer replies (the simulator trusts this in lieu
   of shipping the full new-view certificate): without it a recovering
   ex-primary keeps proposing into a dead view forever.  Stale vote
   state from older views is reset exactly as [enter_new_view] does. *)
let adopt_view t ~view =
  if view > t.view then begin
    t.view <- view;
    t.mode <- `Normal;
    Hashtbl.iter
      (fun _ s -> if (not s.emitted) && (not s.committed) && s.sview < view then clear_slot t s)
      t.slots;
    reset_timer t;
    replay_deferred t
  end

(* After a crash-recover: timers armed before the crash were dropped
   while the node was down, so a stale handle may be recorded even
   though no tick will ever fire.  Cancel defensively and re-arm. *)
let on_recover t =
  (match t.vc_timer with Some h -> t.ctx.Ctx.cancel_timer h | None -> ());
  t.vc_timer <- None;
  t.timeout <- t.base_timeout;
  update_timer t
