(* Steward: hierarchical Byzantine fault tolerance for wide-area
   networks (Amir et al., TDSC 2010), as implemented in ResilientDB
   (§3: "This protocol groups replicas into clusters, similar to
   GeoBFT.  Different from GeoBFT, Steward designates one of these
   clusters as the primary cluster, which coordinates all operations").

   Shape implemented (one global decision):
   1. a client submits to its site's representative, which runs a
      *local threshold-certification round* over the request (each
      site acts as one logical trusted entity by threshold-signing its
      site messages);
   2. the origin representative forwards the certified request to the
      representative of the primary site (Oregon, cluster 0);
   3. the primary site assigns the global sequence number and
      threshold-certifies the assignment (a second local round);
   4. the certified global proposal goes to every site representative,
      which distributes it locally and runs a local *accept*
      certification (a third local round, one per site);
   5. accepts are exchanged representative-to-representative; a global
      sequence slot commits once a majority of sites accept, after
      which every replica executes in sequence order and replies to
      its local clients.

   Why Steward loses despite its topology-awareness (§4.1: "the high
   computational costs and the centralized design of Steward prevent
   high throughput in all cases"):
   - every local round costs threshold-RSA partial signatures at each
     replica and a combine at the representative — RSA-class costs,
     charged via [Config.threshold_partial_cost]/[threshold_combine_cost]
     (the paper's own implementation skipped threshold signatures but
     still observed the protocol's compute-bound profile);
   - all global ordering serializes through the primary site's
     representative.

   Steward view changes are not implemented, matching the paper ("it
   does not provide a readily-usable and complete view-change
   implementation"). *)

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

let name = "Steward"

(* Outstanding global proposals the primary site keeps in flight;
   Steward's global ordering is largely sequential. *)
let global_window = 8

type msg =
  | Request of Batch.t
  | Read_request of Batch.t
      (* Consensus-bypass read-only batch, answered from site-member
         state (client waits for f+1 matching result digests). *)
  | Certify_req of { tag : string; digest : string; batch : Batch.t option }
  | Partial_sig of { tag : string; digest : string }
  | Site_forward of { batch : Batch.t }             (* origin rep -> leader rep *)
  | Global_proposal of { g : int; batch : Batch.t } (* leader rep -> site reps *)
  | Global_accept of { g : int; site : int; digest : string }
  | Local_bcast of { g : int; batch : Batch.t }     (* rep -> site members *)
  | Local_commit of { g : int }                     (* rep -> site members *)
  | Fetch_globals of { from : int }                 (* catch-up request *)
  | Globals_data of { from : int; batches : Batch.t list }
  | Reply of { batch_id : int; result_digest : string }

type certify_round = {
  c_digest : string;
  c_batch : Batch.t option;            (* kept for re-broadcast *)
  partials : (int, unit) Hashtbl.t;    (* local indices that signed *)
  mutable c_done : bool;
  on_cert : unit -> unit;
}

type replica = {
  ctx : msg Ctx.t;
  cfg : Config.t;
  my_cluster : int;
  my_local : int;
  (* Representative duties (local index 0 of each site): *)
  certifying : (string, certify_round) Hashtbl.t;
  mutable next_g : int;                 (* leader rep: next global seq *)
  assign_queue : Batch.t Queue.t;       (* leader rep: awaiting assignment *)
  seen : (string, unit) Hashtbl.t;
  accepts : (int, (int, unit) Hashtbl.t) Hashtbl.t;   (* g -> accepting sites *)
  accepted_digest : (int, string) Hashtbl.t;
  (* All replicas: *)
  proposals : (int, Batch.t) Hashtbl.t; (* g -> batch *)
  committed : (int, unit) Hashtbl.t;
  mutable next_exec : int;
  mutable exec_busy : bool;             (* an execute is in flight *)
  mutable commit_sent : (int, unit) Hashtbl.t;  (* rep: local commits sent *)
  (* Retransmission / catch-up (lib/recovery).  The representative
     channel is the protocol's spine: a single lost Global_proposal or
     Global_accept wedges a site forever, so every replica runs a
     state-driven stall task with exponential backoff + jitter. *)
  mutable max_g_seen : int;             (* highest global seq heard of *)
  pending_forwards : (string, Batch.t) Hashtbl.t;  (* origin rep: unacked *)
  recovery : Recovery.t;
}

(* Batches per catch-up reply. *)
let catchup_chunk = 64

(* Threshold-signature verification is RSA-verify class; model it with
   the standard signature-verification cost.  A catch-up reply's
   requester re-verifies the site certificate of each batch it
   installs (at least one). *)
let wire cfg m : Wire.cost =
  let batch_size = cfg.Config.batch_size in
  match m with
  | Request _ | Read_request _ -> { bytes = Client_core.request_bytes cfg; verifies = 0 }
  | Certify_req { batch = Some _; _ } -> { bytes = Wire.batch_bytes ~batch_size; verifies = 0 }
  | Certify_req _ | Local_commit _ | Fetch_globals _ -> { bytes = Wire.small; verifies = 0 }
  | Partial_sig _ | Global_accept _ -> { bytes = Wire.small; verifies = 1 }
  | Site_forward _ | Global_proposal _ | Local_bcast _ ->
      { bytes = Wire.certificate_bytes ~batch_size ~sigs:1; verifies = 1 }
  | Globals_data { batches; _ } ->
      let blocks = List.length batches in
      { bytes = Wire.snapshot_bytes ~batch_size ~sigs:1 ~blocks; verifies = max 1 blocks }
  | Reply _ -> { bytes = Client_core.reply_bytes cfg; verifies = 0 }

let rep_of cfg ~cluster = Config.replica_id cfg ~cluster ~index:0
let is_rep r = r.my_local = 0
let leader_rep r = rep_of r.cfg ~cluster:0
let is_leader_rep r = r.ctx.Ctx.id = leader_rep r

let site_members r = Config.replicas_of_cluster r.cfg r.my_cluster

let broadcast_site r m =
  Ctx.multicast r.ctx ~dsts:(List.filter (fun dst -> dst <> r.ctx.Ctx.id) (site_members r)) m

(* Pooled fan-out to every remote site's representative. *)
let broadcast_reps r m =
  let dsts = ref [] in
  for c = r.cfg.Config.z - 1 downto 0 do
    if c <> r.my_cluster then dsts := rep_of r.cfg ~cluster:c :: !dsts
  done;
  Ctx.multicast r.ctx ~dsts:!dsts m

let majority_sites cfg = (cfg.Config.z / 2) + 1

let reps_except_self r =
  List.filter
    (fun id -> id <> r.ctx.Ctx.id)
    (List.init r.cfg.Config.z (fun c -> rep_of r.cfg ~cluster:c))

(* Callers arm the stall task whenever there is outstanding work it
   may need to push through; it retires on its own once nothing is
   pending. *)
let note_g r g =
  if g > r.max_g_seen then r.max_g_seen <- g;
  if g >= r.next_exec then Recovery.ensure r.recovery

let view_changes (_ : replica) = 0

(* -- local threshold certification (representative-driven) ---------------- *)

(* Start a certification round for [tag]; [on_cert] fires at the
   representative once n − f partial signatures are combined. *)
let rec start_certify r ~tag ~digest ?batch ~on_cert () =
  if not (Hashtbl.mem r.certifying tag) then begin
    let round =
      { c_digest = digest; c_batch = batch; partials = Hashtbl.create 8; c_done = false; on_cert }
    in
    Hashtbl.replace r.certifying tag round;
    Recovery.ensure r.recovery;
    broadcast_site r (Certify_req { tag; digest; batch });
    (* Our own partial signature. *)
    r.ctx.Ctx.charge ~stage:Cpu.Worker ~cost:(Config.threshold_partial_cost r.cfg) (fun () ->
        Hashtbl.replace round.partials r.my_local ();
        check_certified r round)
  end

and check_certified r round =
  let need = Config.quorum r.cfg in
  let gate = if Mutation.is "steward-certify-quorum" then need - 1 else need in
  if (not round.c_done) && Hashtbl.length round.partials >= gate then begin
    Evidence.note ~point:"steward.certified" ~node:r.ctx.Ctx.id
      ~count:(Hashtbl.length round.partials) ~need;
    round.c_done <- true;
    (* Combine the threshold shares; the round record is no longer
       needed once combined (late partials are simply ignored). *)
    r.ctx.Ctx.charge ~stage:Cpu.Certify ~cost:(Config.threshold_combine_cost r.cfg) (fun () ->
        round.on_cert ())
  end

(* -- execution -------------------------------------------------------------- *)

(* Global sequence g must land at ledger height g, and the ledger
   append happens inside the charged [execute] callback — which the
   fabric drops if the replica crashes mid-charge.  Advance [next_exec]
   only once the append has actually happened ([on_done]); otherwise a
   crash that interrupts an in-flight execute would skip one append
   while the cursor moves on, and the cursor-walking catch-up would
   rebuild the whole suffix shifted by one height (a permanent
   prefix-agreement violation).  [exec_busy] keeps execution strictly
   sequential across the re-entrant callers (Local_commit,
   record_accept, install_globals); [on_recover] clears it because a
   crash drops the in-flight [on_done]. *)
let rec exec_ready r =
  if (not r.exec_busy) && Hashtbl.mem r.committed r.next_exec then
    match Hashtbl.find_opt r.proposals r.next_exec with
    | None -> ()
    | Some batch ->
        let g = r.next_exec in
        r.exec_busy <- true;
        r.ctx.Ctx.execute batch ~cert:None ~on_done:(fun result ->
            r.exec_busy <- false;
            r.next_exec <- g + 1;
            let old = r.next_exec - 512 in
            Hashtbl.remove r.proposals old;
            Hashtbl.remove r.committed old;
            Hashtbl.remove r.accepts old;
            Hashtbl.remove r.accepted_digest old;
            Hashtbl.remove r.commit_sent old;
            r.ctx.Ctx.phase ~key:g ~name:"execute";
            (match result with
            | Some res
              when (not (Batch.is_noop batch)) && batch.Batch.cluster = r.my_cluster ->
                Ctx.send r.ctx ~dst:batch.Batch.origin
                  (Reply
                     { batch_id = batch.Batch.id; result_digest = res.Rdb_types.App.digest })
            | _ -> ());
            exec_ready r)

(* -- leader-site global ordering --------------------------------------------- *)

let rec assign_more r =
  if
    is_leader_rep r
    && (not (Queue.is_empty r.assign_queue))
    && r.next_g - r.next_exec < global_window
  then begin
    let batch = Queue.pop r.assign_queue in
    let g = r.next_g in
    r.next_g <- g + 1;
    note_g r g;
    r.ctx.Ctx.phase ~key:g ~name:"propose";
    (* Certify the assignment within the primary site, then propose
       globally. *)
    let tag = Printf.sprintf "prop:%d" g in
    start_certify r ~tag ~digest:batch.Batch.digest ~on_cert:(fun () ->
        broadcast_reps r (Global_proposal { g; batch });
        accept_proposal r ~g ~batch;
        assign_more r)
      ()
  end

(* A site representative processes global proposal [g]: distribute
   locally, certify the site's accept, exchange it. *)
and accept_proposal r ~g ~batch =
  note_g r g;
  Hashtbl.remove r.pending_forwards batch.Batch.digest;
  if not (Hashtbl.mem r.proposals g) then begin
    r.ctx.Ctx.phase ~key:g ~name:"propose";
    Hashtbl.replace r.proposals g batch;
    broadcast_site r (Local_bcast { g; batch });
    let tag = Printf.sprintf "acc:%d" g in
    start_certify r ~tag ~digest:batch.Batch.digest ~on_cert:(fun () ->
        r.ctx.Ctx.phase ~key:g ~name:"certify-share";
        broadcast_reps r
          (Global_accept { g; site = r.my_cluster; digest = batch.Batch.digest });
        record_accept r ~g ~site:r.my_cluster ~digest:batch.Batch.digest)
      ()
  end

and record_accept r ~g ~site ~digest =
  note_g r g;
  let tbl =
    match Hashtbl.find_opt r.accepts g with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 4 in
        Hashtbl.replace r.accepts g t;
        Hashtbl.replace r.accepted_digest g digest;
        t
  in
  (match Hashtbl.find_opt r.accepted_digest g with
  | Some d when String.equal d digest -> Hashtbl.replace tbl site ()
  | _ -> ());
  if Hashtbl.length tbl >= majority_sites r.cfg && not (Hashtbl.mem r.commit_sent g) then begin
    Evidence.note ~point:"steward.commit" ~node:r.ctx.Ctx.id ~count:(Hashtbl.length tbl)
      ~need:(majority_sites r.cfg);
    r.ctx.Ctx.phase ~key:g ~name:"commit";
    Hashtbl.replace r.commit_sent g ();
    Hashtbl.replace r.committed g ();
    broadcast_site r (Local_commit { g });
    exec_ready r;
    assign_more r
  end

(* -- retransmission and catch-up (lib/recovery) ---------------------------- *)

let stalled r = r.max_g_seen >= r.next_exec

let needed r =
  stalled r
  || (is_leader_rep r && r.next_exec < r.next_g)
  || Hashtbl.length r.pending_forwards > 0
  || Hashtbl.fold (fun _ rd acc -> acc || not rd.c_done) r.certifying false

(* Progress token: only the stall-relevant cursors.  Including the
   committed count or next_g would change on unrelated traffic and
   keep resetting the backoff, starving the fire. *)
let progress r = r.next_exec + (8191 * Hashtbl.length r.pending_forwards)

(* Global sequence g executes at ledger height g, so catch-up is a walk
   of the server's committed prefix.  Members ask within their site;
   representatives rotate over the other sites' representatives. *)
let send_catchup_fetch r ~attempt =
  let targets =
    if is_rep r then reps_except_self r
    else List.filter (fun id -> id <> r.ctx.Ctx.id) (site_members r)
  in
  match targets with
  | [] -> ()
  | ts ->
      Ctx.send r.ctx
        ~dst:(List.nth ts (attempt mod List.length ts))
        (Fetch_globals { from = r.next_exec })

let serve_globals r ~src ~from =
  let rec collect g acc =
    if g - from >= catchup_chunk then List.rev acc
    else
      match (Hashtbl.mem r.committed g, Hashtbl.find_opt r.proposals g) with
      | true, Some b -> collect (g + 1) (b :: acc)
      | _ -> List.rev acc
  in
  match collect from [] with
  | [] -> ()
  | batches -> Ctx.send r.ctx ~dst:src (Globals_data { from; batches })

let install_globals r ~from batches =
  let filled = ref 0 in
  List.iteri
    (fun i batch ->
      let g = from + i in
      if g >= r.next_exec then begin
        note_g r g;
        let fresh = ref false in
        if not (Hashtbl.mem r.proposals g) then begin
          Hashtbl.replace r.proposals g batch;
          fresh := true
        end;
        if not (Hashtbl.mem r.committed g) then begin
          Hashtbl.replace r.committed g ();
          fresh := true
        end;
        Hashtbl.remove r.pending_forwards batch.Batch.digest;
        if !fresh then begin
          incr filled;
          (* A representative relays what it learned so its site
             members do not each have to fetch. *)
          if is_rep r then begin
            broadcast_site r (Local_bcast { g; batch });
            broadcast_site r (Local_commit { g })
          end
        end
      end)
    batches;
  Recovery.note_installed r.recovery ~filled:!filled;
  exec_ready r

(* The backoff-task fire: push every kind of outstanding work once. *)
let retransmit r ~attempt =
  Recovery.note_retransmit r.recovery;
  if stalled r then send_catchup_fetch r ~attempt;
  if is_rep r then begin
    (* Unfinished threshold-certification rounds: re-broadcast the
       request; partial signatures are idempotent. *)
    Hashtbl.iter
      (fun tag rd ->
        if not rd.c_done then
          broadcast_site r (Certify_req { tag; digest = rd.c_digest; batch = rd.c_batch }))
      r.certifying;
    (* Re-send our site's accept for still-uncommitted globals. *)
    for g = r.next_exec to min r.max_g_seen (r.next_exec + global_window) do
      if not (Hashtbl.mem r.committed g) then
        match Hashtbl.find_opt r.accepts g with
        | Some tbl when Hashtbl.mem tbl r.my_cluster ->
            Ctx.multicast r.ctx ~dsts:(reps_except_self r)
              (Global_accept { g; site = r.my_cluster; digest = Hashtbl.find r.accepted_digest g })
        | _ -> ()
    done;
    (* Origin representative: certified requests the leader never
       sequenced (the forward may have been lost). *)
    if not (is_leader_rep r) then
      Hashtbl.iter
        (fun _ batch -> Ctx.send r.ctx ~dst:(leader_rep r) (Site_forward { batch }))
        r.pending_forwards;
    (* Leader: re-propose assigned-but-uncommitted globals to the
       sites that have not accepted them yet. *)
    if is_leader_rep r then
      for g = r.next_exec to r.next_g - 1 do
        if not (Hashtbl.mem r.committed g) then
          match Hashtbl.find_opt r.proposals g with
          | Some batch ->
              let accepted c =
                match Hashtbl.find_opt r.accepts g with
                | Some tbl -> Hashtbl.mem tbl c
                | None -> false
              in
              for c = 0 to r.cfg.Config.z - 1 do
                if c <> r.my_cluster && not (accepted c) then
                  Ctx.send r.ctx ~dst:(rep_of r.cfg ~cluster:c) (Global_proposal { g; batch })
              done
          | None -> ()
      done
  end

(* -- construction ----------------------------------------------------------- *)

let create_replica (ctx : msg Ctx.t) =
  let cfg = ctx.Ctx.config in
  let r =
    {
      ctx;
      cfg;
      my_cluster = Config.cluster_of_replica cfg ctx.Ctx.id;
      my_local = Config.local_index cfg ctx.Ctx.id;
      certifying = Hashtbl.create 64;
      next_g = 0;
      assign_queue = Queue.create ();
      seen = Hashtbl.create 256;
      accepts = Hashtbl.create 64;
      accepted_digest = Hashtbl.create 64;
      proposals = Hashtbl.create 128;
      committed = Hashtbl.create 128;
      next_exec = 0;
      exec_busy = false;
      commit_sent = Hashtbl.create 64;
      max_g_seen = -1;
      pending_forwards = Hashtbl.create 16;
      recovery = Recovery.create ctx;
    }
  in
  Recovery.watch r.recovery
    ~needed:(fun () -> needed r)
    ~progress:(fun () -> progress r)
    ~fire:(fun ~attempt -> retransmit r ~attempt);
  r

(* The crash dropped any in-flight execute's [on_done], so the busy
   flag must be cleared or execution would wedge forever; catch-up then
   re-fetches and re-executes the interrupted sequence number. *)
let on_recover (r : replica) =
  r.exec_busy <- false;
  Recovery.ensure r.recovery
let recovery (r : replica) = Recovery.stats r.recovery

(* -- dispatch ------------------------------------------------------------------ *)

let on_message r ~src (m : msg) =
  match m with
  | Request batch ->
      (* Site representative: certify locally, then route to the
         primary site for sequencing. *)
      if
        is_rep r
        && (not (Hashtbl.mem r.seen batch.Batch.digest))
        && batch.Batch.cluster = r.my_cluster
        && Batch.verify ~keychain:r.ctx.Ctx.keychain batch
      then begin
        Hashtbl.replace r.seen batch.Batch.digest ();
        let tag = "req:" ^ Rdb_crypto.Hex.of_string (String.sub batch.Batch.digest 0 8) in
        start_certify r ~tag ~digest:batch.Batch.digest ~batch ~on_cert:(fun () ->
            if is_leader_rep r then begin
              Queue.push batch r.assign_queue;
              assign_more r
            end
            else begin
              Hashtbl.replace r.pending_forwards batch.Batch.digest batch;
              Recovery.ensure r.recovery;
              Ctx.send r.ctx ~dst:(leader_rep r) (Site_forward { batch })
            end)
          ()
      end
  | Certify_req { tag; digest; batch = _ } ->
      (* Generate our partial signature for the site certificate. *)
      if Config.cluster_of_replica r.cfg src = r.my_cluster && src = rep_of r.cfg ~cluster:r.my_cluster
      then
        r.ctx.Ctx.charge ~stage:Cpu.Worker ~cost:(Config.threshold_partial_cost r.cfg) (fun () ->
            Ctx.send r.ctx ~dst:src (Partial_sig { tag; digest }))
  | Partial_sig { tag; digest } ->
      if is_rep r && Config.cluster_of_replica r.cfg src = r.my_cluster then begin
        match Hashtbl.find_opt r.certifying tag with
        | Some round when String.equal round.c_digest digest ->
            Hashtbl.replace round.partials (Config.local_index r.cfg src) ();
            check_certified r round
        | _ -> ()
      end
  | Site_forward { batch } ->
      if is_leader_rep r && not (Hashtbl.mem r.seen batch.Batch.digest) then begin
        Hashtbl.replace r.seen batch.Batch.digest ();
        Queue.push batch r.assign_queue;
        assign_more r
      end
  | Global_proposal { g; batch } ->
      if is_rep r && src = leader_rep r then accept_proposal r ~g ~batch
  | Global_accept { g; site; digest } ->
      if is_rep r then record_accept r ~g ~site ~digest
  | Local_bcast { g; batch } ->
      if src = rep_of r.cfg ~cluster:r.my_cluster then begin
        note_g r g;
        if not (Hashtbl.mem r.proposals g) then begin
          r.ctx.Ctx.phase ~key:g ~name:"propose";
          Hashtbl.replace r.proposals g batch;
          exec_ready r
        end
      end
  | Local_commit { g } ->
      if src = rep_of r.cfg ~cluster:r.my_cluster then begin
        note_g r g;
        if not (Hashtbl.mem r.committed g) then r.ctx.Ctx.phase ~key:g ~name:"commit";
        Hashtbl.replace r.committed g ();
        exec_ready r
      end
  | Read_request batch ->
      (* Any site member serves a read-only batch from current state. *)
      if batch.Batch.cluster = r.my_cluster then
        Client_core.serve_read r.ctx batch ~reply:(fun result_digest ->
            Reply { batch_id = batch.Batch.id; result_digest })
  | Fetch_globals { from } -> serve_globals r ~src ~from
  | Globals_data { from; batches } -> install_globals r ~from batches
  | Reply _ -> ()

(* -- client ---------------------------------------------------------------------- *)

type client = msg Client_core.t

let create_client (ctx : msg Ctx.t) ~cluster =
  let cfg = ctx.Ctx.config in
  let rep = rep_of cfg ~cluster in
  (* Clients talk to their site's representative.  Read-only batches
     skip global ordering entirely: every site member answers from its
     state. *)
  Client_core.create ~ctx ~threshold:(Config.weak_quorum cfg)
    ~request:(fun b -> Request b)
    ~read:((fun b -> Read_request b), Config.replicas_of_cluster cfg cluster)
    ~route:(Pick (fun () -> rep)) ()

let submit = Client_core.submit

let on_client_message (c : client) ~src (m : msg) =
  match m with
  | Reply { batch_id; result_digest } -> Client_core.on_reply c ~src ~batch_id ~result_digest
  | _ -> ()

(* -- adversarial view (lib/adversary) -------------------------------------- *)

(* [Share] covers the threshold-signature traffic (partial signatures
   and the local distribution of globally ordered batches).  Content
   equivocation is not modelled: Steward's threshold certificates bind
   the batch digest, so any forged payload is rejected at
   verification — withholding and delaying shares is the attack
   surface. *)
let adversary : msg Rdb_types.Interpose.view =
  let open Rdb_types.Interpose in
  let classify = function
    | Request _ | Read_request _ | Site_forward _ | Reply _ -> Client
    | Certify_req _ | Global_proposal _ -> Proposal
    | Partial_sig _ | Local_bcast _ -> Share
    | Global_accept _ | Local_commit _ -> Vote
    | Fetch_globals _ | Globals_data _ -> Sync
  in
  let conflict ~keychain:_ ~nonce:_ _ = None in
  { classify; conflict }
