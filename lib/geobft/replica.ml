(* The GeoBFT replica (paper §2).

   Round structure: in round ρ every cluster contributes the batch its
   local Pbft instance committed at sequence number ρ.  The three steps
   per round:

   1. *Local replication* (§2.2): the embedded Pbft engine (one per
      cluster) commits batches and emits commit certificates in
      sequence order.

   2. *Inter-cluster sharing* (§2.3): when the local primary's engine
      commits round ρ, the primary sends (batch, certificate) to f+1
      replicas of every other cluster (global phase, Figure 5 line 1-2,
      targets rotated per round to spread WAN load); a replica that
      receives a share from outside its cluster broadcasts it locally
      (local phase, line 3-4).  Failure to receive a round from some
      cluster triggers the remote view-change protocol (Figure 7),
      implemented here in full: timer-based detection with exponential
      back-off, DRVC local agreement (n−f), sharing m with lagging
      peers (line 5-7), the f+1 adoption rule (line 8-11), signed RVC
      to the same-id replica (line 12-13), in-cluster forwarding (line
      14-15), and the guarded honor rule with replay protection (line
      16) that ends in a forced local view-change.

   3. *Ordering and execution* (§2.4): once certified batches for round
      ρ are present from all z clusters, they execute in cluster order;
      replicas reply only to their local clients.

   Pipelining (§2.5): local replication and sharing run ahead of
   execution; only execution is round-strict.  No-op batches fill
   rounds when a cluster has no client load. *)

module Batch = Rdb_types.Batch
module Certificate = Rdb_types.Certificate
module Config = Rdb_types.Config
module Ctx = Rdb_types.Ctx
module Wire = Rdb_types.Wire
module Client_core = Rdb_types.Client_core
module Time = Rdb_sim.Time
module Cpu = Rdb_sim.Cpu
module Keychain = Rdb_crypto.Keychain
module Engine = Rdb_pbft.Engine
module Recovery = Rdb_recovery.Recovery
module Catchup = Rdb_recovery.Catchup
module Mutation = Rdb_types.Mutation
module Evidence = Rdb_types.Evidence
open Messages

let name = "GeoBFT"

type msg = Messages.msg

(* Per-remote-cluster bookkeeping for sharing and failure detection. *)
type cluster_track = {
  cluster : int;
  certified : (int, Batch.t * Certificate.t) Hashtbl.t;  (* round -> m *)
  mutable vc_count : int;                      (* v1 of Figure 7 *)
  mutable detect_timer : Ctx.timer option;
  mutable timeout : Time.t;                    (* exponential back-off *)
  (* (round, v) -> local indices that sent DRVC *)
  drvc_votes : (int * int, (int, unit) Hashtbl.t) Hashtbl.t;
  drvc_sent : (int * int, unit) Hashtbl.t;     (* our own DRVC broadcasts *)
  rvc_sent : (int * int, unit) Hashtbl.t;      (* RVCs we dispatched *)
}

type replica = {
  ctx : msg Ctx.t;
  cfg : Config.t;
  my_cluster : int;
  my_local : int;                                (* local index in cluster *)
  engine : Engine.t;
  tracks : cluster_track array;                  (* indexed by cluster *)
  mutable exec_round : int;                      (* next round to execute *)
  mutable exec_busy : bool;                      (* a round is executing *)
  (* Response role state (us as a member of a suspected cluster): *)
  rvc_received : (int * int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* (requesting cluster, v) -> distinct requester node ids *)
  rvc_honored : (int * int, unit) Hashtbl.t;     (* replay protection, line 16.4 *)
  mutable rvc_rounds : (int * int) list;         (* (cluster, round) to re-serve *)
  mutable last_local_vc : Time.t;                (* for the "recent vc" guard *)
  mutable shares_sent : int;                     (* metrics *)
  mutable remote_vcs_triggered : int;
  (* Crash-rejoin catch-up (lib/recovery): the ledger cursor and the
     task pulling the missing ledger suffix from local peers. *)
  catchup : Catchup.t;
}

(* Blocks per catch-up reply, so one message stays bounded. *)
let catchup_chunk = 96

(* -- sizes and verification costs -------------------------------------- *)

let share_size cfg =
  Wire.certificate_bytes ~batch_size:cfg.Config.batch_size ~sigs:(Config.cert_wire_sigs cfg)

let size_of cfg = function
  | Local _ -> assert false (* the engine sizes its own messages *)
  | Request _ | Read_request _ -> Client_core.request_bytes cfg
  | Global_share _ -> share_size cfg
  | Drvc _ | Rvc _ -> Wire.small
  | Reply _ -> Client_core.reply_bytes cfg
  | Fetch_rounds _ -> Wire.fetch_bytes
  | Round_data { suffix; _ } -> Catchup.bytes cfg suffix

(* Receiver floor only: certificate signatures are verified once per
   *new* certificate on the certify thread (deduplication is a cheap
   digest lookup and precedes verification), not per received copy. *)
let vcost_of cfg m =
  match m with
  | Local _ -> assert false
  | Rvc _ ->
      Time.add
        (Config.recv_floor_cost cfg ~bytes:Wire.small)
        (Config.verify_cost cfg)
  | Round_data { suffix; _ } -> Catchup.vcost cfg suffix
  | m -> Config.recv_floor_cost cfg ~bytes:(size_of cfg m)

let send r ~dst m = Ctx.send r.ctx ~dst ~size:(size_of r.cfg m) ~vcost:(vcost_of r.cfg m) m

let local_members r = Config.replicas_of_cluster r.cfg r.my_cluster

let broadcast_local r m =
  let dsts = List.filter (fun dst -> dst <> r.ctx.Ctx.id) (local_members r) in
  Ctx.multicast r.ctx ~dsts ~size:(size_of r.cfg m) ~vcost:(vcost_of r.cfg m) m

(* Trace-phase slot key.  The local cluster's chain uses the engine seq
   (= round) directly, so the embedded Pbft engine's propose / prepare /
   commit marks, the primary's certify-share mark and the execute mark
   chain up; remote-cluster batches get a disjoint per-cluster
   namespace (rounds stay far below 2^24 in any simulated run). *)
let phase_key r ~cluster ~round =
  if cluster = r.my_cluster then round else ((cluster + 1) lsl 24) lor round

(* Replies go to local clients only and name the local primary, so
   clients can retarget after a view change. *)
let reply r ~batch_id result_digest =
  Reply { batch_id; result_digest; primary = Engine.primary r.engine }

(* -- execution ----------------------------------------------------------- *)

(* Execute rounds strictly in order; each round executes its z batches
   in cluster order.  The execute thread is serialized by the CPU
   model, so we drive one round at a time and re-check afterwards. *)
let rec try_execute r =
  (* While recovering, the ledger may sit mid-round (the crash dropped
     part of an exec chain); executing the next round would append at
     the wrong heights and diverge from honest ledgers.  Catch-up
     (install_rounds) re-aligns the cursor and clears the flag. *)
  if (not r.exec_busy) && not r.catchup.recovering then begin
    let round = r.exec_round in
    let ready =
      Array.for_all (fun tr -> Hashtbl.mem tr.certified round) r.tracks
    in
    if ready then begin
      r.exec_busy <- true;
      r.exec_round <- round + 1;
      let batches =
        Array.to_list
          (Array.map (fun tr -> Hashtbl.find tr.certified round) r.tracks)
      in
      exec_batches r round batches
    end
    else update_detection_timers r
  end

and exec_batches r round = function
  | [] ->
      r.exec_busy <- false;
      (* Round done: reset the failure-detection clocks; progress means
         every cluster delivered. *)
      Array.iter
        (fun tr ->
          if tr.cluster <> r.my_cluster then begin
            tr.timeout <- Time.of_ms_f r.cfg.Config.remote_timeout_ms;
            (* Remote rounds below the execution frontier are no longer
               needed; our own are kept for a window so a new primary
               can re-serve remote view-change requests. *)
            Hashtbl.remove tr.certified round
          end
          else Hashtbl.remove tr.certified (round - 256))
        r.tracks;
      try_execute r
  | (batch, cert) :: rest ->
      r.catchup.issued <- r.catchup.issued + 1;
      r.ctx.Ctx.execute batch ~cert:(Some cert) ~on_done:(fun result ->
          r.ctx.Ctx.phase
            ~key:(phase_key r ~cluster:cert.Certificate.cluster ~round)
            ~name:"execute";
          r.catchup.appended <- r.catchup.appended + 1;
          (* Inform only local clients (§2.4), and only with a real
             execution result — [None] means this replica's state was
             already ahead (snapshot install) and up-to-date peers
             answer instead. *)
          (match result with
          | Some res
            when (not (Batch.is_noop batch)) && batch.Batch.cluster = r.my_cluster ->
              Client_core.reply r.ctx ~dst:batch.Batch.origin
                (reply r ~batch_id:batch.Batch.id res.Rdb_types.App.digest)
          | _ -> ());
          exec_batches r round rest)

(* -- remote failure detection (initiation role, Figure 7) ---------------- *)

and update_detection_timers r =
  Array.iter
    (fun tr ->
      if tr.cluster <> r.my_cluster then begin
        let needed = r.exec_round in
        let missing = not (Hashtbl.mem tr.certified needed) in
        match (missing, tr.detect_timer) with
        | true, None ->
            (* The timer is armed *for this round* (the paper sets a
               timer for C1 at the start of round ρ): it only signals
               failure if round [needed] is still the execution
               frontier — and still missing — when it fires. *)
            tr.detect_timer <-
              Some
                (r.ctx.Ctx.set_timer ~delay:tr.timeout (fun () ->
                     tr.detect_timer <- None;
                     on_detect_timeout r tr ~armed_round:needed))
        | false, Some h ->
            r.ctx.Ctx.cancel_timer h;
            tr.detect_timer <- None
        | _ -> ()
      end)
    r.tracks

and on_detect_timeout r tr ~armed_round =
  let round = r.exec_round in
  if round = armed_round && not (Hashtbl.mem tr.certified round) then begin
    (* Figure 7, lines 2-4: detect failure, seek local agreement. *)
    let v = tr.vc_count in
    tr.vc_count <- v + 1;
    (* Exponential back-off for subsequent detections (§2.3). *)
    tr.timeout <- Time.add tr.timeout tr.timeout;
    send_drvc r tr ~round ~v
  end;
  update_detection_timers r

and send_drvc r tr ~round ~v =
  if not (Hashtbl.mem tr.drvc_sent (round, v)) then begin
    Hashtbl.replace tr.drvc_sent (round, v) ();
    broadcast_local r (Drvc { failed_cluster = tr.cluster; round; vc_count = v });
    record_drvc r tr ~src_local:r.my_local ~round ~v
  end

and record_drvc r tr ~src_local ~round ~v =
  let votes =
    match Hashtbl.find_opt tr.drvc_votes (round, v) with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 8 in
        Hashtbl.replace tr.drvc_votes (round, v) h;
        h
  in
  if not (Hashtbl.mem votes src_local) then begin
    Hashtbl.replace votes src_local ();
    let count = Hashtbl.length votes in
    let f = Config.f r.cfg in
    (* Lines 8-11: adopt the detection once f+1 peers report it. *)
    if count >= f + 1 && tr.vc_count <= v then begin
      tr.vc_count <- max tr.vc_count v;
      send_drvc r tr ~round ~v
    end;
    (* Lines 12-13: with n−f in agreement, request the remote
       view-change from our same-id peer in the failed cluster. *)
    if count >= Config.quorum r.cfg && not (Hashtbl.mem tr.rvc_sent (round, v)) then begin
      Hashtbl.replace tr.rvc_sent (round, v) ();
      let payload =
        rvc_payload ~failed_cluster:tr.cluster ~round ~vc_count:v ~requester:r.ctx.Ctx.id
      in
      let signature = Keychain.sign r.ctx.Ctx.keychain ~signer:r.ctx.Ctx.id payload in
      let target = Config.replica_id r.cfg ~cluster:tr.cluster ~index:r.my_local in
      r.ctx.Ctx.charge ~stage:Cpu.Worker ~cost:(Config.sign_cost r.cfg) (fun () ->
          send r ~dst:target
            (Rvc
               {
                 failed_cluster = tr.cluster;
                 round;
                 vc_count = v;
                 requester = r.ctx.Ctx.id;
                 signature;
               }))
    end
  end

(* -- response role (us as a member of the suspected cluster) -------------- *)

and handle_rvc r (m : rvc) ~src =
  if m.failed_cluster = r.my_cluster then begin
    let payload =
      rvc_payload ~failed_cluster:m.failed_cluster ~round:m.round ~vc_count:m.vc_count
        ~requester:m.requester
    in
    if Keychain.verify r.ctx.Ctx.keychain ~signer:m.requester payload m.signature then begin
      let req_cluster = Config.cluster_of_replica r.cfg m.requester in
      if req_cluster <> r.my_cluster then begin
        (* Lines 14-15: first receipt from outside — forward locally. *)
        if not (Hashtbl.mem r.rvc_received (req_cluster, m.vc_count))
           && src = m.requester then
          broadcast_local r (Rvc m);
        let seen =
          match Hashtbl.find_opt r.rvc_received (req_cluster, m.vc_count) with
          | Some h -> h
          | None ->
              let h = Hashtbl.create 8 in
              Hashtbl.replace r.rvc_received (req_cluster, m.vc_count) h;
              h
        in
        if not (Hashtbl.mem seen m.requester) then begin
          Hashtbl.replace seen m.requester ();
          r.rvc_rounds <- (req_cluster, m.round) :: r.rvc_rounds;
          (* Line 16: f+1 distinct signers of one cluster, no recent
             local view-change, first v-th request by that cluster. *)
          let f = Config.f r.cfg in
          let recent_vc =
            Time.( < )
              (Time.sub (r.ctx.Ctx.now ()) r.last_local_vc)
              (Time.of_ms_f r.cfg.Config.local_timeout_ms)
          in
          let gate = if Mutation.is "geobft-rvc-weak" then 1 else f + 1 in
          if Hashtbl.length seen >= gate
             && (not (Hashtbl.mem r.rvc_honored (req_cluster, m.vc_count)))
             && not recent_vc
          then begin
            Evidence.note ~point:"geobft.rvc-honor" ~node:r.ctx.Ctx.id
              ~count:(Hashtbl.length seen) ~need:(f + 1);
            Hashtbl.replace r.rvc_honored (req_cluster, m.vc_count) ();
            r.remote_vcs_triggered <- r.remote_vcs_triggered + 1;
            Engine.force_view_change r.engine
          end
        end
      end
    end
  end

(* -- inter-cluster sharing (Figure 5) -------------------------------------- *)

(* Global phase: the local primary sends m to f+1 replicas per remote
   cluster.  Targets rotate with the round so the WAN load and the
   local-phase rebroadcast duty spread over the receiving cluster. *)
and share_round r ~round (batch : Batch.t) (cert : Certificate.t) =
  let cfg = r.cfg in
  let fanout = Config.share_fanout cfg in
  let n_macs = (cfg.Config.z - 1) * fanout in
  r.ctx.Ctx.charge ~stage:Cpu.Certify
    ~cost:
      (Time.add
         (Config.hash_cost cfg ~bytes:(share_size cfg))
         (Time.of_us_f (cfg.Config.costs.Config.mac_us *. float_of_int n_macs)))
    (fun () ->
      r.ctx.Ctx.phase ~key:round ~name:"certify-share";
      (* Mutant: cluster 0's primary mislabels every share with the
         previous round number; receivers must reject it (the
         certificate binds the round), so remote clusters starve on
         cluster 0's rounds while cluster 0 runs ahead. *)
      let mround =
        if r.my_cluster = 0 && Mutation.is "geobft-share-stale" then round - 1 else round
      in
      let m = Global_share { round = mround; batch; cert } in
      (* One pooled fan-out over every (cluster, rotation) target; the
         rotation offsets still use the true round so target selection
         is unaffected by the mutant. *)
      let dsts = ref [] in
      for c = cfg.Config.z - 1 downto 0 do
        if c <> r.my_cluster then
          for i = fanout - 1 downto 0 do
            let idx = (round + i) mod cfg.Config.n in
            r.shares_sent <- r.shares_sent + 1;
            dsts := Config.replica_id cfg ~cluster:c ~index:idx :: !dsts
          done
      done;
      Ctx.multicast r.ctx ~dsts:!dsts ~size:(size_of cfg m) ~vcost:(vcost_of cfg m) m)

(* Accept a certified batch for (cluster, round); returns true if new. *)
and accept_share r ~src ~round (batch : Batch.t) (cert : Certificate.t) =
  let c = cert.Certificate.cluster in
  if c < 0 || c >= r.cfg.Config.z || c = r.my_cluster then ()
  else begin
    let tr = r.tracks.(c) in
    if (not (Hashtbl.mem tr.certified round)) && round >= r.exec_round then begin
      (* Verify once, on the certify thread, then adopt. *)
      r.ctx.Ctx.charge ~stage:Cpu.Certify ~cost:(Config.cert_verify_cost r.cfg) (fun () ->
          if
            (not (Hashtbl.mem tr.certified round))
            && round >= r.exec_round
            && cert.Certificate.seq = round
            && String.equal cert.Certificate.digest batch.Batch.digest
            && Certificate.verify ~keychain:r.ctx.Ctx.keychain ~quorum:(Config.quorum r.cfg) cert
            && Batch.verify ~keychain:r.ctx.Ctx.keychain batch
          then begin
            r.ctx.Ctx.phase ~key:(phase_key r ~cluster:c ~round) ~name:"certify-share";
            Hashtbl.replace tr.certified round (batch, cert);
            (* Local phase: receipts from outside the cluster are
               rebroadcast to all local replicas (Figure 5, line 3-4). *)
            if Config.cluster_of_replica r.cfg src <> r.my_cluster then
              broadcast_local r (Global_share { round; batch; cert });
            (* A primary that sees remote clusters running ahead while
               it has nothing to propose fills its rounds with no-ops
               (§2.5). *)
            if Engine.is_primary r.engine then begin
              let guard = ref 0 in
              while
                Engine.next_seq r.engine <= round
                && Engine.pending_count r.engine = 0
                && !guard < 4096
              do
                incr guard;
                Engine.propose_noop r.engine
              done
            end;
            try_execute r
          end)
    end
    (* Lagging peers ask via DRVC; sharing m directly (line 5-7)
       happens in the Drvc handler.  Duplicates end here. *)
  end

(* -- crash-rejoin catch-up (lib/recovery) --------------------------------- *)

(* Ledger height h holds round h/z, cluster h mod z: the fabric appends
   in execute-call order and exec_batches walks clusters in order.  A
   rejoining replica therefore pulls the missing suffix with a plain
   ledger read on any local-cluster peer; remote-cluster track entries
   are discarded right after execution, so the ledger is the only place
   old rounds survive. *)

let send_catchup_fetch r ~attempt =
  let peers = List.filter (fun i -> i <> r.ctx.Ctx.id) (local_members r) in
  match peers with
  | [] -> ()
  | peers ->
      let dst = List.nth peers (attempt mod List.length peers) in
      send r ~dst (Fetch_rounds { from = r.catchup.issued })

(* Always answer, even when empty: an empty reply tells the requester
   it has reached our executed frontier. *)
let serve_rounds r ~src ~from =
  let suffix = Catchup.read ~limit:catchup_chunk r.ctx ~from in
  send r ~dst:src (Round_data { from; eng_view = Engine.view r.engine; suffix })

let install_rounds r ~from ~eng_view suffix =
  if r.catchup.recovering && (not r.exec_busy) && from = r.catchup.issued then begin
    let z = r.cfg.Config.z in
    let len = List.length suffix.Catchup.blocks in
    (* note_external_commit can synchronously unblock queued local
       commits whose on_committed handler calls try_execute; hold
       exec_busy so the normal path cannot interleave mid-install.
       Install only complete rounds: a partial round would collide with
       the round-at-a-time normal path once the frontier resumes. *)
    r.exec_busy <- true;
    Catchup.install r.catchup r.ctx ~from suffix
      ~count:(((from + len) / z * z) - from)
      ~apply:(fun ~h batch cert ->
        if h mod z = r.my_cluster then
          ignore (Engine.note_external_commit r.engine ~seq:(h / z) batch);
        r.ctx.Ctx.execute batch ~cert ~on_done:(fun _ ->
            r.catchup.appended <- r.catchup.appended + 1));
    r.exec_busy <- false;
    (* The install ends on a round boundary, so the cursor division is
       exact; a dropped exec chain may have left exec_round ahead. *)
    r.exec_round <- max r.exec_round (r.catchup.issued / z);
    Engine.adopt_view r.engine ~view:eng_view;
    if len < catchup_chunk then begin
      (* The peer's ledger is exhausted: we are at its executed
         frontier.  Resume the normal path; any residual gap to the
         live frontier heals via shares and DRVC re-serving. *)
      r.catchup.recovering <- false;
      update_detection_timers r;
      try_execute r
    end
    else send_catchup_fetch r ~attempt:0
  end

(* -- construction ------------------------------------------------------------ *)

let create_replica (ctx : msg Ctx.t) =
  let cfg = ctx.Ctx.config in
  let my_cluster = Config.cluster_of_replica cfg ctx.Ctx.id in
  let members = Array.of_list (Config.replicas_of_cluster cfg my_cluster) in
  let tracks =
    Array.init cfg.Config.z (fun cluster ->
        {
          cluster;
          certified = Hashtbl.create 128;
          vc_count = 0;
          detect_timer = None;
          timeout = Time.of_ms_f cfg.Config.remote_timeout_ms;
          drvc_votes = Hashtbl.create 8;
          drvc_sent = Hashtbl.create 8;
          rvc_sent = Hashtbl.create 8;
        })
  in
  let r_ref = ref None in
  let on_committed ~seq batch cert =
    match !r_ref with
    | None -> ()
    | Some r ->
        (* Local replication of round [seq] finished in our cluster. *)
        Hashtbl.replace r.tracks.(my_cluster).certified seq (batch, cert);
        if Engine.is_primary r.engine then share_round r ~round:seq batch cert;
        try_execute r
  in
  let on_view_change ~view:_ =
    match !r_ref with
    | None -> ()
    | Some r ->
        r.last_local_vc <- r.ctx.Ctx.now ();
        (* A new primary cannot know which rounds its (possibly faulty)
           predecessor actually delivered (§2.3: it "determines the
           rounds for which it needs to send requests").  It re-shares
           (a) every round remote view-change requests asked for and
           (b) the whole committed-but-possibly-undelivered window, to
           every remote cluster. *)
        if Engine.is_primary r.engine then begin
          let upto = Engine.next_emit r.engine - 1 in
          let requests = r.rvc_rounds in
          r.rvc_rounds <- [];
          let reshare c2 ~from_round =
            for round = from_round to upto do
              match Hashtbl.find_opt r.tracks.(my_cluster).certified round with
              | Some (b, cert) ->
                  let f = Config.share_fanout r.cfg - 1 in
                  for i = 0 to f do
                    let idx = (round + i) mod r.cfg.Config.n in
                    let dst = Config.replica_id r.cfg ~cluster:c2 ~index:idx in
                    let round =
                      if r.my_cluster = 0 && Mutation.is "geobft-share-stale" then round - 1
                      else round
                    in
                    send r ~dst (Global_share { round; batch = b; cert })
                  done
              | None -> ()
            done
          in
          List.iter (fun (c2, from_round) -> reshare c2 ~from_round) requests;
          let recent = max 0 (r.exec_round - 2) in
          for c2 = 0 to r.cfg.Config.z - 1 do
            if c2 <> r.my_cluster then reshare c2 ~from_round:recent
          done
        end
  in
  let engine_ctx = Ctx.map_send (fun m -> Local m) ctx in
  let engine =
    Engine.create ~ctx:engine_ctx ~members ~cluster:my_cluster ~on_committed ~on_view_change ()
  in
  let r =
    {
      ctx;
      cfg;
      my_cluster;
      my_local = Config.local_index cfg ctx.Ctx.id;
      engine;
      tracks;
      exec_round = 0;
      exec_busy = false;
      rvc_received = Hashtbl.create 8;
      rvc_honored = Hashtbl.create 8;
      rvc_rounds = [];
      last_local_vc = Time.sub Time.zero (Time.sec 3600);
      shares_sent = 0;
      remote_vcs_triggered = 0;
      catchup = Catchup.create ctx;
    }
  in
  r_ref := Some r;
  Catchup.watch r.catchup ~fetch:(send_catchup_fetch r) ();
  (* A backup whose local engine dropped messages past its acceptance
     window (the cluster raced ahead while one delayed pre-prepare
     stalled its frontier) never crashed, so only this hook notices it
     is starving; the crash-rejoin fetch path brings it back. *)
  Engine.set_on_behind engine (Some (fun ~seq:_ -> Catchup.start r.catchup));
  (* Failure detection is armed from the start of round 0. *)
  update_detection_timers r;
  r

let engine r = r.engine
let exec_round r = r.exec_round
let remote_vcs_triggered r = r.remote_vcs_triggered

(* -- adversarial view (lib/adversary) -------------------------------------- *)

(* [Share] covers the certified inter-cluster traffic of Figure 5 —
   silencing it from a corrupt primary is equivocation-by-omission
   (Example 2.4 case 1), which the remote view-change machinery must
   repair.  Equivocation with conflicting *content* is modelled on the
   local pre-prepare (a signed no-op in the same slot); forging a
   conflicting [Global_share] is not modelled because its certificate
   binds the batch digest, so receivers reject any tampering. *)
let adversary : msg Rdb_types.Interpose.view =
  let open Rdb_types.Interpose in
  let classify = function
    | Messages.Local em -> (
        match em with
        | Rdb_pbft.Messages.Preprepare _ -> Proposal
        | Rdb_pbft.Messages.Prepare _ | Rdb_pbft.Messages.Commit _ -> Vote
        | Rdb_pbft.Messages.Checkpoint _ -> Sync
        | Rdb_pbft.Messages.ViewChange _ | Rdb_pbft.Messages.NewView _ -> View_change
        | Rdb_pbft.Messages.Forward _ -> Client)
    | Messages.Request _ | Messages.Read_request _ | Messages.Reply _ -> Client
    | Messages.Global_share _ -> Share
    | Messages.Drvc _ | Messages.Rvc _ -> View_change
    | Messages.Fetch_rounds _ | Messages.Round_data _ -> Sync
  in
  let conflict ~keychain ~nonce = function
    | Messages.Local (Rdb_pbft.Messages.Preprepare { view; seq; batch }) ->
        let forged =
          Batch.noop ~keychain ~cluster:batch.Batch.cluster ~origin:batch.Batch.origin
            ~created:batch.Batch.created ~nonce
        in
        Some (Messages.Local (Rdb_pbft.Messages.Preprepare { view; seq; batch = forged }))
    | _ -> None
  in
  { classify; conflict }

(* -- dispatch ----------------------------------------------------------------- *)

let on_message (r : replica) ~src (m : msg) =
  match m with
  | Local em -> Engine.on_message r.engine ~src em
  | Request batch ->
      if batch.Batch.cluster = r.my_cluster && Batch.verify ~keychain:r.ctx.Ctx.keychain batch
      then Engine.submit_batch r.engine batch
  | Read_request batch ->
      (* Consensus-bypass read, served by the client's local cluster. *)
      if batch.Batch.cluster = r.my_cluster then
        Client_core.serve_read r.ctx batch ~reply:(reply r ~batch_id:batch.Batch.id)
  | Global_share { round; batch; cert } -> accept_share r ~src ~round batch cert
  | Drvc { failed_cluster; round; vc_count } ->
      if failed_cluster <> r.my_cluster
         && Config.cluster_of_replica r.cfg src = r.my_cluster then begin
        let tr = r.tracks.(failed_cluster) in
        (* Lines 5-7: if we already hold m, hand it to the requester. *)
        (match Hashtbl.find_opt tr.certified round with
        | Some (b, cert) -> send r ~dst:src (Global_share { round; batch = b; cert })
        | None -> ());
        record_drvc r tr ~src_local:(Config.local_index r.cfg src) ~round ~v:vc_count
      end
  | Rvc rvc -> handle_rvc r rvc ~src
  | Fetch_rounds { from } ->
      if Config.cluster_of_replica r.cfg src = r.my_cluster then serve_rounds r ~src ~from
  | Round_data { from; eng_view; suffix } -> install_rounds r ~from ~eng_view suffix
  | Reply _ -> ()

(* -- client agent --------------------------------------------------------------- *)

type client = msg Client_core.t

let create_client (ctx : msg Ctx.t) ~cluster =
  let cfg = ctx.Ctx.config in
  let locals = Config.replicas_of_cluster cfg cluster in
  (* Clients are assigned to their local cluster (§2); requests go to
     its current primary — initially the view-0 primary, then whatever
     the replies report after view changes.  A retry broadcasts
     locally: backups forward to the primary and arm the censorship
     timer.  Read-only batches bypass consensus: every local replica
     answers from its state, f+1 matching digests suffice. *)
  Client_core.create ~ctx ~threshold:(Config.weak_quorum cfg)
    ~request:(fun b -> Request b)
    ~read:((fun b -> Read_request b), locals)
    ~route:(Primary { initial = Config.replica_id cfg ~cluster ~index:0; retry = locals })
    ()

let submit = Client_core.submit

let on_client_message (c : client) ~src (m : msg) =
  match m with
  | Reply { batch_id; result_digest; primary } ->
      Client_core.on_reply ~primary c ~src ~batch_id ~result_digest
  | _ -> ()

let view_changes (r : replica) = Engine.n_view_changes r.engine

(* -- crash-recover hook --------------------------------------------------- *)

let on_recover (r : replica) =
  Engine.on_recover r.engine;
  (* Timer callbacks and exec continuations were dropped at fire time
     while crashed: the exec chain wedges exec_busy, the detection
     timers hold dead handles, and in-flight executes lost their
     ledger appends. *)
  r.exec_busy <- false;
  Array.iter
    (fun tr ->
      (match tr.detect_timer with
      | Some h -> r.ctx.Ctx.cancel_timer h
      | None -> ());
      tr.detect_timer <- None;
      tr.timeout <- Time.of_ms_f r.cfg.Config.remote_timeout_ms)
    r.tracks;
  Catchup.recover r.catchup;
  update_detection_timers r

let recovery (r : replica) = Recovery.stats r.catchup.recovery
let disable_recovery (r : replica) = Engine.set_on_behind r.engine None
