(* Standalone Pbft — the baseline protocol of §4.

   One flat Pbft group over all z·n replicas, with the primary placed
   in region 0 (the experiments put it in Oregon, "as this region has
   the highest bandwidth to all other regions").  Clients in every
   region submit to the primary and wait for f_global + 1 matching
   replies; every replica replies to the issuing client.

   This is the configuration whose geo-scale behaviour Figure 10
   documents: all-to-all prepare/commit traffic crosses regions, and
   the single primary's WAN uplinks carry a full pre-prepare per
   replica per decision.

   Crash-rejoin (lib/recovery): a recovering replica broadcasts
   [Fetch_state] with its ledger height; peers answer [Snapshot] with
   their stable-checkpoint anchor plus the missing ledger suffix.  The
   replica installs once f+1 replies agree on the anchor, adopting the
   group's view, and keeps refetching with backoff until it commits at
   the live frontier again.  Without this, a rejoining replica (the
   old primary especially) stays wedged: peers never resend the
   prepares/commits it slept through, and new-view messages skip
   already-committed slots. *)

module Batch = Rdb_types.Batch
module Certificate = Rdb_types.Certificate
module Config = Rdb_types.Config
module Ctx = Rdb_types.Ctx
module Wire = Rdb_types.Wire
module Client_core = Rdb_types.Client_core
module Protocol = Rdb_types.Protocol
module App = Rdb_types.App
module Time = Rdb_sim.Time
module Recovery = Rdb_recovery.Recovery

let name = "Pbft"

type msg =
  | Engine_msg of Messages.msg
  | Request of Batch.t
  | Read_request of Batch.t
      (* read-only batch served from replica state without consensus;
         the client needs f+1 matching result digests *)
  | Reply of { batch_id : int; result_digest : string; primary : int }
  | Fetch_state of { from : int }
  | Snapshot of {
      from : int;
      anchor_seq : int;
      anchor_digest : string;
      view : int;
      blocks : (Batch.t * Certificate.t option) list;
      (* Full App state at the server: present only when ledger
         payloads are stripped (replaying [blocks] cannot rebuild
         state then). *)
      state : App.snapshot option;
    }

type replica = {
  ctx : msg Ctx.t;
  engine : Engine.t;
  f : int;
  (* Ledger appends issued (execute calls) / completed (on_done).
     [issued] runs ahead of [appended] by the in-flight executes;
     after a crash the in-flight ones were dropped, so [on_recover]
     resyncs [issued] to [appended]. *)
  mutable issued : int;
  mutable appended : int;
  mutable recovering : bool;
  (* src -> (from, anchor_seq, anchor_digest, view, blocks, state) *)
  snap_replies :
    ( int,
      int * int * string * int * (Batch.t * Certificate.t option) list * App.snapshot option )
    Hashtbl.t;
  recovery : Recovery.t;
  (* digest -> (batch id, result digest) of an executed batch: a
     retransmitted request for a batch we already executed (its reply
     was lost on the wire) is answered from this cache instead of
     being silently dropped by the engine's duplicate-proposal
     guard. *)
  reply_cache : (string, int * string) Hashtbl.t;
}

type client = { core : msg Client_core.t; primary_guess : int ref }

(* All replicas of the deployment form one cluster. *)
let members_of cfg = Array.init (Config.n_replicas cfg) (fun i -> i)

(* Every reply carries the current primary so clients can retarget
   after a view change. *)
let send_reply (r : replica) ~dst ~batch_id ~result_digest =
  let cfg = r.ctx.Ctx.config in
  let size = Wire.response_bytes ~batch_size:cfg.Config.batch_size in
  Ctx.send r.ctx ~dst ~size ~vcost:(Config.recv_floor_cost cfg ~bytes:size)
    (Reply { batch_id; result_digest; primary = Engine.primary r.engine })

(* -- state transfer ------------------------------------------------------ *)

let broadcast_fetch (r : replica) =
  let cfg = r.ctx.Ctx.config in
  let vcost = Config.recv_floor_cost cfg ~bytes:Wire.fetch_bytes in
  let me = r.ctx.Ctx.id in
  let dsts = List.filter (fun d -> d <> me) (List.init (Config.n_replicas cfg) Fun.id) in
  Ctx.multicast r.ctx ~dsts ~size:Wire.fetch_bytes ~vcost (Fetch_state { from = r.issued })

let serve_fetch (r : replica) ~src ~from =
  let cfg = r.ctx.Ctx.config in
  let blocks = r.ctx.Ctx.ledger_read ~height:from in
  let nb = List.length blocks in
  (* With stripped ledger payloads the served blocks cannot be
     replayed; piggyback the full App state (None when payloads are
     retained — replay is then cheaper than shipping state). *)
  let state = r.ctx.Ctx.state_snapshot () in
  let size =
    Wire.snapshot_bytes ~batch_size:cfg.Config.batch_size ~sigs:(Config.cert_wire_sigs cfg)
      ~blocks:nb
    + (match state with Some s -> String.length s.App.state | None -> 0)
  in
  (* The requester verifies the anchor digest and one certificate per
     block before installing. *)
  let vcost =
    Time.add
      (Config.recv_floor_cost cfg ~bytes:size)
      (Time.of_us_f (cfg.Config.costs.Config.verify_us *. float_of_int (max 1 nb)))
  in
  Ctx.send r.ctx ~dst:src ~size ~vcost
    (Snapshot
       {
         from;
         anchor_seq = Engine.low_water r.engine;
         anchor_digest = Engine.stable_digest r.engine;
         view = Engine.view r.engine;
         blocks;
         state;
       })

let install (r : replica) ~from ~anchor_seq ~anchor_digest ~view ~blocks ~state =
  (* Install the App snapshot first (forward-ratchet: a stale one is
     ignored): served blocks may be payload-stripped, in which case the
     state transfer — not replay — is what rebuilds the store. *)
  Option.iter r.ctx.Ctx.app_restore state;
  let filled = ref 0 in
  List.iteri
    (fun i (batch, cert) ->
      let h = from + i in
      (* [issued] may advance inside this loop: [note_external_commit]
         unblocks queued commit quorums, whose emissions interleave at
         the frontier in order. *)
      if h = r.issued then begin
        r.issued <- r.issued + 1;
        incr filled;
        r.ctx.Ctx.execute batch ~cert ~on_done:(fun result ->
            r.ctx.Ctx.phase ~key:h ~name:"execute";
            r.appended <- r.appended + 1;
            match result with
            | Some res when not (Batch.is_noop batch) ->
                Hashtbl.replace r.reply_cache batch.Batch.digest
                  (batch.Batch.id, res.App.digest)
            | _ -> ());
        ignore (Engine.note_external_commit r.engine ~seq:h batch)
      end)
    blocks;
  Recovery.note_installed r.recovery ~filled:!filled;
  Engine.install_checkpoint r.engine ~seq:anchor_seq ~digest:anchor_digest;
  Engine.adopt_view r.engine ~view

(* Install once f+1 replies agree on the stable-checkpoint anchor,
   taking the reply reaching the highest ledger height. *)
let try_install (r : replica) =
  let groups = Hashtbl.create 4 in
  Hashtbl.iter
    (fun _ (from, aseq, adig, view, blocks, state) ->
      let k = (aseq, adig) in
      Hashtbl.replace groups k
        ((from, view, blocks, state) :: Option.value ~default:[] (Hashtbl.find_opt groups k)))
    r.snap_replies;
  let chosen =
    Hashtbl.fold
      (fun (aseq, adig) rs acc ->
        match acc with
        | Some _ -> acc
        | None -> if List.length rs >= r.f + 1 then Some (aseq, adig, rs) else None)
      groups None
  in
  match chosen with
  | None -> ()
  | Some (aseq, adig, rs) ->
      let from, view, blocks, state =
        List.fold_left
          (fun (bf, bv, bb, bs) (f', v', b', s') ->
            if f' + List.length b' > bf + List.length bb then (f', v', b', s')
            else (bf, bv, bb, bs))
          (List.hd rs) (List.tl rs)
      in
      Hashtbl.reset r.snap_replies;
      install r ~from ~anchor_seq:aseq ~anchor_digest:adig ~view ~blocks ~state

(* -- replica ------------------------------------------------------------- *)

(* Start the crash-rejoin state transfer for a replica that fell
   behind the group's acceptance window without ever crashing (e.g. a
   delayed pre-prepare stalled its frontier while the others raced
   ahead): nobody retransmits the normal-path messages its window
   dropped, so the fetch/snapshot path is the only way back. *)
let begin_catchup (r : replica) =
  if not r.recovering then begin
    r.recovering <- true;
    Hashtbl.reset r.snap_replies;
    Recovery.note_retransmit r.recovery;
    broadcast_fetch r;
    Recovery.start r.recovery
  end

let create_replica (ctx : msg Ctx.t) =
  let cfg = ctx.Ctx.config in
  let engine_ctx = Ctx.map_send (fun m -> Engine_msg m) ctx in
  let r_ref = ref None in
  let on_committed ~seq (batch : Batch.t) cert =
    match !r_ref with
    | None -> ()
    | Some r ->
        r.issued <- r.issued + 1;
        (* A normal-path commit means this replica is back at the live
           frontier: catch-up is done. *)
        r.recovering <- false;
        ctx.Ctx.execute batch ~cert:(Some cert) ~on_done:(fun result ->
            ctx.Ctx.phase ~key:seq ~name:"execute";
            r.appended <- r.appended + 1;
            match result with
            | Some res when not (Batch.is_noop batch) ->
                (* Reply with the real execution-result digest; the
                   client accepts at f+1 matching digests, i.e. f+1
                   replicas agreeing on what was executed. *)
                Hashtbl.replace r.reply_cache batch.Batch.digest
                  (batch.Batch.id, res.App.digest);
                send_reply r ~dst:batch.Batch.origin ~batch_id:batch.Batch.id
                  ~result_digest:res.App.digest
            | _ ->
                (* Appended but not applied (App ahead after a state
                   install, or stripped payload): no result to report —
                   up-to-date replicas answer the client. *)
                ())
  in
  let engine =
    Engine.create ~ctx:engine_ctx ~members:(members_of cfg) ~cluster:0 ~on_committed
      ~on_view_change:(fun ~view:_ -> ()) ()
  in
  let f = (Config.n_replicas cfg - 1) / 3 in
  let r =
    {
      ctx;
      engine;
      f;
      issued = 0;
      appended = 0;
      recovering = false;
      snap_replies = Hashtbl.create 8;
      recovery = Recovery.create ctx;
      reply_cache = Hashtbl.create 256;
    }
  in
  r_ref := Some r;
  Engine.set_on_behind engine
    (Some (fun ~seq:_ -> match !r_ref with Some r -> begin_catchup r | None -> ()));
  Recovery.watch r.recovery
    ~needed:(fun () -> r.recovering)
    ~progress:(fun () -> r.issued)
    ~fire:(fun ~attempt:_ ->
      Recovery.note_retransmit r.recovery;
      broadcast_fetch r);
  r

let on_message (r : replica) ~src (m : msg) =
  match m with
  | Engine_msg em -> Engine.on_message r.engine ~src em
  | Request batch -> (
      if Batch.verify ~keychain:r.ctx.Ctx.keychain batch then
        match Hashtbl.find_opt r.reply_cache batch.Batch.digest with
        | Some (batch_id, result_digest) ->
            (* Already executed: the client's retransmission means the
               original reply was lost — answer from the cache. *)
            send_reply r ~dst:batch.Batch.origin ~batch_id ~result_digest
        | None -> Engine.submit_batch r.engine batch)
  | Read_request batch ->
      Client_core.serve_read r.ctx batch ~reply:(fun result_digest ->
          send_reply r ~dst:batch.Batch.origin ~batch_id:batch.Batch.id ~result_digest)
  | Fetch_state { from } -> serve_fetch r ~src ~from
  | Snapshot { from; anchor_seq; anchor_digest; view; blocks; state } ->
      if r.recovering then begin
        Hashtbl.replace r.snap_replies src (from, anchor_seq, anchor_digest, view, blocks, state);
        try_install r
      end
  | Reply _ -> ()

let engine (r : replica) = r.engine

(* -- adversarial view (lib/adversary) ------------------------------------ *)

(* Equivocation is modelled on pre-prepares only: the forged payload is
   a validly signed no-op batch in the same (view, seq) slot, so it
   passes backup-side batch verification — the classic two-faced
   primary that prepare/commit vote counting must contain. *)
let adversary : msg Rdb_types.Interpose.view =
  let open Rdb_types.Interpose in
  let classify = function
    | Engine_msg em -> (
        match em with
        | Messages.Preprepare _ -> Proposal
        | Messages.Prepare _ | Messages.Commit _ -> Vote
        | Messages.Checkpoint _ -> Sync
        | Messages.ViewChange _ | Messages.NewView _ -> View_change
        | Messages.Forward _ -> Client)
    | Request _ | Read_request _ | Reply _ -> Client
    | Fetch_state _ | Snapshot _ -> Sync
  in
  let conflict ~keychain ~nonce = function
    | Engine_msg (Messages.Preprepare { view; seq; batch }) ->
        let forged =
          Batch.noop ~keychain ~cluster:batch.Batch.cluster ~origin:batch.Batch.origin
            ~created:batch.Batch.created ~nonce
        in
        Some (Engine_msg (Messages.Preprepare { view; seq; batch = forged }))
    | _ -> None
  in
  { classify; conflict }

let on_recover (r : replica) =
  Engine.on_recover r.engine;
  (* Executes in flight at crash time were dropped with their ledger
     appends: resync the issue cursor to what actually landed. *)
  r.issued <- r.appended;
  r.recovering <- true;
  Hashtbl.reset r.snap_replies;
  broadcast_fetch r;
  Recovery.start r.recovery

let recovery (r : replica) = Recovery.stats r.recovery
let disable_recovery (r : replica) = Engine.set_on_behind r.engine None

(* -- client agent -------------------------------------------------------- *)

let create_client (ctx : msg Ctx.t) ~cluster:_ =
  let cfg = ctx.Ctx.config in
  let size = Wire.batch_bytes ~batch_size:cfg.Config.batch_size in
  let vcost = Config.recv_floor_cost cfg ~bytes:size in
  (* The view-0 primary lives in region 0; replies update the guess
     after view changes. *)
  let primary_guess = ref 0 in
  let everyone = List.init (Config.n_replicas cfg) Fun.id in
  let transmit ~retry (batch : Batch.t) =
    if retry then
      (* Suspect the primary: broadcast so backups forward and start
         censorship timers (standard Pbft client fallback). *)
      Ctx.multicast ctx ~dsts:everyone ~size ~vcost (Request batch)
    else Ctx.send ctx ~dst:!primary_guess ~size ~vcost (Request batch)
  in
  (* Read-only batches go straight to every replica; f+1 matching
     result digests prove the read reflects a committed prefix. *)
  let transmit_read (batch : Batch.t) =
    Ctx.multicast ctx ~dsts:everyone ~size ~vcost (Read_request batch)
  in
  (* Global f for the flat group. *)
  let f_global = (Config.n_replicas cfg - 1) / 3 in
  {
    core = Client_core.create ~ctx ~threshold:(f_global + 1) ~transmit_read ~transmit ();
    primary_guess;
  }

let submit (c : client) batch = Client_core.submit c.core batch

let on_client_message (c : client) ~src (m : msg) =
  match m with
  | Reply { batch_id; result_digest; primary } ->
      c.primary_guess := primary;
      Client_core.on_reply c.core ~src ~batch_id ~result_digest
  | _ -> ()

let client_retransmits (c : client) = Client_core.retransmits c.core

let view_changes (r : replica) = Engine.n_view_changes r.engine
