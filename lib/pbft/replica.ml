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

   Rejoin (lib/recovery): a replica back from a crash, or left behind
   the engine's acceptance window, pulls the ledger suffix through the
   shared catch-up loop, one peer and one chunk at a time, adopting the
   serving peer's view, until a short chunk puts it at that peer's
   executed frontier.  Without this, a rejoining replica (the old
   primary especially) stays wedged: peers never resend the
   prepares/commits it slept through, and new-view messages skip
   already-committed slots.  The chaos monitor's [rejoin] invariant
   checks that it comes back within a few batches of the group. *)

module Batch = Rdb_types.Batch
module Config = Rdb_types.Config
module Ctx = Rdb_types.Ctx
module Wire = Rdb_types.Wire
module Client_core = Rdb_types.Client_core
module App = Rdb_types.App
module Recovery = Rdb_recovery.Recovery
module Catchup = Rdb_recovery.Catchup

let name = "Pbft"

type msg =
  | Engine_msg of Messages.msg
  | Request of Batch.t
  | Read_request of Batch.t
      (* read-only batch served from replica state without consensus;
         the client needs f+1 matching result digests *)
  | Reply of { batch_id : int; result_digest : string; primary : int }
  | Sync of Catchup.msg

type replica = {
  ctx : msg Ctx.t;
  engine : Engine.t;
  catchup : Catchup.t;
  (* digest -> (batch id, result digest) of an executed batch: a
     retransmitted request for a batch we already executed (its reply
     was lost on the wire) is answered from this cache instead of
     being silently dropped by the engine's duplicate-proposal
     guard. *)
  reply_cache : (string, int * string) Hashtbl.t;
}

type client = msg Client_core.t

(* All replicas of the deployment form one cluster. *)
let members_of cfg = Array.init (Config.n_replicas cfg) (fun i -> i)

(* Every reply carries the current primary so clients can retarget
   after a view change. *)
let reply (r : replica) ~batch_id result_digest =
  Reply { batch_id; result_digest; primary = Engine.primary r.engine }

(* Execute the batch committed at [seq] and cache its result; a
   normal-path commit also answers the client with the real result
   digest (it accepts at f+1 matching digests, i.e. f+1 replicas
   agreeing on what was executed).  Appended but not applied (App
   ahead after a state install, or stripped payload): no result to
   report — up-to-date replicas answer the client. *)
let execute (r : replica) ~seq ~answer (batch : Batch.t) ~cert =
  r.ctx.Ctx.execute batch ~cert ~on_done:(fun result ->
      r.ctx.Ctx.phase ~key:seq ~name:"execute";
      r.catchup.appended <- r.catchup.appended + 1;
      match result with
      | Some res when not (Batch.is_noop batch) ->
          Hashtbl.replace r.reply_cache batch.Batch.digest (batch.Batch.id, res.App.digest);
          if answer then
            Ctx.send r.ctx ~dst:batch.Batch.origin
              (reply r ~batch_id:batch.Batch.id res.App.digest)
      | _ -> ())

(* -- replica ------------------------------------------------------------- *)

let create_replica (ctx : msg Ctx.t) =
  let cfg = ctx.Ctx.config in
  let engine_ctx = Ctx.map_send (fun m -> Engine_msg m) ctx in
  let r_ref = ref None in
  let on_committed ~seq (batch : Batch.t) cert =
    match !r_ref with
    | None -> ()
    | Some r ->
        (* Only at the ledger frontier: after a crash dropped in-flight
           executes, the engine may emit past it, and catch-up appends
           the gap first. *)
        if seq = r.catchup.issued then begin
          r.catchup.issued <- seq + 1;
          execute r ~seq ~answer:true batch ~cert:(Some cert)
        end
  in
  let engine =
    Engine.create ~ctx:engine_ctx ~members:(members_of cfg) ~cluster:0 ~on_committed
      ~on_view_change:(fun ~view:_ -> ()) ()
  in
  let r =
    {
      ctx;
      engine;
      catchup =
        Catchup.create (Ctx.map_send (fun m -> Sync m) ctx) ~peers:(Array.to_list (members_of cfg));
      reply_cache = Hashtbl.create 256;
    }
  in
  r_ref := Some r;
  Catchup.watch r.catchup
    ~view:(fun () -> Engine.view engine)
    ~adopt:(fun ~view -> Engine.adopt_view engine ~view)
    ~settled:(fun () -> not (Engine.missed engine))
    ~apply:(fun ~h batch cert ->
      execute r ~seq:h ~answer:false batch ~cert;
      (* Unblocks queued commit quorums, whose executes advance
         [issued] at the frontier in order. *)
      ignore (Engine.note_external_commit engine ~seq:h batch))
    ();
  (* A replica that fell behind the group's acceptance window without
     ever crashing (e.g. a delayed pre-prepare stalled its frontier
     while the others raced ahead) starts the catch-up loop: nobody
     retransmits the normal-path messages its window dropped. *)
  Engine.set_on_behind engine (Some (fun ~seq:_ -> Catchup.start r.catchup));
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
            Ctx.send r.ctx ~dst:batch.Batch.origin (reply r ~batch_id result_digest)
        | None -> Engine.submit_batch r.engine batch)
  | Read_request batch ->
      Client_core.serve_read r.ctx batch ~reply:(reply r ~batch_id:batch.Batch.id)
  | Sync m -> Catchup.on_message r.catchup ~src m
  | Reply _ -> ()

let engine (r : replica) = r.engine

(* -- wire and adversarial view (lib/adversary) ---------------------------- *)

(* A catch-up chunk's receiver re-verifies one certificate per block;
   every other non-engine message pays the receive floor. *)
let wire (cfg : Config.t) : msg -> Wire.cost = function
  | Engine_msg em -> Messages.wire cfg em
  | Request _ | Read_request _ -> { bytes = Client_core.request_bytes cfg; verifies = 0 }
  | Reply _ -> { bytes = Client_core.reply_bytes cfg; verifies = 0 }
  | Sync m -> Catchup.wire cfg m

let adversary : msg Rdb_types.Interpose.view =
  let open Rdb_types.Interpose in
  let classify = function
    | Engine_msg em -> Messages.classify em
    | Request _ | Read_request _ | Reply _ -> Client
    | Sync _ -> Sync
  in
  let conflict ~keychain ~nonce = function
    | Engine_msg em -> Option.map (fun em -> Engine_msg em) (Messages.conflict ~keychain ~nonce em)
    | _ -> None
  in
  { classify; conflict }

let on_recover (r : replica) =
  Engine.on_recover r.engine;
  Catchup.recover r.catchup

let recovery (r : replica) = Recovery.stats r.catchup.recovery

(* -- client agent -------------------------------------------------------- *)

let create_client (ctx : msg Ctx.t) ~cluster:_ =
  let cfg = ctx.Ctx.config in
  let everyone = List.init (Config.n_replicas cfg) Fun.id in
  (* Requests go to the primary, first the view-0 primary in region 0,
     then whichever one the replies name after view changes; a retry
     suspects the primary and broadcasts, so backups forward and start
     censorship timers (standard Pbft client fallback).  Read-only
     batches go straight to every replica; f+1 (global f) matching
     result digests prove the read reflects a committed prefix. *)
  Client_core.create ~ctx
    ~threshold:(((Config.n_replicas cfg - 1) / 3) + 1)
    ~request:(fun b -> Request b)
    ~read:((fun b -> Read_request b), everyone)
    ~route:(Primary { initial = 0; retry = everyone })
    ()

let submit = Client_core.submit

let on_client_message (c : client) ~src (m : msg) =
  match m with
  | Reply { batch_id; result_digest; primary } ->
      Client_core.on_reply ~primary c ~src ~batch_id ~result_digest
  | _ -> ()

let view_changes (r : replica) = Engine.n_view_changes r.engine
