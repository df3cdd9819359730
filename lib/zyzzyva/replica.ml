(* Zyzzyva: speculative Byzantine fault tolerance (Kotla et al., SOSP
   2007), as implemented in ResilientDB (§3 "Other protocols").

   Normal case: the primary assigns sequence numbers and broadcasts
   order-requests; replicas execute *speculatively* in order and reply
   straight to the client.  Each reply carries the replica's history
   digest h_n = H(h_{n-1} || d_n), which is what makes divergence
   client-visible.

   Client protocol (§3: "clients in Zyzzyva require identical responses
   from all n replicas"):
   - n matching speculative replies  → complete (fast path);
   - otherwise, after a commit timer, with at least n − f matching
     replies the client broadcasts a commit certificate; replicas that
     accept it send local-commit acks and the client completes at n − f
     acks (slow path: one extra client-driven round trip, plus
     certificate verification at every replica — "the certify thread at
     each replica processes these recovery certificates");
   - with fewer than n − f matching replies the client retransmits.

   This is why Zyzzyva's throughput collapses under even a single
   replica failure (Figure 12): the fast path needs *all* n replicas,
   so every request pays the commit timer plus the recovery round.
   ResilientDB's evaluation placed the primary in Oregon; we do the
   same (replica 0).  View changes are not implemented — the paper
   excludes Zyzzyva from the primary-failure experiment for the same
   reason ("it already fails to deal with non-primary failures"). *)

module Batch = Rdb_types.Batch
module Config = Rdb_types.Config
module Ctx = Rdb_types.Ctx
module Wire = Rdb_types.Wire
module Time = Rdb_sim.Time
module Cpu = Rdb_sim.Cpu
module Sha256 = Rdb_crypto.Sha256
module Mutation = Rdb_types.Mutation
module Evidence = Rdb_types.Evidence

let name = "Zyzzyva"

type msg =
  | Request of Batch.t
  | Order_req of { view : int; seq : int; batch : Batch.t; history : string }
  | Spec_reply of { batch_id : int; seq : int; history : string; result_digest : string }
  | Commit_cert of { batch_id : int; seq : int; history : string; responders : int list }
  | Local_commit of { batch_id : int; seq : int }

(* -- replica ------------------------------------------------------------- *)

type replica = {
  ctx : msg Ctx.t;
  cfg : Config.t;
  n : int;
  f : int;
  mutable view : int;
  mutable next_seq : int;              (* primary: next sequence number *)
  mutable next_exec : int;             (* replicas execute strictly in order *)
  mutable history : string;            (* speculative history digest *)
  mutable max_committed : int;         (* highest certificate-committed seq *)
  ordered : (int, Batch.t * string) Hashtbl.t;   (* seq -> batch, history *)
  seen : (string, unit) Hashtbl.t;     (* proposed digests (primary) *)
}

(* An order request carries the client's signed batch; a commit
   certificate one signature per embedded response, checked on
   receipt. *)
let wire cfg m : Wire.cost =
  let batch_size = cfg.Config.batch_size in
  match m with
  | Request _ -> { bytes = Wire.batch_bytes ~batch_size; verifies = 0 }
  | Order_req _ -> { bytes = Wire.batch_bytes ~batch_size + 64; verifies = 1 }
  | Spec_reply _ -> { bytes = Wire.response_bytes ~batch_size; verifies = 0 }
  | Commit_cert { responders; _ } ->
      let k = List.length responders in
      { bytes = Wire.small + (Wire.commit_entry_bytes * k); verifies = k }
  | Local_commit _ -> { bytes = Wire.small; verifies = 0 }

let create_replica (ctx : msg Ctx.t) =
  let cfg = ctx.Ctx.config in
  let n = Config.n_replicas cfg in
  {
    ctx;
    cfg;
    n;
    f = (n - 1) / 3;
    view = 0;
    next_seq = 0;
    next_exec = 0;
    history = Sha256.digest "zyzzyva-genesis";
    max_committed = -1;
    ordered = Hashtbl.create 128;
    seen = Hashtbl.create 256;
  }

let view_changes (_ : replica) = 0

(* Zyzzyva ships no view change and, faithfully to the paper's
   implementation choice, no recovery machinery either: its chaos
   envelope stays as-is (DESIGN.md §8). *)
let on_recover (_ : replica) = ()
let recovery (_ : replica) = Rdb_types.Protocol.no_recovery
let is_primary r = r.ctx.Ctx.id = r.view mod r.n

(* Execute [batch] at [seq] and send the client its speculative reply,
   then go on in sequence order. *)
let rec execute r ~seq batch ~history =
  r.ctx.Ctx.execute batch ~cert:None ~on_done:(fun result ->
      r.ctx.Ctx.phase ~key:seq ~name:"execute";
      (match result with
      | Some res when not (Batch.is_noop batch) ->
          Ctx.send r.ctx ~dst:batch.Batch.origin
            (Spec_reply
               {
                 batch_id = batch.Batch.id;
                 seq;
                 history;
                 result_digest = res.Rdb_types.App.digest;
               })
      | _ -> ());
      exec_ready r)

(* Execute in sequence order. *)
and exec_ready r =
  match Hashtbl.find_opt r.ordered r.next_exec with
  | None -> ()
  | Some (batch, history) ->
      let seq = r.next_exec in
      r.next_exec <- seq + 1;
      (* Keep a window for commit-certificate recovery; drop the rest. *)
      Hashtbl.remove r.ordered (seq - 1024);
      execute r ~seq batch ~history

let on_message r ~src (m : msg) =
  match m with
  | Request batch ->
      if is_primary r then begin
        if
          (not (Hashtbl.mem r.seen batch.Batch.digest))
          && Batch.verify ~keychain:r.ctx.Ctx.keychain batch
        then begin
          Hashtbl.replace r.seen batch.Batch.digest ();
          let seq = r.next_seq in
          r.next_seq <- seq + 1;
          r.ctx.Ctx.charge ~stage:Cpu.Batching
            ~cost:(Config.batch_asm_cost r.cfg)
            (fun () ->
              r.ctx.Ctx.phase ~key:seq ~name:"propose";
              (* The primary's own history advances as it orders. *)
              let h = Sha256.digest_list [ r.history; batch.Batch.digest ] in
              r.history <- h;
              let m = Order_req { view = r.view; seq; batch; history = h } in
              let dsts = ref [] in
              for dst = r.n - 1 downto 0 do
                if dst <> r.ctx.Ctx.id then dsts := dst :: !dsts
              done;
              Ctx.multicast r.ctx ~dsts:!dsts m;
              Hashtbl.replace r.ordered seq (batch, h);
              exec_ready r)
        end
      end
  | Order_req { view; seq; batch; history } ->
      if view = r.view && src = view mod r.n && not (Hashtbl.mem r.ordered seq) then begin
        r.ctx.Ctx.phase ~key:seq ~name:"propose";
        Hashtbl.replace r.ordered seq (batch, history);
        if Mutation.is "zyzzyva-spec-history" then begin
          (* Mutant: speculate without verifying that the order-request
             extends the local history chain — execute in arrival
             order.  Indistinguishable under FIFO arrivals; diverges
             the moment a schedule reorders two order-requests. *)
          if seq >= r.next_exec then begin
            r.next_exec <- seq + 1;
            execute r ~seq batch ~history
          end
        end
        else
          (* The chained history check: execute only the next expected
             sequence number (the history must extend ours).  Out-of-
             order arrivals wait (the network may reorder). *)
          exec_ready r
      end
  | Commit_cert { batch_id; seq; history; responders } ->
      (* n − f matching speculative responses prove the prefix up to
         [seq] is stable; acknowledge. *)
      if List.length responders >= r.n - r.f && seq < r.next_exec then begin
        Evidence.note ~point:"zyzzyva.commit-cert" ~node:r.ctx.Ctx.id
          ~count:(List.length responders) ~need:(r.n - r.f);
        (match Hashtbl.find_opt r.ordered seq with
        | Some (_, h) when String.equal h history ->
            r.max_committed <- max r.max_committed seq;
            Ctx.send r.ctx ~dst:src (Local_commit { batch_id; seq })
        | _ -> ())
      end
  | Spec_reply _ | Local_commit _ -> ()

(* -- client -------------------------------------------------------------- *)

type pending = {
  batch : Batch.t;
  mutable replies : (int * string * string) list;  (* replica, history, result *)
  mutable acks : int list;                          (* local-commit acks *)
  mutable seq : int;                                (* seq from replies; -1 unknown *)
  mutable state : [ `Speculative | `Committing | `Done ];
  mutable timer : Ctx.timer option;
}

type client = {
  cctx : msg Ctx.t;
  ccfg : Config.t;
  cn : int;
  cf : int;
  inflight : (int, pending) Hashtbl.t;
  mutable fast_completions : int;
  mutable slow_completions : int;
}

let create_client (ctx : msg Ctx.t) ~cluster:_ =
  let cfg = ctx.Ctx.config in
  let n = Config.n_replicas cfg in
  {
    cctx = ctx;
    ccfg = cfg;
    cn = n;
    cf = (n - 1) / 3;
    inflight = Hashtbl.create 64;
    fast_completions = 0;
    slow_completions = 0;
  }

(* The commit timer: how long a client waits for the full n fast-path
   replies before falling back to the commit-certificate path.  Zyzzyva
   uses a short timer here (it gates every request when any replica is
   slow or down). *)
let commit_timer_ms = 2_500.

let finish c p =
  p.state <- `Done;
  (match p.timer with Some h -> c.cctx.Ctx.cancel_timer h | None -> ());
  Hashtbl.remove c.inflight p.batch.Batch.id;
  c.cctx.Ctx.complete p.batch

let try_fast_path c p =
  match p.replies with
  | (_, h0, d0) :: _ ->
      let matching =
        List.length (List.filter (fun (_, h, d) -> String.equal h h0 && String.equal d d0) p.replies)
      in
      if matching >= c.cn then begin
        c.fast_completions <- c.fast_completions + 1;
        finish c p
      end
  | [] -> ()

(* Slow path: find the n − f matching majority and broadcast a commit
   certificate built from it. *)
let try_commit_cert c p =
  let groups = Hashtbl.create 4 in
  List.iter
    (fun (replica, h, d) ->
      let key = h ^ d in
      let cur = Option.value ~default:[] (Hashtbl.find_opt groups key) in
      Hashtbl.replace groups key ((replica, h) :: cur))
    p.replies;
  let best =
    Hashtbl.fold
      (fun _ members acc ->
        match acc with
        | Some best when List.length best >= List.length members -> acc
        | _ -> Some members)
      groups None
  in
  match best with
  | Some ((_, h) :: _ as members) when List.length members >= c.cn - c.cf ->
      p.state <- `Committing;
      let responders = List.map fst members in
      let seq = p.seq in
      c.cctx.Ctx.charge ~stage:Cpu.Misc ~cost:(Config.sign_cost c.ccfg) (fun () ->
          let m = Commit_cert { batch_id = p.batch.Batch.id; seq; history = h; responders } in
          Ctx.multicast c.cctx ~dsts:(List.init c.cn Fun.id) m)
  | _ ->
      (* Not enough agreement: retransmit the request to the primary. *)
      Ctx.send c.cctx ~dst:0 (Request p.batch)

let rec arm_commit_timer c p =
  p.timer <-
    Some
      (c.cctx.Ctx.set_timer ~delay:(Time.of_ms_f commit_timer_ms) (fun () ->
           p.timer <- None;
           if p.state <> `Done then begin
             try_commit_cert c p;
             arm_commit_timer c p
           end))

let submit (c : client) (batch : Batch.t) =
  if not (Hashtbl.mem c.inflight batch.Batch.id) then begin
    let p = { batch; replies = []; acks = []; seq = -1; state = `Speculative; timer = None } in
    Hashtbl.replace c.inflight batch.Batch.id p;
    Ctx.send c.cctx ~dst:0 (Request batch);
    (* The commit timer doubles as the retransmission timer: with no
       replies at all, try_commit_cert falls through to a retransmit. *)
    arm_commit_timer c p
  end

let on_client_message (c : client) ~src (m : msg) =
  match m with
  | Spec_reply { batch_id; seq; history; result_digest } -> (
      match Hashtbl.find_opt c.inflight batch_id with
      | None -> ()
      | Some p when p.state = `Done -> ()
      | Some p ->
          if not (List.exists (fun (r, _, _) -> r = src) p.replies) then begin
            p.replies <- (src, history, result_digest) :: p.replies;
            p.seq <- max p.seq seq;
            try_fast_path c p
          end)
  | Local_commit { batch_id; _ } -> (
      match Hashtbl.find_opt c.inflight batch_id with
      | None -> ()
      | Some p when p.state <> `Committing -> ()
      | Some p ->
          if not (List.mem src p.acks) then begin
            p.acks <- src :: p.acks;
            if List.length p.acks >= c.cn - c.cf then begin
              c.slow_completions <- c.slow_completions + 1;
              finish c p
            end
          end)
  | _ -> ()

let fast_completions c = c.fast_completions
let slow_completions c = c.slow_completions

(* -- adversarial view (lib/adversary) -------------------------------------- *)

(* Content equivocation is deliberately not modelled: Zyzzyva's
   speculative histories legally diverge until the client-driven
   commit-certificate path reconciles them, so a conflicting order-req
   would trip the ledger-agreement monitor without exposing any
   protocol decision — delay and replay are the sound primitives here
   (they reorder speculative execution, which the history hashes must
   absorb). *)
let adversary : msg Rdb_types.Interpose.view =
  let open Rdb_types.Interpose in
  let classify = function
    | Request _ | Spec_reply _ -> Client
    | Order_req _ -> Proposal
    | Commit_cert _ -> Sync
    | Local_commit _ -> Vote
  in
  let conflict ~keychain:_ ~nonce:_ _ = None in
  { classify; conflict }
