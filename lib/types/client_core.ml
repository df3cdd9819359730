open Import

(* The shared client agent and the replica half of the client
   interface (client_core.mli).  The paper's argument for f+1 matching
   responses (§2.4): at most f replicas per cluster are faulty and
   faulty replicas cannot impersonate non-faulty ones, so among f+1
   identical responses at least one is from a non-faulty replica. *)

type route =
  | Primary of { initial : int; retry : int list }
  | Pick of (unit -> int)

type pending = {
  batch : Batch.t;
  replies : (int, string) Hashtbl.t;   (* replica -> result digest *)
  mutable resolved : bool;
  mutable timer : Ctx.timer option;
  mutable attempts : int;              (* retransmissions so far (backoff) *)
}

type 'm t = {
  ctx : 'm Ctx.t;
  threshold : int;
  request : Batch.t -> 'm;
  route : route;
  mutable primary : int;   (* latest primary hint, for [Primary] routes *)
  read : ((Batch.t -> 'm) * int list) option;  (* consensus-bypass reads *)
  inflight : (int, pending) Hashtbl.t;
  mutable retransmits : int;
  mutable read_fallbacks : int;  (* reads pushed back onto consensus *)
}

let request_bytes (cfg : Config.t) = Wire.batch_bytes ~batch_size:cfg.Config.batch_size
let reply_bytes (cfg : Config.t) = Wire.response_bytes ~batch_size:cfg.Config.batch_size

let create ~(ctx : 'm Ctx.t) ~threshold ~request ?read ~route () =
  {
    ctx;
    threshold;
    request;
    route;
    primary = (match route with Primary { initial; _ } -> initial | Pick _ -> 0);
    read;
    inflight = Hashtbl.create 64;
    retransmits = 0;
    read_fallbacks = 0;
  }

let retransmits t = t.retransmits
let read_fallbacks t = t.read_fallbacks

(* An ordered request; [retry] on retransmission. *)
let transmit t ~retry batch =
  let dsts =
    match t.route with
    | Primary { retry = dsts; _ } when retry -> dsts
    | Primary _ -> [ t.primary ]
    | Pick pick -> [ pick () ]
  in
  Ctx.multicast t.ctx ~dsts (t.request batch)

(* Exponential backoff, capped at 8x the base timeout: a wedged system
   is probed persistently but not flooded. *)
let rec arm_timer t (p : pending) =
  let base = t.ctx.Ctx.config.Config.client_timeout_ms in
  let scale = float_of_int (min 8 (1 lsl min 3 p.attempts)) in
  let delay = Time.of_ms_f (base *. scale) in
  p.timer <-
    Some
      (t.ctx.Ctx.set_timer ~delay (fun () ->
           if not p.resolved then begin
             t.retransmits <- t.retransmits + 1;
             (* A timed-out bypass read falls back onto consensus: the
                replicas' states disagreed at f+1 (or replies were
                lost), so pay for ordering and get a definitive result.
                Accumulated bypass replies stay in [p.replies] — result
                digests are state-deterministic, so a bypass reply that
                matches the post-consensus digest still counts. *)
             if p.attempts = 0 && t.read <> None && Batch.read_only p.batch then
               t.read_fallbacks <- t.read_fallbacks + 1;
             p.attempts <- p.attempts + 1;
             transmit t ~retry:true p.batch;
             arm_timer t p
           end))

let submit t (batch : Batch.t) =
  if not (Hashtbl.mem t.inflight batch.Batch.id) then begin
    let p =
      { batch; replies = Hashtbl.create 8; resolved = false; timer = None; attempts = 0 }
    in
    Hashtbl.replace t.inflight batch.Batch.id p;
    (match t.read with
    | Some (read, dsts) when Batch.read_only batch -> Ctx.multicast t.ctx ~dsts (read batch)
    | _ -> transmit t ~retry:false batch);
    arm_timer t p
  end

(* Record a reply from [src]; fires [Ctx.complete] at the threshold. *)
let on_reply ?primary t ~src ~batch_id ~result_digest =
  (match primary with Some p -> t.primary <- p | None -> ());
  match Hashtbl.find_opt t.inflight batch_id with
  | None -> ()
  | Some p when p.resolved -> ()
  | Some p ->
      Hashtbl.replace p.replies src result_digest;
      let matching =
        Hashtbl.fold
          (fun _ d acc -> if String.equal d result_digest then acc + 1 else acc)
          p.replies 0
      in
      if matching >= t.threshold then begin
        p.resolved <- true;
        (match p.timer with Some h -> t.ctx.Ctx.cancel_timer h | None -> ());
        Hashtbl.remove t.inflight batch_id;
        t.ctx.Ctx.complete p.batch
      end

(* -- replica side ------------------------------------------------------ *)

(* The replica half of the consensus-bypass read: serve a verified
   read-only batch from current state.  Safe at f+1 matching digests
   because a non-faulty reply reflects a prefix of the agreed order; a
   client that cannot gather f+1 (replica states at different heights)
   times out and re-orders the batch through consensus. *)
let serve_read (ctx : _ Ctx.t) (batch : Batch.t) ~reply:msg =
  if Batch.verify ~keychain:ctx.Ctx.keychain batch && Batch.read_only batch then
    ctx.Ctx.read_execute batch ~on_done:(fun res ->
        Ctx.send ctx ~dst:batch.Batch.origin (msg res.App.digest))
