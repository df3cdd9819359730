open Import

(* Generic client agent logic: submit a batch, collect replies, accept
   once [threshold] replicas sent matching results, retransmit on
   timeout.

   The paper's argument for f+1 matching responses (§2.4): at most f
   replicas per cluster are faulty and faulty replicas cannot
   impersonate non-faulty ones, so among f+1 identical responses at
   least one is from a non-faulty replica.  Zyzzyva needs richer client
   behaviour (3f+1 fast path, commit-certificate recovery), so it layers
   its own logic on top of this core rather than using the threshold
   path. *)

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
  (* [transmit ~retry batch] actually sends the request; retry = true
     on retransmission (protocols typically broadcast then). *)
  transmit : retry:bool -> Batch.t -> unit;
  (* Consensus-bypass path for read-only batches, when the protocol
     offers one: the first transmission goes here; a timeout falls back
     to [transmit ~retry:true] (ordered through consensus), so a read
     whose result digests disagree across replicas still completes. *)
  transmit_read : (Batch.t -> unit) option;
  inflight : (int, pending) Hashtbl.t;
  mutable submitted : int;
  mutable completed : int;
  mutable retransmits : int;
  mutable read_fallbacks : int;  (* reads pushed back onto consensus *)
}

let create ~(ctx : 'm Ctx.t) ~threshold ?transmit_read ~transmit () =
  {
    ctx;
    threshold;
    transmit;
    transmit_read;
    inflight = Hashtbl.create 64;
    submitted = 0;
    completed = 0;
    retransmits = 0;
    read_fallbacks = 0;
  }

let inflight_count t = Hashtbl.length t.inflight
let submitted t = t.submitted
let completed t = t.completed
let retransmits t = t.retransmits
let read_fallbacks t = t.read_fallbacks

let takes_read_path t (batch : Batch.t) =
  t.transmit_read <> None && Batch.read_only batch

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
             if p.attempts = 0 && takes_read_path t p.batch then
               t.read_fallbacks <- t.read_fallbacks + 1;
             p.attempts <- p.attempts + 1;
             t.transmit ~retry:true p.batch;
             arm_timer t p
           end))

let submit t (batch : Batch.t) =
  if not (Hashtbl.mem t.inflight batch.Batch.id) then begin
    let p =
      { batch; replies = Hashtbl.create 8; resolved = false; timer = None; attempts = 0 }
    in
    Hashtbl.replace t.inflight batch.Batch.id p;
    t.submitted <- t.submitted + 1;
    (match t.transmit_read with
    | Some transmit_read when Batch.read_only batch -> transmit_read batch
    | _ -> t.transmit ~retry:false batch);
    arm_timer t p
  end

(* Record a reply from [src]; fires [Ctx.complete] at the threshold. *)
let on_reply t ~src ~batch_id ~result_digest =
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
        t.completed <- t.completed + 1;
        t.ctx.Ctx.complete p.batch
      end

(* The replica half of the consensus-bypass read: serve a verified
   read-only batch from current state.  Safe at f+1 matching digests
   because a non-faulty reply reflects a prefix of the agreed order; a
   client that cannot gather f+1 (replica states at different heights)
   times out and re-orders the batch through consensus. *)
let serve_read (ctx : _ Ctx.t) (batch : Batch.t) ~reply =
  if Batch.verify ~keychain:ctx.Ctx.keychain batch && Batch.read_only batch then
    ctx.Ctx.read_execute batch ~on_done:(fun res -> reply res.App.digest)
