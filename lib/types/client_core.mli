(** Generic client-agent logic: submit a batch, collect replies, accept
    at [threshold] matching results (f+1 per §2.4: at least one of f+1
    identical responses is from a non-faulty replica), retransmit on
    timeout.  Zyzzyva layers its richer client protocol on top of its
    own state instead. *)

type 'm t

val create :
  ctx:'m Ctx.t ->
  threshold:int ->
  ?transmit_read:(Batch.t -> unit) ->
  transmit:(retry:bool -> Batch.t -> unit) ->
  unit ->
  'm t
(** [transmit ~retry batch] performs the actual send; [retry] is true
    on retransmissions (protocols typically broadcast then).
    [transmit_read], when given, carries the first transmission of a
    read-only batch (the consensus-bypass read path); a timeout falls
    back onto [transmit ~retry:true], so reads stay live even when
    replica states disagree at the threshold. *)

val submit : 'm t -> Batch.t -> unit
(** Register and transmit; duplicate ids are ignored. *)

val on_reply : 'm t -> src:int -> batch_id:int -> result_digest:string -> unit
(** Record a reply; at [threshold] matching digests the batch completes
    via [Ctx.complete] and its timer is cancelled. *)

val inflight_count : 'm t -> int
val submitted : 'm t -> int
val completed : 'm t -> int
val retransmits : 'm t -> int

val read_fallbacks : 'm t -> int
(** Bypass reads that timed out and were re-ordered through consensus. *)

val serve_read : _ Ctx.t -> Batch.t -> reply:(string -> unit) -> unit
(** Replica side of the bypass read: if [batch] verifies and is
    read-only, execute it against current state (no consensus, no
    ledger) and call [reply] with the result digest.  The protocol
    keeps only its own routing guard and [Reply] constructor. *)
