(** The client agent of pbft, GeoBFT, Steward and HotStuff, and the
    replica half of the client interface.  The agent submits a batch,
    accepts at [threshold] matching results (f+1 per §2.4: one of f+1
    identical responses is from a non-faulty replica) and retransmits
    on timeout.  Protocols hand it constructors and destinations, and
    declare requests and reads at {!request_bytes}.  Zyzzyva keeps its
    own agent. *)

(** Where an ordered request goes. *)
type route =
  | Primary of { initial : int; retry : int list }
      (** First transmissions to the primary guess ([initial], then
          the latest [~primary] hint); retransmissions to [retry]. *)
  | Pick of (unit -> int)  (** Every transmission to [pick ()]. *)

type 'm t

val create :
  ctx:'m Ctx.t ->
  threshold:int ->
  request:(Batch.t -> 'm) ->
  ?read:(Batch.t -> 'm) * int list ->
  route:route ->
  unit ->
  'm t
(** [read], when given, is the consensus-bypass path: a read-only
    batch first goes as [fst read batch] to [snd read]; a timeout falls
    back onto an ordered retry, so reads stay live when replica states
    disagree. *)

val submit : 'm t -> Batch.t -> unit
(** Register and transmit; duplicate ids are ignored. *)

val on_reply :
  ?primary:int -> 'm t -> src:int -> batch_id:int -> result_digest:string -> unit
(** Record a reply, taking its [primary] hint first; at [threshold]
    matching digests the batch completes via [Ctx.complete]. *)

val retransmits : 'm t -> int

val read_fallbacks : 'm t -> int
(** Bypass reads that timed out and were re-ordered through consensus. *)

val request_bytes : Config.t -> int
val reply_bytes : Config.t -> int

(** {2 Replica side} *)

val serve_read : 'm Ctx.t -> Batch.t -> reply:(string -> 'm) -> unit
(** If [batch] verifies and is read-only, execute it against current
    state (no consensus, no ledger) and send [reply digest] to its
    origin. *)
