(** Wire-size model, calibrated from §4 of the paper: with batch size
    100, "the messages have sizes of 5.4 kB (preprepare), 6.4 kB
    (commit certificates ...), 1.5 kB (client responses), and 250 B
    (other messages)".  Payloads travel as OCaml values inside the
    simulator; these sizes are what enters the bandwidth model. *)

type cost = { bytes : int; verifies : int }
(** A message's bytes on the wire and its receiver's signature checks,
    declared once per constructor by [Protocol.S.wire]. *)

val commit_entry_bytes : int

val batch_bytes : batch_size:int -> int
(** A client request / batch carrying [batch_size] transactions
    (5400 B at batch size 100). *)

val preprepare_bytes : batch_size:int -> int
(** Alias of {!batch_bytes}: a preprepare embeds the batch. *)

val certificate_bytes : batch_size:int -> sigs:int -> int
(** Commit certificate: embedded preprepare plus one signed commit
    entry per certificate signature (6401 B at batch 100 / 7 sigs). *)

val response_bytes : batch_size:int -> int
(** Client response (1500 B at batch size 100). *)

val small : int
(** Prepare, commit, checkpoint, votes, acks, ... (250 B). *)

val view_change_bytes : batch_size:int -> prepared:int -> int
(** A view-change message carrying [prepared] prepared certificates. *)

val fetch_bytes : int
(** Recovery fetch (FetchState / FetchBatch): a small control message
    naming a watermark or sequence numbers. *)

val snapshot_bytes : batch_size:int -> sigs:int -> blocks:int -> int
(** Checkpoint state-transfer reply: stable-checkpoint certificate
    ([sigs] signed digests) plus [blocks] ledger blocks, each with its
    batch and commit certificate. *)

val fill_bytes : batch_size:int -> sigs:int -> int
(** One batch served during catch-up (each batch of a HotStuff
    [Log_suffix]): the batch plus its certificate. *)
