(* Wire-size model.

   The simulator does not serialize protocol messages onto the network
   (payloads travel as OCaml values), but the *sizes* that enter the
   bandwidth model are explicit and calibrated from §4 of the paper:

     "With a batch size of 100, the messages have sizes of 5.4 kB
      (preprepare), 6.4 kB (commit certificates containing seven commit
      messages and a preprepare message), 1.5 kB (client responses),
      and 250 B (other messages)."

   From those four data points:
     preprepare(b)   = header + per_txn * b          (5.4 kB at b=100)
     certificate(b,k)= preprepare(b) + k * commit_entry  (6.4 kB at k=7)
     response(b)     = header + per_result * b       (1.5 kB at b=100)
     small           = 250 B. *)

(* A message's bytes, and its receiver's signature checks. *)
type cost = { bytes : int; verifies : int }

let header_bytes = 200
let per_txn_bytes = 52          (* 200 + 52*100 = 5400 *)
let commit_entry_bytes = 143    (* 5400 + 7*143 ≈ 6400 *)
let per_result_bytes = 13       (* 200 + 13*100 = 1500 *)
let small_bytes = 250

(* A batch/client-request/preprepare carrying [batch_size] txns. *)
let batch_bytes ~batch_size = header_bytes + (per_txn_bytes * batch_size)

let preprepare_bytes = batch_bytes

(* Commit certificate: embedded pre-prepare (with the request) plus one
   signed commit entry per certificate signature. *)
let certificate_bytes ~batch_size ~sigs = batch_bytes ~batch_size + (commit_entry_bytes * sigs)

let response_bytes ~batch_size = header_bytes + (per_result_bytes * batch_size)

(* Prepare, commit, checkpoint, view-change votes, acks, ... *)
let small = small_bytes

(* View-change messages carry prepared certificates for in-flight
   sequence numbers; size grows with how much state is carried. *)
let view_change_bytes ~batch_size ~prepared = small_bytes + (prepared * certificate_bytes ~batch_size ~sigs:0)

(* Recovery traffic (lib/recovery).  A fetch names a watermark or a
   list of sequence numbers — it is a small control message.  A
   snapshot reply carries the stable-checkpoint certificate (one
   signed digest per quorum member) plus the missing ledger suffix:
   each block ships its batch and, when retained, its commit
   certificate. *)
let fetch_bytes = small_bytes

let snapshot_bytes ~batch_size ~sigs ~blocks =
  header_bytes + (sigs * commit_entry_bytes)
  + (blocks * certificate_bytes ~batch_size ~sigs)

(* One batch served during catch-up (each batch of a HotStuff
   [Log_suffix]): the batch plus its certificate. *)
let fill_bytes ~batch_size ~sigs = certificate_bytes ~batch_size ~sigs
