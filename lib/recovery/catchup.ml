(* Ledger catch-up shared by pbft and GeoBFT (catchup.mli, DESIGN.md §9). *)

module Batch = Rdb_types.Batch
module Certificate = Rdb_types.Certificate
module Config = Rdb_types.Config
module Ctx = Rdb_types.Ctx
module Wire = Rdb_types.Wire
module App = Rdb_types.App

type t = {
  recovery : Recovery.t;
  mutable issued : int;
  mutable appended : int;
  mutable recovering : bool;
  mutable fetch : attempt:int -> unit;
  mutable on_start : unit -> unit;
}

let create ctx =
  {
    recovery = Recovery.create ctx;
    issued = 0;
    appended = 0;
    recovering = false;
    fetch = (fun ~attempt:_ -> ());
    on_start = ignore;
  }

let watch t ?(on_start = ignore) ~fetch () =
  t.fetch <- fetch;
  t.on_start <- on_start;
  Recovery.watch t.recovery
    ~needed:(fun () -> t.recovering)
    ~progress:(fun () -> t.issued)
    ~fire:(fun ~attempt ->
      Recovery.note_retransmit t.recovery;
      fetch ~attempt)

let start t =
  if not t.recovering then begin
    t.recovering <- true;
    t.on_start ();
    Recovery.note_retransmit t.recovery;
    t.fetch ~attempt:0;
    Recovery.start t.recovery
  end

let recover t =
  t.issued <- t.appended;
  t.recovering <- true;
  t.on_start ();
  t.fetch ~attempt:0;
  Recovery.start t.recovery

(* -- the ledger suffix ------------------------------------------------------ *)

type suffix = {
  blocks : (Batch.t * Certificate.t option) list;
  state : App.snapshot option;
}

let read ?(limit = max_int) (ctx : _ Ctx.t) ~from =
  let blocks = ctx.Ctx.ledger_read ~height:from in
  let blocks =
    if List.compare_length_with blocks limit > 0 then List.filteri (fun i _ -> i < limit) blocks
    else blocks
  in
  (* With stripped payloads the blocks cannot be replayed, so the final
     chunk ships the state ([None] when payloads are retained). *)
  let state = if List.length blocks < limit then ctx.Ctx.state_snapshot () else None in
  { blocks; state }

let bytes (cfg : Config.t) s =
  Wire.snapshot_bytes ~batch_size:cfg.Config.batch_size ~sigs:(Config.cert_wire_sigs cfg)
    ~blocks:(List.length s.blocks)
  + match s.state with Some st -> String.length st.App.state | None -> 0

(* The requester verifies one certificate per block (at least one). *)
let verifies s = max 1 (List.length s.blocks)

let install ?(count = max_int) t (ctx : _ Ctx.t) ~from s ~apply =
  (* Ratchet the App forward first (a stale snapshot is ignored): with
     stripped payloads the appends only fill the ledger. *)
  Option.iter ctx.Ctx.app_restore s.state;
  let filled = ref 0 in
  List.iteri
    (fun i (batch, cert) ->
      let h = from + i in
      (* [apply] may advance [issued] itself (pbft's unblocked commit
         quorums), so each block re-checks the frontier. *)
      if i < count && h = t.issued then begin
        t.issued <- t.issued + 1;
        incr filled;
        apply ~h batch cert
      end)
    s.blocks;
  Recovery.note_installed t.recovery ~filled:!filled
