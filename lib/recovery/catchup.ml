(* The one ledger catch-up loop (catchup.mli, DESIGN.md §9). *)

module Batch = Rdb_types.Batch
module Certificate = Rdb_types.Certificate
module Config = Rdb_types.Config
module Ctx = Rdb_types.Ctx
module Wire = Rdb_types.Wire
module App = Rdb_types.App
module Time = Rdb_sim.Time
module Cpu = Rdb_sim.Cpu

type suffix = {
  blocks : (Batch.t * Certificate.t option) list;
  state : App.snapshot option;
}

type msg = Fetch of { from : int } | Chunk of { from : int; view : int; suffix : suffix }

let chunk = 96

(* The execute thread, idle in a replica behind the group, verifies the
   certificates (catchup.mli); on an input thread, live traffic delays. *)
let wire (cfg : Config.t) : msg -> Wire.cost = function
  | Fetch _ -> { bytes = Wire.fetch_bytes; verifies = 0 }
  | Chunk { suffix = s; _ } ->
      {
        bytes =
          Wire.snapshot_bytes ~batch_size:cfg.Config.batch_size ~sigs:(Config.cert_wire_sigs cfg)
            ~blocks:(List.length s.blocks)
          + (match s.state with Some st -> String.length st.App.state | None -> 0);
        verifies = 0;
      }

(* One certificate per block, at least one. *)
let verify_cost (cfg : Config.t) s =
  Time.of_us_f (cfg.Config.costs.Config.verify_us *. Float.of_int (max 1 (List.length s.blocks)))

type t = {
  recovery : Recovery.t;
  mutable issued : int;
  mutable appended : int;
  mutable recovering : bool;
  loop : loop;
}

and loop = {
  ctx : msg Ctx.t;
  peers : int array;
  mutable asked : int;  (* [from] of the fetch a chunk must answer *)
  mutable suspected : int;  (* a gap was seen at this frontier *)
  mutable turn : int;  (* fresh fetches since catch-up last ended *)
  mutable align : int;
  mutable view : unit -> int;
  mutable adopt : view:int -> unit;
  mutable settled : unit -> bool;
  mutable resume : unit -> unit;
  mutable apply : h:int -> Batch.t -> Certificate.t option -> unit;
}

let ask t dst =
  t.loop.asked <- t.issued;
  Ctx.send t.loop.ctx ~dst (Fetch { from = t.issued })

(* A fresh fetch goes to the next peer: a retry skips a silent one. *)
let fetch t =
  let peers = t.loop.peers in
  if Array.length peers > 0 then begin
    ask t peers.(t.loop.turn mod Array.length peers);
    t.loop.turn <- t.loop.turn + 1
  end

let create (ctx : msg Ctx.t) ~peers =
  let t =
    {
      recovery = Recovery.create ctx;
      issued = 0;
      appended = 0;
      recovering = false;
      loop =
        {
          ctx;
          peers =
            (* Peers in the replica's own cluster first: a chunk's round
               trip bounds how fast the loop outruns the group. *)
            (let cfg = ctx.Ctx.config in
             let remote p = Config.cluster_of_replica cfg p <> Config.cluster_of_replica cfg ctx.Ctx.id in
             let others = List.filter (fun p -> p <> ctx.Ctx.id) peers in
             Array.of_list (List.filter (fun p -> not (remote p)) others @ List.filter remote others));
          asked = -1;
          suspected = -1;
          turn = 0;
          align = 1;
          view = (fun () -> 0);
          adopt = (fun ~view:_ -> ());
          settled = (fun () -> true);
          resume = ignore;
          apply = (fun ~h:_ _ _ -> ());
        };
    }
  in
  Recovery.watch t.recovery
    ~needed:(fun () -> t.recovering || t.issued <= t.loop.suspected)
    ~progress:(fun () -> t.issued)
    ~fire:(fun ~attempt:_ ->
      Recovery.note_retransmit t.recovery;
      t.recovering <- true;
      fetch t);
  t

let watch t ?(align = 1) ?(view = fun () -> 0) ?(adopt = fun ~view:_ -> ())
    ?(settled = fun () -> true) ?(resume = ignore) ~apply () =
  let l = t.loop in
  l.align <- align;
  l.view <- view;
  l.adopt <- adopt;
  l.settled <- settled;
  l.resume <- resume;
  l.apply <- apply

let start t =
  if not t.recovering then begin
    t.recovering <- true;
    Recovery.note_retransmit t.recovery;
    fetch t;
    Recovery.start t.recovery
  end

(* A gap in live traffic may be a reordering that heals by itself, so
   only a frontier still stuck one stall-task period after the first gap
   seen at it starts catch-up. *)
let suspect t =
  if (not t.recovering) && t.loop.suspected < t.issued then begin
    t.loop.suspected <- t.issued;
    Recovery.start t.recovery
  end

let recover t =
  t.issued <- t.appended;
  t.recovering <- true;
  fetch t;
  Recovery.start t.recovery

(* -- the ledger suffix ------------------------------------------------------ *)

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

let install ?(count = max_int) t ~from s ~apply =
  (* Ratchet the App forward first (a stale snapshot is ignored): with
     stripped payloads the appends only fill the ledger. *)
  Option.iter t.loop.ctx.Ctx.app_restore s.state;
  let filled = ref 0 in
  List.iteri
    (fun i (batch, cert) ->
      let h = from + i in
      (* [apply] may advance [issued] itself, so each block re-checks
         the frontier. *)
      if i < count && h = t.issued then begin
        t.issued <- t.issued + 1;
        incr filled;
        apply ~h batch cert
      end)
    s.blocks;
  Recovery.note_installed t.recovery ~filled:!filled

(* -- the loop --------------------------------------------------------------- *)

let on_message t ~src = function
  | Fetch { from } ->
      (* Always answer, even when empty: an empty chunk tells the
         requester it has reached our executed frontier. *)
      Ctx.send t.loop.ctx ~dst:src
        (Chunk { from; view = t.loop.view (); suffix = read ~limit:chunk t.loop.ctx ~from })
  | Chunk { from; view; suffix } ->
      (* Only the answer to the last fetch: a duplicate or a late answer
         to an older one would start a second chain.  The normal path
         may have appended meanwhile; [install] skips what it did. *)
      let l = t.loop in
      let live () = t.recovering && from = l.asked in
      if live () then
        l.ctx.Ctx.charge ~stage:Cpu.Execute ~cost:(verify_cost l.ctx.Ctx.config suffix) (fun () ->
            if live () then begin
              let len = List.length suffix.blocks in
              install t ~from suffix ~count:(((from + len) / l.align * l.align) - from)
                ~apply:l.apply;
              l.adopt ~view;
              if len < chunk && l.settled () then begin
                (* Done: a gap seen from here on is a new suspicion,
                   and the next catch-up starts from the nearest peer. *)
                t.recovering <- false;
                l.suspected <- -1;
                l.turn <- 0;
                l.resume ()
              end
              else ask t src
            end)
