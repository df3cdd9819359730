(* The simulated wide-area network.

   Model (see DESIGN.md §5):
   - Every node has, per destination region, a FIFO uplink whose
     capacity is the Table 1 bandwidth between the two regions.  A
     b-byte message sent at time t departs at
         depart = max(t, uplink_busy) + b / bandwidth
     and arrives at
         arrive = depart + one_way_latency + jitter.
     The uplink queue is what makes a single-primary protocol
     bandwidth-bound: a primary broadcasting large pre-prepares to five
     remote regions serializes through five finite pipes, exactly the
     bottleneck behind Figures 10 and 13 of the paper.
   - Intra-region messages use the (fast) local pipe of the same model.
   - Failure injection: crashed nodes neither send nor receive; drop
     rules model Byzantine senders/receivers that silently discard
     traffic to or from selected peers (Example 2.4 of the paper);
     region partitions sever all traffic between region pairs.  Drop
     rules carry an optional label so reversible faults (partitions,
     single-link flaps) can be removed individually — the chaos
     subsystem's heal/restore inverses.
   - Degraded links: a per-directed-link loss probability silently
     discards that fraction of traffic, and a per-link duplication
     probability delivers a second copy shortly after the first
     (retransmission storms, routing flaps).  Both draw from the
     engine's RNG only when a rule is installed, so fault-free runs
     consume an identical random stream to builds without this
     machinery.

   The payload type is polymorphic: each deployment instantiates the
   network with its protocol's message type, so no serialization round
   trip is needed inside the simulator (message *sizes* are still
   modeled explicitly — they are supplied by the sender). *)

type delivery_hook =
  src:int ->
  dst:int ->
  nth:int ->
  floor:Time.t ->
  arrive:Time.t ->
  last:Time.t option ->
  Time.t

(* Adversarial interposition (lib/adversary): [on_send] rewrites one
   outgoing message into the emissions a corrupted sender actually
   produces (payload, extra sender-side delay) — [] is targeted
   silence, tampered payloads are equivocation, extra elements are
   replays; [on_recv] lets a corrupted receiver pretend not to have
   heard a peer.  Both sit outside the bandwidth/latency model: an
   emission enters the wire model as if the sender had behaved that
   way. *)
type 'm interposer = {
  on_send : src:int -> dst:int -> 'm -> ('m * Time.t) list;
  on_recv : src:int -> dst:int -> 'm -> bool;
}

type 'm t = {
  engine : Engine.t;
  topo : Topology.t;
  deliver : src:int -> dst:int -> 'm -> unit;
  (* uplink_busy.(node).(dst_region): time the pipe frees up *)
  uplink_busy : Time.t array array;
  (* Aggregate cross-region egress of each node (all WAN flows of a
     node serialize through this before their per-region pipe), in
     bytes per ns; 0 or negative disables the cap. *)
  wan_bytes_per_ns : float;
  (* Per directed region pair [src_region * n_regions + dst_region]:
     the pipe's bytes per ns and the one-way latency, computed once
     from the topology. *)
  pair_bytes_per_ns : float array;
  pair_one_way : Time.t array;
  wan_busy : Time.t array;
  crashed : bool array;
  (* drop_rules: if any returns true the message is silently dropped;
     the label (if any) allows selective removal *)
  mutable drop_rules : (string option * (src:int -> dst:int -> bool)) list;
  (* (src, dst) -> probability; absent = healthy link *)
  link_loss : (int * int, float) Hashtbl.t;
  link_dup : (int * int, float) Hashtbl.t;
  jitter_ms : float;
  stats : Stats.t;
  (* Optional consensus-path tracer: message lifecycle events (queue /
     tx spans, deliver / drop instants).  [None] costs one match per
     send — the zero-overhead-when-off contract. *)
  trace : Rdb_trace.Trace.t option;
  (* Schedule-exploration hook (lib/check): may adjust a message's
     arrival time within the latency model's legal envelope.  The
     per-link last-arrival table is maintained only while a hook is
     installed; [None] costs one match per send. *)
  mutable dhook : delivery_hook option;
  mutable dhook_sends : int;
  dhook_last : (int * int, Time.t) Hashtbl.t;
  (* Adversarial interposition hooks; [None] costs one match per send
     and one per delivery. *)
  mutable interpose : 'm interposer option;
  (* Engine shard owning each node: deliveries are scheduled onto the
     destination's shard (cross-shard sends are legal because the WAN
     one-way latency floor is the engine's lookahead). *)
  shard_of : int -> int;
}

(* Mbit/s -> bytes/ns: bw * 1e6 / 8 bytes per second = bw / 8e-3 per ns *)
let bytes_per_ns bw_mbps = bw_mbps *. 1e6 /. 8.0 /. 1e9

let create ?(wan_egress_mbps = 0.) ?trace ?(shard_of = fun _ -> 0) ~engine ~topo ~jitter_ms
    ~deliver () =
  let n = Topology.n_nodes topo in
  let r = Topology.n_regions topo in
  let per_pair f = Array.init (r * r) (fun i -> f ~ra:(i / r) ~rb:(i mod r)) in
  {
    engine;
    topo;
    deliver;
    uplink_busy = Array.init n (fun _ -> Array.make r Time.zero);
    wan_bytes_per_ns = bytes_per_ns wan_egress_mbps;
    pair_bytes_per_ns =
      per_pair (fun ~ra ~rb -> bytes_per_ns (Topology.region_bw_mbps topo ~ra ~rb));
    pair_one_way = per_pair (fun ~ra ~rb -> Time.of_ms_f (Topology.region_one_way_ms topo ~ra ~rb));
    wan_busy = Array.make n Time.zero;
    crashed = Array.make n false;
    drop_rules = [];
    link_loss = Hashtbl.create 8;
    link_dup = Hashtbl.create 8;
    jitter_ms;
    stats = Stats.create ();
    trace;
    dhook = None;
    dhook_sends = 0;
    dhook_last = Hashtbl.create 64;
    interpose = None;
    shard_of;
  }

let stats t = t.stats
let topology t = t.topo

let set_interposer t ip = t.interpose <- ip

let set_delivery_hook t h =
  t.dhook <- h;
  t.dhook_sends <- 0;
  Hashtbl.reset t.dhook_last

let crash t node = t.crashed.(node) <- true
let recover t node = t.crashed.(node) <- false
let is_crashed t node = t.crashed.(node)

let add_rule ?label t rule = t.drop_rules <- (label, rule) :: t.drop_rules
let add_drop_rule t rule = add_rule t rule

let remove_drop_rules t ~label =
  t.drop_rules <- List.filter (fun (l, _) -> l <> Some label) t.drop_rules

let clear_drop_rules t = t.drop_rules <- []

let partition_label ~ra ~rb = Printf.sprintf "partition:%d:%d" (min ra rb) (max ra rb)

(* Sever all communication between two regions (both directions);
   reversed by [heal_regions] on the same pair. *)
let partition_regions t ~ra ~rb =
  add_rule ~label:(partition_label ~ra ~rb) t (fun ~src ~dst ->
      let rs = Topology.region_of t.topo src and rd = Topology.region_of t.topo dst in
      (rs = ra && rd = rb) || (rs = rb && rd = ra))

let heal_regions t ~ra ~rb = remove_drop_rules t ~label:(partition_label ~ra ~rb)

let link_label ~src ~dst = Printf.sprintf "link:%d:%d" src dst

(* Sever one directed link (a link flap's down edge); reversed by
   [restore_link]. *)
let sever_link t ~src ~dst =
  let s = src and d = dst in
  add_rule ~label:(link_label ~src ~dst) t (fun ~src ~dst -> src = s && dst = d)

let restore_link t ~src ~dst = remove_drop_rules t ~label:(link_label ~src ~dst)

(* Per-directed-link degradation.  [p <= 0] heals the link. *)
let set_link_loss t ~src ~dst ~p =
  if p <= 0. then Hashtbl.remove t.link_loss (src, dst)
  else Hashtbl.replace t.link_loss (src, dst) (Float.min p 1.)

let set_link_dup t ~src ~dst ~p =
  if p <= 0. then Hashtbl.remove t.link_dup (src, dst)
  else Hashtbl.replace t.link_dup (src, dst) (Float.min p 1.)

let transmission_ns ~size_bytes ~bytes_per_ns =
  int_of_float (Float.of_int size_bytes /. bytes_per_ns)

(* [Hashtbl.length] guard: the common (healthy) case pays no tuple-key
   allocation and no hash lookup; the RNG is still only consumed when a
   rule exists for this exact link, so random streams are unchanged. *)
let lossy t ~src ~dst =
  Hashtbl.length t.link_loss > 0
  &&
  match Hashtbl.find_opt t.link_loss (src, dst) with
  | None -> false
  | Some p -> Rdb_prng.Rng.float (Engine.rng t.engine) < p

let trace_drop t ~src ~dst ~size ~reason =
  match t.trace with
  | None -> ()
  | Some tr -> Rdb_trace.Trace.net_drop tr ~src ~dst ~size ~at:(Engine.now t.engine) ~reason

(* The wire model up to the jitter draw: stats, WAN-egress + uplink
   serialization, the net_send trace span and base latency.  Returns
   the earliest legal arrival (departure + one-way latency). *)
let wire_floor t ~src ~dst ~size =
  let now = Engine.now t.engine in
  let admitted = now in
  let src_region = Topology.region_of t.topo src in
  let dst_region = Topology.region_of t.topo dst in
  let local = src_region = dst_region in
  Stats.count_sent t.stats ~local ~size;
  let pair = (src_region * Topology.n_regions t.topo) + dst_region in
  (* Cross-region traffic first serializes through the node's
     aggregate WAN egress, then through the per-region-pair pipe. *)
  let now =
    if (not local) && t.wan_bytes_per_ns > 0. then begin
      let out =
        Time.add
          (Time.max now t.wan_busy.(src))
          (transmission_ns ~size_bytes:size ~bytes_per_ns:t.wan_bytes_per_ns)
      in
      t.wan_busy.(src) <- out;
      out
    end
    else now
  in
  let busy = t.uplink_busy.(src).(dst_region) in
  let start = Time.max now busy in
  let depart =
    Time.add start (transmission_ns ~size_bytes:size ~bytes_per_ns:t.pair_bytes_per_ns.(pair))
  in
  t.uplink_busy.(src).(dst_region) <- depart;
  (match t.trace with
  | None -> ()
  | Some tr ->
      (* [admitted] is when the caller handed us the message; any WAN
         egress serialization shows up as queueing before [start]. *)
      Rdb_trace.Trace.net_send tr ~src ~dst ~size ~local ~now:admitted ~start ~depart);
  Time.add depart t.pair_one_way.(pair)

(* The arrival the latency model draws above [floor].  Jitter is
   non-negative, so any time >= the floor is one the model could
   produce. *)
let jittered t floor =
  if t.jitter_ms <= 0. then floor
  else
    Time.add floor
      (Time.of_ms_f (Rdb_prng.Rng.float_range (Engine.rng t.engine) ~lo:0. ~hi:t.jitter_ms))

(* -- the send path ------------------------------------------------------ *)

(* The entries one send stages for [Engine.fanout], in the order the
   per-destination decisions produce them: entry [i] is due on shard
   [shards.(i)] at [times.(i)] and carries [msgs.(i)].  [dsts.(i)] is
   its recipient, or [lnot dst] for an emission the sender holds back:
   that entry runs on the sender's shard when the hold expires and
   re-admits [msgs.(i)] toward [dst].  Capacity starts at one entry per
   destination; duplicates and replays grow it. *)
type 'm staged = {
  mutable n : int;
  mutable shards : int array;
  mutable times : Time.t array;
  mutable dsts : int array;
  mutable msgs : 'm array;
}

let staging ~capacity msg =
  {
    n = 0;
    shards = Array.make capacity 0;
    times = Array.make capacity Time.zero;
    dsts = Array.make capacity 0;
    msgs = Array.make capacity msg;
  }

let stage st ~shard ~at ~dst msg =
  if st.n = Array.length st.dsts then begin
    let grow a fill = Array.append a (Array.make (max 1 (Array.length a)) fill) in
    st.shards <- grow st.shards 0;
    st.times <- grow st.times Time.zero;
    st.dsts <- grow st.dsts 0;
    st.msgs <- grow st.msgs msg
  end;
  st.shards.(st.n) <- shard;
  st.times.(st.n) <- at;
  st.dsts.(st.n) <- dst;
  st.msgs.(st.n) <- msg;
  st.n <- st.n + 1

let prefix a n = if Array.length a = n then a else Array.sub a 0 n

(* [List.exists] over the drop rules, without allocating a closure. *)
let rec dropped_by rules ~src ~dst =
  match rules with
  | [] -> false
  | (_, rule) :: rest -> rule ~src ~dst || dropped_by rest ~src ~dst

(* What the wire does to one message the (possibly corrupted) sender
   actually emitted toward [dst]: drop rules, then the loss draw, then
   the wire model, the delivery hook's arrival edit, and the dup draw.
   Admitted copies are staged; a duplicate right after its primary. *)
let admit t st ~src ~dst ~size msg =
  if dropped_by t.drop_rules ~src ~dst then begin
    Stats.count_dropped t.stats ~size;
    trace_drop t ~src ~dst ~size ~reason:"rule"
  end
  else if lossy t ~src ~dst then begin
    Stats.count_dropped t.stats ~size;
    trace_drop t ~src ~dst ~size ~reason:"loss"
  end
  else begin
    let floor = wire_floor t ~src ~dst ~size in
    let arrive = jittered t floor in
    let arrive =
      match t.dhook with
      | None -> arrive
      | Some hook ->
          let nth = t.dhook_sends in
          t.dhook_sends <- nth + 1;
          let last = Hashtbl.find_opt t.dhook_last (src, dst) in
          let arrive = Time.max floor (hook ~src ~dst ~nth ~floor ~arrive ~last) in
          Hashtbl.replace t.dhook_last (src, dst)
            (match last with None -> arrive | Some l -> Time.max l arrive);
          arrive
    in
    let shard = t.shard_of dst in
    stage st ~shard ~at:arrive ~dst msg;
    (* Duplication: deliver a second copy shortly after the first (a
       retransmitted or re-routed frame); receivers must deduplicate. *)
    if Hashtbl.length t.link_dup > 0 then
      match Hashtbl.find_opt t.link_dup (src, dst) with
      | Some p when Rdb_prng.Rng.float (Engine.rng t.engine) < p ->
          stage st ~shard ~at:(Time.add arrive (Time.of_ms_f 0.05)) ~dst msg
      | _ -> ()
  end

(* One destination of a send: the sender's interposer first rewrites
   the message into the emissions it actually produces. *)
let emit t st ~src ~dst ~size msg =
  match t.interpose with
  | None -> admit t st ~src ~dst ~size msg
  | Some ip -> (
      match ip.on_send ~src ~dst msg with
      | [] ->
          (* Targeted silence: the message never touches the wire
             (no bandwidth charged), but the drop is visible to the
             tracer and the stats like any other discard. *)
          Stats.count_dropped t.stats ~size;
          trace_drop t ~src ~dst ~size ~reason:"adversary"
      | emissions ->
          List.iter
            (fun (m, after) ->
              if Time.(after <= Time.zero) then admit t st ~src ~dst ~size m
              else
                (* Delayed / slow-drip sending: the emission enters the
                   wire model when the hold expires. *)
                stage st
                  ~shard:(Engine.current_shard_id t.engine)
                  ~at:(Time.add (Engine.now t.engine) after)
                  ~dst:(lnot dst) m)
            emissions)

let rec emit_all t st ~src ~size msg = function
  | [] -> ()
  | dst :: rest ->
      emit t st ~src ~dst ~size msg;
      emit_all t st ~src ~size msg rest

(* Hand everything staged to the engine as one fan-out, with the one
   delivery closure every entry shares. *)
let rec flush t st ~src ~size =
  if st.n > 0 then begin
    Engine.fanout t.engine ~shards:(prefix st.shards st.n) ~times:(prefix st.times st.n)
      ~deliver:(fun i ->
        let dst = st.dsts.(i) and msg = st.msgs.(i) in
        if dst < 0 then begin
          (* A held emission's hold expired: re-admit it, and not at
             all if the sender crashed meanwhile. *)
          if not t.crashed.(src) then begin
            let st = staging ~capacity:1 msg in
            admit t st ~src ~dst:(lnot dst) ~size msg;
            flush t st ~src ~size
          end
        end
        else if t.crashed.(dst) then trace_drop t ~src ~dst ~size ~reason:"dst-crashed"
        else
          match t.interpose with
          | Some ip when not (ip.on_recv ~src ~dst msg) ->
              (* A corrupted receiver ignoring this peer: judged at
                 delivery time, so receive-side rules are windowed by
                 arrival like every other fault. *)
              trace_drop t ~src ~dst ~size ~reason:"adversary-deaf"
          | _ ->
              (match t.trace with
              | None -> ()
              | Some tr ->
                  Rdb_trace.Trace.net_deliver tr ~src ~dst ~size ~at:(Engine.now t.engine));
              t.deliver ~src ~dst msg)
  end

(* The one send path (network.mli, DESIGN.md §17): every destination's
   decisions in order, then one pooled fan-out of the survivors. *)
let multicast t ~src ~dsts ~size msg =
  if not t.crashed.(src) then begin
    let st = staging ~capacity:(List.length dsts) msg in
    emit_all t st ~src ~size msg dsts;
    flush t st ~src ~size
  end

let send t ~src ~dst ~size msg = multicast t ~src ~dsts:[ dst ] ~size msg
