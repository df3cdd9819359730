(* Structured consensus-path tracing: event stream -> (a) Chrome
   trace-event JSON, (b) per-phase latency aggregation, (c) a streaming
   SHA-256 digest over the canonical event encoding.  The digest is the
   determinism witness: the DES guarantees same seed => same event
   sequence, so same seed => same digest, byte for byte.

   Sharded runs (DESIGN.md §15): the tracer keeps one sub-stream per
   engine shard and routes every event to the sub-stream of the shard
   that emitted it (via the [shard_of_now] callback installed by
   [set_shards]).  Each sub-stream's content is a pure function of the
   seed, whatever order an epoch runs its shards in, and the sub-streams
   fix the digest and the Chrome JSON event order of every sharded
   run.  The summary digest is the SHA-256 over the
   concatenated per-shard raw digests (in shard order); with one shard
   this degenerates to exactly the pre-sharding digest. *)

module Sha256 = Rdb_crypto.Sha256
module Hex = Rdb_crypto.Hex

type kind = Span | Instant

type event = {
  kind : kind;
  cat : string;
  name : string;
  node : int;
  ts : int;  (* simulated ns *)
  dur : int;  (* 0 for instants *)
  arg : string;  (* free-form detail, "" if none *)
}

type phase_acc = { mutable count : int; mutable total : int; mutable max : int }

(* One per engine shard: the stream of events emitted while that shard
   was executing.  Phase chains live here too — a (node, key) chain is
   only ever marked from the node's own shard. *)
type sub = {
  mutable rev_events : event list;  (* only populated when keep_events *)
  mutable n_events : int;
  digest : Sha256.ctx;
  (* phase chaining: (node, key) -> timestamp of the previous mark *)
  open_chains : (int * int, int) Hashtbl.t;
  phase_agg : (string, phase_acc) Hashtbl.t;
  mutable net_local : int;
  mutable net_global : int;
  mutable net_dropped : int;
  mutable decisions : int;
}

type t = {
  keep_events : bool;
  mutable subs : sub array;
  mutable shard_of_now : unit -> int;
  mutable finalized : string option;
  track_names : (int, string) Hashtbl.t;
}

let mk_sub () =
  {
    rev_events = [];
    n_events = 0;
    digest = Sha256.init ();
    open_chains = Hashtbl.create 1024;
    phase_agg = Hashtbl.create 16;
    net_local = 0;
    net_global = 0;
    net_dropped = 0;
    decisions = 0;
  }

let create ?(keep_events = false) () =
  {
    keep_events;
    subs = [| mk_sub () |];
    shard_of_now = (fun () -> 0);
    finalized = None;
    track_names = Hashtbl.create 64;
  }

let total_events t = Array.fold_left (fun acc s -> acc + s.n_events) 0 t.subs

let set_shards t ~n ~shard_of_now =
  if n < 1 then invalid_arg "Trace.set_shards: n must be >= 1";
  if total_events t > 0 then invalid_arg "Trace.set_shards: events already emitted";
  t.subs <- Array.init n (fun _ -> mk_sub ());
  t.shard_of_now <- shard_of_now

(* Canonical line fed to the digest.  Everything that identifies the
   event is included; the format never changes silently (the digest is
   asserted byte-identical across same-seed runs in the test suite). *)
let canonical e =
  Printf.sprintf "%c|%s|%s|%d|%d|%d|%s\n"
    (match e.kind with Span -> 'S' | Instant -> 'I')
    e.cat e.name e.node e.ts e.dur e.arg

let cur t = t.subs.(t.shard_of_now ())

let emit_sub t (s : sub) e =
  (match t.finalized with
  | Some _ -> invalid_arg "Trace: event emitted after summary"
  | None -> ());
  Sha256.feed_string s.digest (canonical e);
  s.n_events <- s.n_events + 1;
  if t.keep_events then s.rev_events <- e :: s.rev_events

let emit t e = emit_sub t (cur t) e

let span t ~cat ~name ~node ~ts ~dur ?(arg = "") () =
  emit t { kind = Span; cat; name; node; ts; dur; arg }

let instant t ~cat ~name ~node ~ts ?(arg = "") () =
  emit t { kind = Instant; cat; name; node; ts; dur = 0; arg }

(* -- network lifecycle ------------------------------------------------ *)

let net_send t ~src ~dst ~size ~local ~now ~start ~depart =
  let s = cur t in
  if local then s.net_local <- s.net_local + 1 else s.net_global <- s.net_global + 1;
  let arg = Printf.sprintf "dst=%d,size=%d,%s" dst size (if local then "local" else "global") in
  if start > now then span t ~cat:"net" ~name:"queue" ~node:src ~ts:now ~dur:(start - now) ~arg ();
  span t ~cat:"net" ~name:"tx" ~node:src ~ts:start ~dur:(depart - start) ~arg ()

let net_deliver t ~src ~dst ~size ~at =
  instant t ~cat:"net" ~name:"deliver" ~node:dst ~ts:at
    ~arg:(Printf.sprintf "src=%d,size=%d" src size)
    ()

let net_drop t ~src ~dst ~size ~at ~reason =
  (cur t).net_dropped <- (cur t).net_dropped + 1;
  instant t ~cat:"net" ~name:"drop" ~node:src ~ts:at
    ~arg:(Printf.sprintf "dst=%d,size=%d,%s" dst size reason)
    ()

(* -- CPU spans -------------------------------------------------------- *)

let cpu_span t ~node ~stage ~start ~dur = span t ~cat:"cpu" ~name:stage ~node ~ts:start ~dur ()

(* -- protocol phases -------------------------------------------------- *)

let phase_accum (s : sub) ~name ~dur =
  let acc =
    match Hashtbl.find_opt s.phase_agg name with
    | Some a -> a
    | None ->
        let a = { count = 0; total = 0; max = 0 } in
        Hashtbl.add s.phase_agg name a;
        a
  in
  acc.count <- acc.count + 1;
  acc.total <- acc.total + dur;
  if dur > acc.max then acc.max <- dur

let phase_mark t ~node ~key ~name ~now =
  let s = cur t in
  let terminal = String.equal name "execute" in
  let k = (node, key) in
  (match Hashtbl.find_opt s.open_chains k with
  | Some prev ->
      let dur = Stdlib.max 0 (now - prev) in
      phase_accum s ~name ~dur;
      span t ~cat:"phase" ~name ~node ~ts:prev ~dur ~arg:(Printf.sprintf "key=%d" key) ();
      if terminal then Hashtbl.remove s.open_chains k else Hashtbl.replace s.open_chains k now
  | None ->
      (* First mark for this slot: an instant opens the chain.  A
         terminal first mark (e.g. a filled/skipped slot executing with
         no observed earlier phases) leaves nothing open. *)
      phase_accum s ~name ~dur:0;
      instant t ~cat:"phase" ~name ~node ~ts:now ~arg:(Printf.sprintf "key=%d" key) ();
      if not terminal then Hashtbl.add s.open_chains k now)

let note_decision t = (cur t).decisions <- (cur t).decisions + 1
let set_track_name t ~node name = Hashtbl.replace t.track_names node name

(* -- results ---------------------------------------------------------- *)

type phase_row = { phase : string; count : int; total_ms : float; avg_ms : float; max_ms : float }

type summary = {
  phases : phase_row list;
  net_local : int;
  net_global : int;
  net_dropped : int;
  decisions : int;
  events : int;
  digest_hex : string;
}

let ms_of_ns ns = float_of_int ns /. 1e6

let summary t =
  let digest_hex =
    match t.finalized with
    | Some d -> d
    | None ->
        let d =
          if Array.length t.subs = 1 then Hex.of_string (Sha256.finalize t.subs.(0).digest)
          else begin
            (* Digest-of-digests, in shard order: per-shard streams are
               deterministic, so this is too — and it never depends on
               the interleaving of shards within an epoch. *)
            let outer = Sha256.init () in
            Array.iter (fun s -> Sha256.feed_string outer (Sha256.finalize s.digest)) t.subs;
            Hex.of_string (Sha256.finalize outer)
          end
        in
        t.finalized <- Some d;
        d
  in
  (* Merge phase aggregates across shards (sum/max commute). *)
  let merged : (string, phase_acc) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      Hashtbl.iter
        (fun phase (a : phase_acc) ->
          match Hashtbl.find_opt merged phase with
          | Some m ->
              m.count <- m.count + a.count;
              m.total <- m.total + a.total;
              if a.max > m.max then m.max <- a.max
          | None -> Hashtbl.add merged phase { count = a.count; total = a.total; max = a.max })
        s.phase_agg)
    t.subs;
  let phases =
    Hashtbl.fold
      (fun phase (a : phase_acc) rows ->
        {
          phase;
          count = a.count;
          total_ms = ms_of_ns a.total;
          avg_ms = (if a.count = 0 then 0. else ms_of_ns a.total /. float_of_int a.count);
          max_ms = ms_of_ns a.max;
        }
        :: rows)
      merged []
    |> List.sort (fun a b -> String.compare a.phase b.phase)
  in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 t.subs in
  {
    phases;
    net_local = sum (fun s -> s.net_local);
    net_global = sum (fun s -> s.net_global);
    net_dropped = sum (fun s -> s.net_dropped);
    decisions = sum (fun s -> s.decisions);
    events = total_events t;
    digest_hex;
  }

let pp_summary fmt s =
  Format.fprintf fmt "trace: %d events, digest %s@\n" s.events (String.sub s.digest_hex 0 16);
  Format.fprintf fmt "  net msgs traced: %d local / %d global / %d dropped@\n" s.net_local
    s.net_global s.net_dropped;
  if s.decisions > 0 then
    Format.fprintf fmt "  per decision: %.1f local / %.1f global msgs (%d decisions)@\n"
      (float_of_int s.net_local /. float_of_int s.decisions)
      (float_of_int s.net_global /. float_of_int s.decisions)
      s.decisions;
  if s.phases <> [] then begin
    Format.fprintf fmt "  %-14s %10s %12s %10s %10s@\n" "phase" "count" "total_ms" "avg_ms" "max_ms";
    List.iter
      (fun r ->
        Format.fprintf fmt "  %-14s %10d %12.2f %10.3f %10.3f@\n" r.phase r.count r.total_ms
          r.avg_ms r.max_ms)
      s.phases
  end

(* -- Chrome trace-event JSON sink ------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let us ns = float_of_int ns /. 1e3

let write_chrome_json t oc =
  if not t.keep_events then
    invalid_arg "Trace.write_chrome_json: tracer was created without ~keep_events:true";
  let first = ref true in
  let sep () =
    if !first then first := false else output_string oc ",\n";
    output_string oc "  "
  in
  output_string oc "{\"traceEvents\":[\n";
  (* Track-name metadata first, sorted by node for stable output. *)
  Hashtbl.fold (fun node name l -> (node, name) :: l) t.track_names []
  |> List.sort compare
  |> List.iter (fun (node, name) ->
         sep ();
         Printf.fprintf oc
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           node (json_escape name));
  (* Events in shard order; the trace viewer orders by timestamp, so
     concatenation of per-shard streams is fine (and deterministic). *)
  Array.iter
    (fun (s : sub) ->
      List.rev s.rev_events
      |> List.iter (fun e ->
             sep ();
             match e.kind with
             | Span ->
                 Printf.fprintf oc
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"detail\":\"%s\"}}"
                   (json_escape e.name) (json_escape e.cat) e.node (us e.ts) (us e.dur)
                   (json_escape e.arg)
             | Instant ->
                 Printf.fprintf oc
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"args\":{\"detail\":\"%s\"}}"
                   (json_escape e.name) (json_escape e.cat) e.node (us e.ts) (json_escape e.arg)))
    t.subs;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n"

let events_kept t = Array.fold_left (fun acc s -> acc + List.length s.rev_events) 0 t.subs
