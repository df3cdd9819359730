(* Structured consensus-path tracing: event stream -> (a) Chrome
   trace-event JSON, (b) per-phase latency aggregation, (c) a streaming
   SHA-256 digest over the canonical event encoding.  The digest is the
   determinism witness: the DES guarantees same seed => same event
   sequence, so same seed => same digest, byte for byte.

   An event is one closed record; its [detail] constructor also fixes
   its category.  The canonical line is written by hand into a byte
   buffer owned by the tracer (not the module: sweeps run tracers on
   several domains) and fed to the digest.  Shards run one after
   another on one domain (DESIGN.md §15), so only the digest and the
   kept events are per shard; counters and phase aggregates are sums
   and maxima, which commute. *)

module Sha256 = Rdb_crypto.Sha256
module Hex = Rdb_crypto.Hex

type detail =
  | Cpu
  | Dst of { dst : int; size : int; tag : string }
  | Src of { src : int; size : int }
  | Key of int

type event = { span : bool; name : string; node : int; ts : int; dur : int; detail : detail }

let cat = function Cpu -> "cpu" | Dst _ | Src _ -> "net" | Key _ -> "phase"

(* -- the line writer ---------------------------------------------------- *)

type line = { mutable buf : Bytes.t; mutable pos : int }

let reserve l n =
  if l.pos + n > Bytes.length l.buf then begin
    let b = Bytes.create (Stdlib.max (l.pos + n) (2 * Bytes.length l.buf)) in
    Bytes.blit l.buf 0 b 0 l.pos;
    l.buf <- b
  end

let put_string l s =
  reserve l (String.length s);
  Bytes.unsafe_blit_string s 0 l.buf l.pos (String.length s);
  l.pos <- l.pos + String.length s

(* The digits of [-m] for [m <= 0], so [min_int] needs no special case;
   the caller reserves room for them. *)
let rec put_neg l m =
  if m <= -10 then put_neg l (m / 10);
  Bytes.unsafe_set l.buf l.pos (Char.unsafe_chr (48 - (m mod 10)));
  l.pos <- l.pos + 1

(* [n] in decimal, as [%d] prints it (at most 20 chars), then [sep]. *)
let put_int l n sep =
  reserve l 20;
  if n < 0 then put_string l "-";
  put_neg l (if n < 0 then n else -n);
  put_string l sep

(* The one detail renderer, shared by the digest and the Chrome JSON. *)
let put_detail l = function
  | Cpu -> ()
  | Dst { dst; size; tag } ->
      put_string l "dst=";
      put_int l dst ",size=";
      put_int l size ",";
      put_string l tag
  | Src { src; size } ->
      put_string l "src=";
      put_int l src ",size=";
      put_int l size ""
  | Key k ->
      put_string l "key=";
      put_int l k ""

(* -- the tracer ----------------------------------------------------------- *)

(* One per engine shard; [rev_events] only when keep_events. *)
type sub = { digest : Sha256.ctx; mutable rev_events : event list }

type phase_acc = { mutable count : int; mutable total : int; mutable max : int }

type t = {
  keep_events : bool;
  mutable subs : sub array;
  mutable shard_of_now : unit -> int;
  mutable finalized : string option;
  line : line;
  mutable n_events : int;
  mutable net_local : int;
  mutable net_global : int;
  mutable net_dropped : int;
  mutable decisions : int;
  (* phase chaining: (node, key) -> timestamp of the previous mark *)
  open_chains : (int * int, int) Hashtbl.t;
  phase_agg : (string, phase_acc) Hashtbl.t;
  track_names : (int, string) Hashtbl.t;
}

let mk_sub () = { digest = Sha256.init (); rev_events = [] }

let create ?(keep_events = false) () =
  {
    keep_events;
    subs = [| mk_sub () |];
    shard_of_now = (fun () -> 0);
    finalized = None;
    line = { buf = Bytes.create 128; pos = 0 };
    n_events = 0;
    net_local = 0;
    net_global = 0;
    net_dropped = 0;
    decisions = 0;
    open_chains = Hashtbl.create 1024;
    phase_agg = Hashtbl.create 16;
    track_names = Hashtbl.create 64;
  }

let set_shards t ~n ~shard_of_now =
  if n < 1 then invalid_arg "Trace.set_shards: n must be >= 1";
  if t.n_events > 0 then invalid_arg "Trace.set_shards: events already emitted";
  t.subs <- Array.init n (fun _ -> mk_sub ());
  t.shard_of_now <- shard_of_now

(* Fold one event into its shard's digest as the canonical line
   [K|cat|name|node|ts|dur|detail\n]; the test suite pins the format. *)
let emit t ~span ~name ~node ~ts ~dur detail =
  if Option.is_some t.finalized then invalid_arg "Trace: event emitted after summary";
  let l = t.line in
  l.pos <- 0;
  put_string l (if span then "S|" else "I|");
  put_string l (cat detail);
  put_string l "|";
  put_string l name;
  put_string l "|";
  put_int l node "|";
  put_int l ts "|";
  put_int l dur "|";
  put_detail l detail;
  put_string l "\n";
  let s = t.subs.(t.shard_of_now ()) in
  Sha256.feed_bytes s.digest l.buf 0 l.pos;
  t.n_events <- t.n_events + 1;
  if t.keep_events then s.rev_events <- { span; name; node; ts; dur; detail } :: s.rev_events

(* -- emitters: network lifecycle, CPU spans ----------------------------- *)

let net_send t ~src ~dst ~size ~local ~now ~start ~depart =
  if local then t.net_local <- t.net_local + 1 else t.net_global <- t.net_global + 1;
  let d = Dst { dst; size; tag = (if local then "local" else "global") } in
  if start > now then emit t ~span:true ~name:"queue" ~node:src ~ts:now ~dur:(start - now) d;
  emit t ~span:true ~name:"tx" ~node:src ~ts:start ~dur:(depart - start) d

let net_deliver t ~src ~dst ~size ~at =
  emit t ~span:false ~name:"deliver" ~node:dst ~ts:at ~dur:0 (Src { src; size })

let net_drop t ~src ~dst ~size ~at ~reason =
  t.net_dropped <- t.net_dropped + 1;
  emit t ~span:false ~name:"drop" ~node:src ~ts:at ~dur:0 (Dst { dst; size; tag = reason })

let cpu_span t ~node ~stage ~start ~dur = emit t ~span:true ~name:stage ~node ~ts:start ~dur Cpu

(* -- protocol phases -------------------------------------------------- *)

let phase_accum t ~name ~dur =
  let acc =
    match Hashtbl.find_opt t.phase_agg name with
    | Some a -> a
    | None ->
        let a = { count = 0; total = 0; max = 0 } in
        Hashtbl.add t.phase_agg name a;
        a
  in
  acc.count <- acc.count + 1;
  acc.total <- acc.total + dur;
  if dur > acc.max then acc.max <- dur

let phase_mark t ~node ~key ~name ~now =
  let terminal = String.equal name "execute" in
  let k = (node, key) in
  match Hashtbl.find_opt t.open_chains k with
  | Some prev ->
      let dur = Stdlib.max 0 (now - prev) in
      phase_accum t ~name ~dur;
      emit t ~span:true ~name ~node ~ts:prev ~dur (Key key);
      if terminal then Hashtbl.remove t.open_chains k else Hashtbl.replace t.open_chains k now
  | None ->
      (* First mark for this slot: an instant opens the chain.  A
         terminal first mark (e.g. a filled/skipped slot executing with
         no observed earlier phases) leaves nothing open. *)
      phase_accum t ~name ~dur:0;
      emit t ~span:false ~name ~node ~ts:now ~dur:0 (Key key);
      if not terminal then Hashtbl.add t.open_chains k now

let note_decision t = t.decisions <- t.decisions + 1
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
        let finals = List.map (fun s -> Sha256.finalize s.digest) (Array.to_list t.subs) in
        (* One shard: its digest.  Several: the digest of their digests, in shard order. *)
        let d = Hex.of_string (match finals with [ d ] -> d | _ -> Sha256.digest_list finals) in
        t.finalized <- Some d;
        d
  in
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
      t.phase_agg []
    |> List.sort (fun a b -> String.compare a.phase b.phase)
  in
  {
    phases;
    net_local = t.net_local;
    net_global = t.net_global;
    net_dropped = t.net_dropped;
    decisions = t.decisions;
    events = t.n_events;
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
  let detail d =
    t.line.pos <- 0;
    put_detail t.line d;
    json_escape (Bytes.sub_string t.line.buf 0 t.line.pos)
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
             if e.span then
               Printf.fprintf oc
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"detail\":\"%s\"}}"
                 (json_escape e.name) (cat e.detail) e.node (us e.ts) (us e.dur) (detail e.detail)
             else
               Printf.fprintf oc
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"args\":{\"detail\":\"%s\"}}"
                 (json_escape e.name) (cat e.detail) e.node (us e.ts) (detail e.detail)))
    t.subs;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n"

let events_kept t = Array.fold_left (fun acc s -> acc + List.length s.rev_events) 0 t.subs
