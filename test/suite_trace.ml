(* Consensus-path tracing: determinism, aggregation, Chrome JSON.

   The digest is the determinism witness of the whole stack: it folds
   every network / CPU / phase event into a streaming SHA-256, so two
   runs with the same seed must agree byte-for-byte on the entire
   event stream — across all five protocols, and under chaos fault
   injection. *)

module Runner = Rdb_experiments.Runner
module Scenario = Rdb_experiments.Scenario
module Config = Rdb_types.Config
module Report = Rdb_fabric.Report
module Trace = Rdb_trace.Trace
module Time = Rdb_sim.Time

let small_cfg ?(seed = 1) () = Config.make ~z:2 ~n:4 ~batch_size:20 ~client_inflight:8 ~seed ()
let small_windows = { Runner.warmup = Time.ms 200; measure = Time.ms 600 }

let digest_of ?(windows = small_windows) ?fault ?keep_events ?(seed = 1) proto =
  let tracer = Trace.create ?keep_events () in
  let scenario = Rdb_experiments.Scenario.make ~windows ?fault proto (small_cfg ~seed ()) in
  let r = Runner.run ~tracer scenario in
  match r.Report.trace with
  | Some s -> (s, tracer)
  | None -> Alcotest.fail "report carries no trace summary"

let hex64 = Alcotest.testable Fmt.string String.equal

let test_digest_deterministic proto () =
  let s1, _ = digest_of proto in
  let s2, _ = digest_of proto in
  Alcotest.(check int) "same event count" s1.Trace.events s2.Trace.events;
  Alcotest.check hex64 "same digest" s1.Trace.digest_hex s2.Trace.digest_hex;
  Alcotest.(check int) "digest is 64 hex chars" 64 (String.length s1.Trace.digest_hex);
  Alcotest.(check bool) "digest differs across seeds" false
    (let s3, _ = digest_of ~seed:2 proto in
     String.equal s1.Trace.digest_hex s3.Trace.digest_hex)

let test_chaos_seed_changes_digest () =
  (* Same chaos seed: identical fault timeline, identical digest.
     Different chaos seed: different faults, different event stream.
     The horizon must leave room past the planner's recovery tail for
     fault windows to be admitted (tail = horizon/2 here), so this test
     runs a longer clock than the others. *)
  let windows = { Runner.warmup = Time.ms 500; measure = Time.ms 5500 } in
  let a1, _ = digest_of ~windows ~fault:(Runner.Chaos 3) Runner.Geobft in
  let a2, _ = digest_of ~windows ~fault:(Runner.Chaos 3) Runner.Geobft in
  let b, _ = digest_of ~windows ~fault:(Runner.Chaos 4) Runner.Geobft in
  Alcotest.check hex64 "chaos runs are seed-deterministic" a1.Trace.digest_hex
    a2.Trace.digest_hex;
  Alcotest.(check bool) "different chaos seed, different digest" false
    (String.equal a1.Trace.digest_hex b.Trace.digest_hex)

let test_phase_breakdown () =
  let s, _ = digest_of Runner.Geobft in
  let phase_names = List.map (fun (r : Trace.phase_row) -> r.Trace.phase) s.Trace.phases in
  List.iter
    (fun p ->
      Alcotest.(check bool) (Printf.sprintf "phase %S present" p) true (List.mem p phase_names))
    [ "propose"; "prepare"; "commit"; "certify-share"; "execute" ];
  List.iter
    (fun (r : Trace.phase_row) ->
      Alcotest.(check bool) (r.Trace.phase ^ " count > 0") true (r.Trace.count > 0);
      Alcotest.(check bool) (r.Trace.phase ^ " avg <= max") true (r.Trace.avg_ms <= r.Trace.max_ms))
    s.Trace.phases;
  Alcotest.(check bool) "decisions recorded" true (s.Trace.decisions > 0);
  Alcotest.(check bool) "local traffic traced" true (s.Trace.net_local > 0);
  Alcotest.(check bool) "global traffic traced" true (s.Trace.net_global > 0);
  (* GeoBFT's point: global messages are a small fraction of local. *)
  Alcotest.(check bool) "geo-scale locality" true (s.Trace.net_global < s.Trace.net_local)

let test_chrome_json () =
  let _, tracer = digest_of ~keep_events:true Runner.Geobft in
  let path = Filename.temp_file "rdb_trace" ".json" in
  let oc = open_out path in
  Trace.write_chrome_json tracer oc;
  close_out oc;
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "events were retained" true (Trace.events_kept tracer > 0);
  Alcotest.(check bool) "object prefix" true
    (String.length s > 16 && String.sub s 0 16 = "{\"traceEvents\":[");
  Alcotest.(check bool) "closing suffix" true (has "],\"displayTimeUnit\":\"ms\"}");
  Alcotest.(check bool) "track-name metadata" true (has "\"ph\":\"M\"");
  Alcotest.(check bool) "complete spans" true (has "\"ph\":\"X\"");
  Alcotest.(check bool) "instants" true (has "\"ph\":\"i\"");
  Alcotest.(check bool) "phase category" true (has "\"cat\":\"phase\"");
  Alcotest.(check bool) "net category" true (has "\"cat\":\"net\"");
  Alcotest.(check bool) "cpu category" true (has "\"cat\":\"cpu\"");
  (* Balanced braces — cheap structural sanity without a JSON parser
     (all strings in the writer are escaped, so no brace appears in a
     string literal). *)
  let depth = ref 0 in
  String.iter (fun c -> if c = '{' then incr depth else if c = '}' then decr depth) s;
  Alcotest.(check int) "balanced braces" 0 !depth

let test_keep_events_required () =
  let tracer = Trace.create () in
  Alcotest.check_raises "write without keep_events"
    (Invalid_argument "Trace.write_chrome_json: tracer was created without ~keep_events:true")
    (fun () -> Trace.write_chrome_json tracer stdout)

(* -- encoding pin --------------------------------------------------------- *)

(* The canonical line and the Chrome JSON record of every event kind,
   pinned against [Printf] renderings of the documented formats: one
   event of each kind goes through the public emitters into a
   one-shard tracer, with edge values (zeros, timestamps near [max_int]
   and at [min_int], a HotStuff-style slot key above 2^32), and the digest
   must be the SHA-256 of exactly these lines. *)

let big_ts = max_int - 7
let big_key = (1 lsl 40) + 3

let emit_every_kind tr =
  Trace.set_track_name tr ~node:2 "r2";
  (* net: local with no queueing, global with queueing, zeros *)
  Trace.net_send tr ~src:0 ~dst:1 ~size:0 ~local:true ~now:0 ~start:0 ~depart:0;
  Trace.net_send tr ~src:2 ~dst:9 ~size:1500 ~local:false ~now:10 ~start:25 ~depart:4_025;
  Trace.net_send tr ~src:3 ~dst:4 ~size:77 ~local:true ~now:(big_ts - 100) ~start:(big_ts - 40)
    ~depart:big_ts;
  Trace.net_deliver tr ~src:9 ~dst:2 ~size:1500 ~at:big_ts;
  Trace.net_deliver tr ~src:0 ~dst:0 ~size:0 ~at:0;
  List.iteri
    (fun i reason -> Trace.net_drop tr ~src:5 ~dst:i ~size:(64 * i) ~at:(1_000 * i) ~reason)
    [ "rule"; "loss"; "adversary"; "dst-crashed"; "adversary-deaf" ];
  Trace.cpu_span tr ~node:7 ~stage:"verify" ~start:123_456_789 ~dur:0;
  Trace.cpu_span tr ~node:0 ~stage:"execute" ~start:0 ~dur:10_000;
  Trace.cpu_span tr ~node:0 ~stage:"misc" ~start:min_int ~dur:(-1);
  (* phase chain: open -> continue -> continue backwards in time (the
     span clamps at 0) -> execute closes; then a terminal first mark *)
  Trace.phase_mark tr ~node:3 ~key:big_key ~name:"propose" ~now:100;
  Trace.phase_mark tr ~node:3 ~key:big_key ~name:"prepare" ~now:250;
  Trace.phase_mark tr ~node:3 ~key:big_key ~name:"commit" ~now:200;
  Trace.phase_mark tr ~node:3 ~key:big_key ~name:"execute" ~now:1_000_200;
  Trace.phase_mark tr ~node:1 ~key:0 ~name:"execute" ~now:0;
  Trace.phase_mark tr ~node:3 ~key:big_key ~name:"propose" ~now:5;
  Trace.note_decision tr

(* (span?, cat, name, node, ts, dur, detail) in emission order. *)
let expected_events =
  let drops =
    List.mapi
      (fun i reason ->
        let detail = Printf.sprintf "dst=%d,size=%d,%s" i (64 * i) reason in
        (false, "net", "drop", 5, 1_000 * i, 0, detail))
      [ "rule"; "loss"; "adversary"; "dst-crashed"; "adversary-deaf" ]
  in
  let key = Printf.sprintf "key=%d" big_key in
  [
    (true, "net", "tx", 0, 0, 0, "dst=1,size=0,local");
    (true, "net", "queue", 2, 10, 15, "dst=9,size=1500,global");
    (true, "net", "tx", 2, 25, 4_000, "dst=9,size=1500,global");
    (true, "net", "queue", 3, big_ts - 100, 60, "dst=4,size=77,local");
    (true, "net", "tx", 3, big_ts - 40, 40, "dst=4,size=77,local");
    (false, "net", "deliver", 2, big_ts, 0, "src=9,size=1500");
    (false, "net", "deliver", 0, 0, 0, "src=0,size=0");
  ]
  @ drops
  @ [
      (true, "cpu", "verify", 7, 123_456_789, 0, "");
      (true, "cpu", "execute", 0, 0, 10_000, "");
      (true, "cpu", "misc", 0, min_int, -1, "");
      (false, "phase", "propose", 3, 100, 0, key);
      (true, "phase", "prepare", 3, 100, 150, key);
      (true, "phase", "commit", 3, 250, 0, key);
      (true, "phase", "execute", 3, 200, 1_000_000, key);
      (false, "phase", "execute", 1, 0, 0, "key=0");
      (false, "phase", "propose", 3, 5, 0, key);
    ]

let test_encoding_pin () =
  let tr = Trace.create ~keep_events:true () in
  emit_every_kind tr;
  let lines =
    List.map
      (fun (span, cat, name, node, ts, dur, detail) ->
        Printf.sprintf "%c|%s|%s|%d|%d|%d|%s\n" (if span then 'S' else 'I') cat name node ts dur
          detail)
      expected_events
  in
  let s = Trace.summary tr in
  Alcotest.(check int) "event count" (List.length lines) s.Trace.events;
  Alcotest.(check int) "events kept" (List.length lines) (Trace.events_kept tr);
  Alcotest.check hex64 "digest of the canonical lines"
    (Rdb_crypto.Sha256.digest_hex (String.concat "" lines))
    s.Trace.digest_hex;
  Alcotest.(check (list int)) "local / global / dropped / decisions" [ 2; 1; 5; 1 ]
    [ s.Trace.net_local; s.Trace.net_global; s.Trace.net_dropped; s.Trace.decisions ];
  Alcotest.(check (list (pair string (pair int int))))
    "phase rows (count, total ns)"
    [ ("commit", (1, 0)); ("execute", (2, 1_000_000)); ("prepare", (1, 150)); ("propose", (2, 0)) ]
    (List.map
       (fun (r : Trace.phase_row) ->
         (r.Trace.phase, (r.Trace.count, int_of_float (Float.round (r.Trace.total_ms *. 1e6)))))
       s.Trace.phases);
  let us ns = float_of_int ns /. 1e3 in
  let records =
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":2,\"args\":{\"name\":\"r2\"}}"
    :: List.map
         (fun (span, cat, name, node, ts, dur, detail) ->
           if span then
             Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"detail\":\"%s\"}}"
               name cat node (us ts) (us dur) detail
           else
             Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"args\":{\"detail\":\"%s\"}}"
               name cat node (us ts) detail)
         expected_events
  in
  let expected_json =
    "{\"traceEvents\":[\n"
    ^ String.concat ",\n" (List.map (fun r -> "  " ^ r) records)
    ^ "\n],\"displayTimeUnit\":\"ms\"}\n"
  in
  let path = Filename.temp_file "rdb_trace_pin" ".json" in
  let oc = open_out path in
  Trace.write_chrome_json tr oc;
  close_out oc;
  let ic = open_in path in
  let json = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "chrome json, detail strings included" expected_json json

(* -- traced allocation ------------------------------------------------- *)

(* A warmed tracer folds an event into its digest without allocating:
   the line is written into the tracer's own buffer.  What remains per
   call is the detail record — [dst,size,tag] shared by a send's queue
   and tx spans (4 words), [src,size] for a delivery (3 words) and
   nothing for a cpu span.  Per-event formatting would cost tens of
   words per event and fail these pins. *)
let test_traced_allocation () =
  let tr = Trace.create () in
  let send ~start () =
    Trace.net_send tr ~src:3 ~dst:17 ~size:1_234 ~local:false ~now:1_000_000 ~start
      ~depart:(start + 777)
  in
  (* Words allocated by 1,000 calls after 100 warm-up calls. *)
  let words f =
    for _ = 1 to 100 do
      f ()
    done;
    Suite_sim.minor_words (fun () ->
        for _ = 1 to 1_000 do
          f ()
        done)
  in
  Alcotest.(check int) "net_send (tx only)" 4_000 (words (send ~start:1_000_000));
  Alcotest.(check int) "net_send (queue + tx)" 4_000 (words (send ~start:1_500_000));
  Alcotest.(check int) "net_deliver" 3_000
    (words (fun () -> Trace.net_deliver tr ~src:17 ~dst:3 ~size:1_234 ~at:1_999_999));
  Alcotest.(check int) "cpu_span" 0
    (words (fun () -> Trace.cpu_span tr ~node:5 ~stage:"worker" ~start:2_000_000 ~dur:40_000))

let test_off_by_default () =
  (* No tracer: the deployment runs exactly as before (tier-1 behavior
     is the digest test's baseline; here just assert the report carries
     no trace summary). *)
  let r = Runner.run (Rdb_experiments.Scenario.make ~windows:small_windows Runner.Pbft (small_cfg ())) in
  Alcotest.(check bool) "no trace summary when off" true (r.Report.trace = None)

let suite =
  List.map
    (fun p ->
      ( Printf.sprintf "digest deterministic (%s)" (Scenario.proto_name p),
        `Quick,
        test_digest_deterministic p ))
    Scenario.all_protocols
  @ [
      ("chaos seed changes digest", `Slow, test_chaos_seed_changes_digest);
      ("phase breakdown sanity", `Quick, test_phase_breakdown);
      ("chrome trace-event json", `Quick, test_chrome_json);
      ("keep_events required for json", `Quick, test_keep_events_required);
      ("encoding pin", `Quick, test_encoding_pin);
      ("traced allocation", `Quick, test_traced_allocation);
      ("tracing off by default", `Quick, test_off_by_default);
    ]
