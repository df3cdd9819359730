(* Byzantine-adversary subsystem tests (DESIGN.md §14): the strategy
   grammar's id/JSON round-trips, the f-per-cluster envelope, the
   fixed-shape seeded sampler, the runtime's hook-level semantics
   against a toy message type, the scenario grammar's attack token,
   and the checker's attack search — artifact determinism, the
   geobft-rvc-weak rediscovery showcase, and a small clean sweep.
   The search half is strictly sequential (the mutation/evidence hooks
   are process-global), which Alcotest's in-order runner guarantees. *)

module A = Rdb_adversary.Adversary
module Attack = A.Attack
module Interpose = Rdb_types.Interpose
module Time = Rdb_sim.Time
module Rng = Rdb_prng.Rng
module Keychain = Rdb_crypto.Keychain
module Check = Rdb_check.Check
module Scenario = Rdb_experiments.Scenario
module Runner = Rdb_experiments.Runner

(* -- grammar -------------------------------------------------------------- *)

let sample_prims =
  [
    A.Silence { cls = None; dst = A.Everyone };
    A.Silence { cls = Some Interpose.Share; dst = A.Remote };
    A.Silence { cls = Some Interpose.Vote; dst = A.Clusters [ 1 ] };
    A.Silence { cls = None; dst = A.Peers [ 2; 5 ] };
    A.Equivocate;
    A.Delay { cls = None; dst = A.Everyone; ms = 400 };
    A.Delay { cls = Some Interpose.Proposal; dst = A.Clusters [ 0; 2 ]; ms = 75 };
    A.Stale { cls = Interpose.Share };
    A.Replay { cls = Interpose.Vote; every = 3 };
    A.Deaf { cls = Interpose.Share; src = A.Everyone };
    A.Deaf { cls = Interpose.View_change; src = A.Peers [ 0 ] };
  ]

let test_prim_id_round_trip () =
  List.iter
    (fun p ->
      let id = A.prim_to_id p in
      match A.prim_of_id id with
      | Some p' -> Alcotest.(check bool) id true (p = p')
      | None -> Alcotest.fail (Printf.sprintf "%S failed to parse back" id))
    sample_prims;
  (* Malformed ids must be rejected, not mangled. *)
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" bad) true
        (A.prim_of_id bad = None))
    [ "mute.bogus"; "equiv.vote"; "lag"; "lagx.share"; "replay.share.0"; "deaf"; "stale" ]

let two_rules =
  [
    { A.actor = 0; prim = A.Silence { cls = Some Interpose.Share; dst = A.Remote };
      from_ms = 600; until_ms = 2400 };
    { A.actor = 5; prim = A.Delay { cls = None; dst = A.Everyone; ms = 250 };
      from_ms = 1000; until_ms = 3000 };
  ]

let test_attack_id_round_trip () =
  Alcotest.(check string) "empty attack id" "none" (Attack.to_id Attack.empty);
  Alcotest.(check bool) "none parses to empty" true
    (Attack.of_id "none" = Some Attack.empty);
  let a = { Attack.rules = two_rules } in
  let id = Attack.to_id a in
  Alcotest.(check string) "rule grammar spelling"
    "0@600:2400!mute.share.rem+5@1000:3000!lag250" id;
  (match Attack.of_id id with
  | Some a' -> Alcotest.(check bool) "id round-trip" true (Attack.equal a a')
  | None -> Alcotest.fail "attack id failed to parse back");
  Alcotest.(check bool) "inverted window rejected" true
    (Attack.of_id "0@2000:1000!equiv" = None)

let test_attack_json_round_trip () =
  let a = { Attack.rules = two_rules } in
  let s = Attack.to_string a in
  (match Attack.of_string s with
  | Ok a' ->
      Alcotest.(check bool) "json round-trip" true (Attack.equal a a');
      Alcotest.(check string) "byte-identical re-serialization" s (Attack.to_string a')
  | Error e -> Alcotest.fail e);
  match Attack.of_string "{\"v\": 999, \"rules\": []}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "newer schema version must be rejected"

let test_envelope () =
  let mute actor =
    { A.actor; prim = A.Silence { cls = None; dst = A.Everyone };
      from_ms = 500; until_ms = 1500 }
  in
  (* z=2 n=4 -> f=1 per cluster; two actors in cluster 0 overflow it,
     one per cluster does not.  Duplicate actors count once. *)
  let over = { Attack.rules = [ mute 0; mute 1 ] } in
  let spread = { Attack.rules = [ mute 0; mute 4 ] } in
  let dup = { Attack.rules = [ mute 0; mute 0 ] } in
  Alcotest.(check bool) "two in one cluster rejected" false
    (Attack.within_envelope ~n:4 ~f:1 over);
  Alcotest.(check bool) "one per cluster fits" true
    (Attack.within_envelope ~n:4 ~f:1 spread);
  Alcotest.(check bool) "duplicate actor counts once" true
    (Attack.within_envelope ~n:4 ~f:1 dup);
  Alcotest.(check (list int)) "corrupt is sorted distinct" [ 0; 4 ]
    (Attack.corrupt spread)

(* -- sampler -------------------------------------------------------------- *)

let test_sampler_bounds_and_determinism () =
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let caps = Runner.adversary_profile Scenario.Geobft cfg in
  let horizon_ms = 4500 and tail_ms = 1000 in
  let sample seed =
    A.sample ~rng:(Rng.create seed) ~caps ~z:2 ~n:4 ~f:1 ~horizon_ms ~tail_ms ()
  in
  for seed = 1 to 32 do
    let a = sample (Int64.of_int seed) in
    let id = Attack.to_id a in
    Alcotest.(check bool) (id ^ ": at most 3 rules") true
      (List.length a.Attack.rules <= 3);
    Alcotest.(check bool) (id ^ ": within envelope") true
      (Attack.within_envelope ~n:4 ~f:1 a);
    List.iter
      (fun (r : A.rule) ->
        Alcotest.(check bool) (id ^ ": onset after warm-up") true (r.A.from_ms >= 500);
        Alcotest.(check bool) (id ^ ": heals before the tail") true
          (r.A.until_ms <= horizon_ms - tail_ms);
        Alcotest.(check bool) (id ^ ": actor corruptible") true
          (caps.A.corruptible r.A.actor))
      a.Attack.rules
  done;
  Alcotest.(check bool) "same seed, same attack" true
    (Attack.equal (sample 7L) (sample 7L))

(* -- runtime semantics ---------------------------------------------------- *)

(* Toy protocol: strings; a "share..." prefix classifies as Share,
   everything else as Vote; forgeries are tagged with their nonce, and
   "nofake" has no modelled conflict. *)
let toy_view : string Interpose.view =
  {
    Interpose.classify =
      (fun m ->
        if String.length m >= 5 && String.sub m 0 5 = "share" then Interpose.Share
        else Interpose.Vote);
    conflict =
      (fun ~keychain:_ ~nonce m ->
        if m = "nofake" then None else Some (Printf.sprintf "forged%d:%s" nonce m));
  }

type toy = {
  rt : string A.Runtime.t;
  hooks : string Interpose.t option ref;
  now : Time.t ref;
  mutable installs : int;  (* Some-installs observed *)
  mutable uninstalls : int;
}

let toy_runtime () =
  let hooks = ref None and now = ref (Time.ms 1000) in
  let t_ref = ref None in
  let install h =
    (match !t_ref with
    | Some t -> if h = None then t.uninstalls <- t.uninstalls + 1 else t.installs <- t.installs + 1
    | None -> ());
    hooks := h
  in
  let rt =
    A.Runtime.create ~view:toy_view
      ~keychain:(Keychain.create ~seed:"adv-test" ~n_nodes:8)
      ~now:(fun () -> !now)
      ~n:4 ~install
  in
  let t = { rt; hooks; now; installs = 0; uninstalls = 0 } in
  t_ref := Some t;
  t

let obtrude t ~src ~dst m =
  match !(t.hooks) with
  | None -> Alcotest.fail "hooks not installed"
  | Some h -> h.Interpose.obtrude ~src ~dst m

let admit t ~src ~dst m =
  match !(t.hooks) with
  | None -> Alcotest.fail "hooks not installed"
  | Some h -> h.Interpose.admit ~src ~dst m

let emits es = List.map (fun (e : string Interpose.emission) -> e.Interpose.emit) es

let rule ?(from_ms = 0) ?(until_ms = 2000) actor prim =
  { A.actor; prim; from_ms; until_ms }

let test_runtime_install_toggle () =
  let t = toy_runtime () in
  Alcotest.(check bool) "starts inactive" false (A.Runtime.active t.rt);
  A.Runtime.set t.rt ~name:"a" [ rule 0 A.Equivocate ];
  Alcotest.(check bool) "active after set" true (A.Runtime.active t.rt);
  A.Runtime.set t.rt ~name:"b" [ rule 1 A.Equivocate ];
  A.Runtime.clear t.rt ~name:"a";
  Alcotest.(check bool) "still active with one set" true (A.Runtime.active t.rt);
  A.Runtime.clear t.rt ~name:"b";
  Alcotest.(check bool) "inactive after last clear" false (A.Runtime.active t.rt);
  Alcotest.(check int) "installed exactly once" 1 t.installs;
  Alcotest.(check int) "uninstalled exactly once" 1 t.uninstalls;
  Alcotest.(check bool) "hooks gone" true (!(t.hooks) = None)

let test_runtime_silence () =
  let t = toy_runtime () in
  A.Runtime.set_attack t.rt
    { Attack.rules = [ rule 0 (A.Silence { cls = Some Interpose.Share; dst = A.Remote }) ] };
  Alcotest.(check (list string)) "matching send swallowed" []
    (emits (obtrude t ~src:0 ~dst:5 "share-x"));
  Alcotest.(check (list string)) "same-cluster dst unaffected" [ "share-x" ]
    (emits (obtrude t ~src:0 ~dst:1 "share-x"));
  Alcotest.(check (list string)) "other class unaffected" [ "vote-x" ]
    (emits (obtrude t ~src:0 ~dst:5 "vote-x"));
  Alcotest.(check (list string)) "other actor unaffected" [ "share-x" ]
    (emits (obtrude t ~src:2 ~dst:5 "share-x"));
  (* Outside the rule window the actor behaves. *)
  t.now := Time.ms 2500;
  Alcotest.(check (list string)) "window closed" [ "share-x" ]
    (emits (obtrude t ~src:0 ~dst:5 "share-x"));
  (* [always] rules never close. *)
  A.Runtime.set_attack t.rt
    { Attack.rules = [ A.always ~actor:0 (A.Silence { cls = None; dst = A.Everyone }) ] };
  t.now := Time.ms 999_999;
  Alcotest.(check (list string)) "always-rule still live" []
    (emits (obtrude t ~src:0 ~dst:1 "vote-x"))

let test_runtime_equivocate () =
  let t = toy_runtime () in
  A.Runtime.set_attack t.rt { Attack.rules = [ rule 0 A.Equivocate ] };
  Alcotest.(check (list string)) "even dst sees the original" [ "vote-a" ]
    (emits (obtrude t ~src:0 ~dst:2 "vote-a"));
  let first = emits (obtrude t ~src:0 ~dst:1 "vote-a") in
  Alcotest.(check (list string)) "odd dst sees the forgery" [ "forged0:vote-a" ] first;
  Alcotest.(check (list string)) "forgery memoized per payload" first
    (emits (obtrude t ~src:0 ~dst:3 "vote-a"));
  Alcotest.(check (list string)) "distinct payload, distinct nonce" [ "forged1:vote-b" ]
    (emits (obtrude t ~src:0 ~dst:1 "vote-b"));
  Alcotest.(check (list string)) "no modelled conflict passes unchanged" [ "nofake" ]
    (emits (obtrude t ~src:0 ~dst:1 "nofake"))

let test_runtime_delay_stale_replay () =
  let t = toy_runtime () in
  A.Runtime.set_attack t.rt
    { Attack.rules = [ rule 0 (A.Delay { cls = None; dst = A.Everyone; ms = 300 }) ] };
  (match obtrude t ~src:0 ~dst:1 "vote-a" with
  | [ e ] ->
      Alcotest.(check string) "delayed payload unchanged" "vote-a" e.Interpose.emit;
      Alcotest.(check bool) "held for 300 ms" true (e.Interpose.after = Time.ms 300)
  | es -> Alcotest.fail (Printf.sprintf "expected one emission, got %d" (List.length es)));
  (* Stale: each matching send carries the previous matching payload. *)
  A.Runtime.set_attack t.rt
    { Attack.rules = [ rule 0 (A.Stale { cls = Interpose.Share }) ] };
  Alcotest.(check (list string)) "first has nothing to swap" [ "share-a" ]
    (emits (obtrude t ~src:0 ~dst:1 "share-a"));
  Alcotest.(check (list string)) "second sends the first" [ "share-a" ]
    (emits (obtrude t ~src:0 ~dst:1 "share-b"));
  Alcotest.(check (list string)) "third sends the second" [ "share-b" ]
    (emits (obtrude t ~src:0 ~dst:1 "share-c"));
  Alcotest.(check (list string)) "other class passes through" [ "vote-a" ]
    (emits (obtrude t ~src:0 ~dst:1 "vote-a"));
  (* Replay every 2nd matching message: duplicated with a hair of skew. *)
  A.Runtime.set_attack t.rt
    { Attack.rules = [ rule 0 (A.Replay { cls = Interpose.Vote; every = 2 }) ] };
  Alcotest.(check (list string)) "1st passes once" [ "vote-a" ]
    (emits (obtrude t ~src:0 ~dst:1 "vote-a"));
  (match obtrude t ~src:0 ~dst:1 "vote-b" with
  | [ e1; e2 ] ->
      Alcotest.(check string) "2nd duplicated" "vote-b" e1.Interpose.emit;
      Alcotest.(check string) "duplicate is identical" "vote-b" e2.Interpose.emit;
      Alcotest.(check bool) "duplicate slightly skewed" true
        (e1.Interpose.after = Time.zero && e2.Interpose.after > Time.zero)
  | es -> Alcotest.fail (Printf.sprintf "expected two emissions, got %d" (List.length es)));
  Alcotest.(check (list string)) "3rd passes once" [ "vote-c" ]
    (emits (obtrude t ~src:0 ~dst:1 "vote-c"))

let test_runtime_deaf_and_precedence () =
  let t = toy_runtime () in
  A.Runtime.set_attack t.rt
    { Attack.rules = [ rule 2 (A.Deaf { cls = Interpose.Share; src = A.Peers [ 0 ] }) ] };
  Alcotest.(check bool) "matching receive dropped" false (admit t ~src:0 ~dst:2 "share-x");
  Alcotest.(check bool) "other source heard" true (admit t ~src:1 ~dst:2 "share-x");
  Alcotest.(check bool) "other class heard" true (admit t ~src:0 ~dst:2 "vote-x");
  Alcotest.(check bool) "other receiver hears" true (admit t ~src:0 ~dst:3 "share-x");
  Alcotest.(check (list string)) "deafness is receive-side only" [ "share-x" ]
    (emits (obtrude t ~src:2 ~dst:0 "share-x"));
  (* First matching active rule wins, across rule sets in insertion
     order; clearing the front set uncovers the next. *)
  A.Runtime.clear t.rt ~name:"attack";
  A.Runtime.set t.rt ~name:"front"
    [ rule 0 (A.Silence { cls = None; dst = A.Everyone }) ];
  A.Runtime.set t.rt ~name:"back"
    [ rule 0 (A.Delay { cls = None; dst = A.Everyone; ms = 100 }) ];
  Alcotest.(check (list string)) "front set wins" []
    (emits (obtrude t ~src:0 ~dst:1 "vote-a"));
  A.Runtime.clear t.rt ~name:"front";
  (match obtrude t ~src:0 ~dst:1 "vote-a" with
  | [ e ] -> Alcotest.(check bool) "back set uncovered" true (e.Interpose.after = Time.ms 100)
  | _ -> Alcotest.fail "expected the delay rule to apply")

(* -- scenario grammar ----------------------------------------------------- *)

let test_scenario_attack_token () =
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let attack = { Attack.rules = two_rules } in
  let s = Scenario.make ~trace:true ~attack Scenario.Geobft cfg in
  let id = Scenario.to_string s in
  Alcotest.(check bool) "id carries the attack token" true
    (let tok = " attack=" ^ Attack.to_id attack in
     let rec has i =
       i + String.length tok <= String.length id
       && (String.sub id i (String.length tok) = tok || has (i + 1))
     in
     has 0);
  (match Scenario.of_string id with
  | Some s' ->
      Alcotest.(check bool) "scenario id round-trip" true (Scenario.equal s s');
      Alcotest.(check string) "re-serialization identical" id (Scenario.to_string s')
  | None -> Alcotest.fail "scenario id with attack failed to parse");
  let plain = Scenario.make Scenario.Geobft cfg in
  Alcotest.(check bool) "no attack, no token" true
    (Scenario.of_string (Scenario.to_string plain) = Some plain)

(* -- attack search -------------------------------------------------------- *)

let test_sample_attack_attempt_zero () =
  let s = Check.default_scenario ~measure:Check.attacks.measure Scenario.Geobft in
  Alcotest.(check bool) "attempt 0 is the empty attack" true
    (Attack.equal Attack.empty (Check.sample_attack ~seed:1 ~attempt:0 s));
  let pinned = { Attack.rules = two_rules } in
  let s' = { s with Scenario.attack = Some pinned } in
  Alcotest.(check bool) "attempt 0 replays a pinned attack" true
    (Attack.equal pinned (Check.sample_attack ~seed:1 ~attempt:0 s'));
  Alcotest.(check bool) "later attempts are deterministic" true
    (Attack.equal
       (Check.sample_attack ~seed:3 ~attempt:5 s)
       (Check.sample_attack ~seed:3 ~attempt:5 s))

let test_rvc_weak_rediscovered () =
  (* The showcase: with GeoBFT's remote view-change honor-quorum
     weakened, only adversary-generated share starvation produces the
     exposing traffic.  The search must find it, shrink it to one
     rule, replay it bit-identically — twice over, byte-identical. *)
  let explore () =
    match Check.mutant_scenario Check.attacks "geobft-rvc-weak" with
    | None -> Alcotest.fail "geobft-rvc-weak not registered"
    | Some s -> (
        match Check.explore Check.attacks ~budget:16 ~seed:1 ~mutation:"geobft-rvc-weak" s with
        | Some ce -> ce
        | None -> Alcotest.fail "geobft-rvc-weak escaped a 16-attempt budget")
  in
  let ce = explore () in
  Alcotest.(check bool) "a real adversary was needed" true
    ({ Attack.rules = ce.Check.items } <> Attack.empty);
  Alcotest.(check int) "shrunk to one rule" 1 (List.length ce.Check.items);
  Alcotest.(check string) "quorum-evidence oracle fired" "quorum-evidence"
    ce.Check.violation.Check.invariant;
  Alcotest.(check bool) "digest pinned" true (ce.Check.digest <> None);
  (* Byte-identical across independent searches, and through the
     artifact parser. *)
  let bytes = Check.counterexample_to_string Check.attacks ce in
  Alcotest.(check string) "deterministic artifact bytes" bytes
    (Check.counterexample_to_string Check.attacks (explore ()));
  (match Check.counterexample_of_string Check.attacks bytes with
  | Ok ce' ->
      Alcotest.(check string) "artifact round-trip" bytes
        (Check.counterexample_to_string Check.attacks ce')
  | Error e -> Alcotest.fail e);
  (* And the minimal artifact replays: same invariant, same digest. *)
  let outcome = Check.replay Check.attacks ce in
  Alcotest.(check bool) "replay reproduces" true outcome.Check.reproduced;
  Alcotest.(check bool) "replay digest matches" true
    (outcome.Check.digest_match = Some true)

let test_replay_saturation_clean () =
  (* Receiver-side dedup regression (DESIGN.md §17): a corrupt replica
     replaying *every* matching protocol message — the most aggressive
     [replay.*] program the grammar can spell — must never trip a
     safety oracle.  Every receive path is required to be idempotent
     (sequence-numbered slots, per-batch seen-sets, certificate
     collectors keyed by signer), so duplicates may cost bandwidth but
     can never double-execute, double-vote, or fork a quorum. *)
  List.iter
    (fun proto ->
      let s = Check.default_scenario ~measure:Check.attacks.measure proto in
      let caps =
        Runner.adversary_profile proto s.Scenario.cfg
      in
      let rules =
        List.map
          (fun cls -> A.always ~actor:0 (A.Replay { cls; every = 1 }))
          caps.A.replay
      in
      if rules = [] then
        Alcotest.failf "%s exposes no replayable classes" (Scenario.proto_name proto);
      let r = Check.run_attack s { Attack.rules } in
      match r.Check.violation with
      | None -> ()
      | Some v ->
          Alcotest.failf "%s: replay saturation violated %s: %s"
            (Scenario.proto_name proto) v.Check.invariant v.Check.detail)
    Scenario.all_protocols

let test_clean_sweep_small () =
  (* Unmutated protocols absorb sampled in-envelope adversaries.  Two
     protocols at a tiny budget here; the full five-protocol sweep is
     CI's `rdb_cli attack` run. *)
  List.iter
    (fun proto ->
      let s = Check.default_scenario ~measure:Check.attacks.measure proto in
      match Check.explore Check.attacks ~budget:2 ~seed:1 s with
      | None -> ()
      | Some ce ->
          Alcotest.fail
            (Printf.sprintf "%s violated %s under %s"
               (Scenario.proto_name proto)
               ce.Check.violation.Check.invariant
               (Attack.to_id { Attack.rules = ce.Check.items })))
    [ Scenario.Geobft; Scenario.Pbft ]

let suite =
  [
    ("prim id round-trip", `Quick, test_prim_id_round_trip);
    ("attack id round-trip", `Quick, test_attack_id_round_trip);
    ("attack json round-trip", `Quick, test_attack_json_round_trip);
    ("envelope", `Quick, test_envelope);
    ("sampler bounds + determinism", `Quick, test_sampler_bounds_and_determinism);
    ("runtime install toggle", `Quick, test_runtime_install_toggle);
    ("runtime silence", `Quick, test_runtime_silence);
    ("runtime equivocate", `Quick, test_runtime_equivocate);
    ("runtime delay/stale/replay", `Quick, test_runtime_delay_stale_replay);
    ("runtime deaf + precedence", `Quick, test_runtime_deaf_and_precedence);
    ("scenario attack token", `Quick, test_scenario_attack_token);
    ("sample_attack attempt 0", `Quick, test_sample_attack_attempt_zero);
    ("rvc-weak rediscovered + replayed", `Slow, test_rvc_weak_rediscovered);
    ("replay saturation trips no safety oracle", `Slow, test_replay_saturation_clean);
    ("clean sweep small", `Slow, test_clean_sweep_small);
  ]
