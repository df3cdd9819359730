(* PRNG substrate tests: reference outputs, determinism, and the
   statistical properties the YCSB workload relies on. *)

open Rdb_prng

(* Reference outputs of the public-domain splitmix64.c with seed 0:
   first three outputs. *)
let test_splitmix_reference () =
  let g = Splitmix64.create 0L in
  Alcotest.(check int64) "out1" 0xE220A8397B1DCDAFL (Splitmix64.next g);
  Alcotest.(check int64) "out2" 0x6E789E6AA1B965F4L (Splitmix64.next g);
  Alcotest.(check int64) "out3" 0x06C45D188009454FL (Splitmix64.next g)

let test_splitmix_split_seeds_differ () =
  let a = Splitmix64.split_seed ~seed:42L ~index:0 in
  let b = Splitmix64.split_seed ~seed:42L ~index:1 in
  Alcotest.(check bool) "distinct" true (not (Int64.equal a b));
  Alcotest.(check int64) "stable" a (Splitmix64.split_seed ~seed:42L ~index:0)

let test_rng_determinism () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done;
  let c = Rng.create 8L in
  Alcotest.(check bool) "different seed differs" true
    (not (Int64.equal (Rng.next_int64 a) (Rng.next_int64 c)))

let test_rng_copy_and_split () =
  let a = Rng.create 9L in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b);
  let s1 = Rng.split a ~index:1 and s2 = Rng.split a ~index:2 in
  Alcotest.(check bool) "split streams differ" true
    (not (Int64.equal (Rng.next_int64 s1) (Rng.next_int64 s2)))

let test_rng_ranges () =
  let g = Rng.create 1L in
  for _ = 1 to 1000 do
    let v = Rng.int g 17 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 17);
    let f = Rng.float g in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0. && f < 1.)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int g 0))

let test_rng_float_mean () =
  let g = Rng.create 2L in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.float g
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~ 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_shuffle_permutation () =
  let g = Rng.create 3L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_exponential_mean () =
  let g = Rng.create 4L in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential g ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~ 3" true (abs_float (mean -. 3.0) < 0.1)

(* -- Zipf ---------------------------------------------------------------- *)

let test_zipf_bounds () =
  let z = Zipf.create ~theta:0.99 1000 in
  let g = Rng.create 5L in
  for _ = 1 to 10_000 do
    let v = Zipf.sample z g in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 1000)
  done

let test_zipf_skew () =
  (* With theta = 0.99, rank 0 must be drawn far more often than a
     mid-range rank; and the head must dominate. *)
  let z = Zipf.create ~theta:0.99 10_000 in
  let g = Rng.create 6L in
  let counts = Array.make 10_000 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Zipf.sample z g in
    counts.(v) <- counts.(v) + 1
  done;
  let head = Array.fold_left ( + ) 0 (Array.sub counts 0 100) in
  Alcotest.(check bool) "rank 0 hot" true (counts.(0) > counts.(5000) * 10);
  Alcotest.(check bool)
    "top-1% gets > 30% of draws" true
    (float_of_int head /. float_of_int n > 0.3)

let test_zipf_scrambled_spreads () =
  (* Scrambling must spread the hot ranks over the key space: the most
     popular *key* should no longer be key 0. *)
  let z = Zipf.create ~theta:0.99 10_000 in
  let g = Rng.create 7L in
  let counts = Array.make 10_000 0 in
  for _ = 1 to 50_000 do
    let v = Zipf.sample_scrambled z g in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10_000);
    counts.(v) <- counts.(v) + 1
  done;
  let max_key = ref 0 in
  Array.iteri (fun k c -> if c > counts.(!max_key) then max_key := k) counts;
  Alcotest.(check bool) "hot key scrambled away from 0" true (!max_key <> 0)

let test_zipf_exact_matches_closed_form_cdf () =
  (* For n <= 64 the sampler must follow the closed-form Zipf law
     p_k = k^-theta / zeta(n, theta) — not YCSB's large-n approximation,
     which drifts by up to ~13% per rank in this regime.  Validate the
     empirical pmf and CDF across several thetas and sizes. *)
  let zeta n theta =
    let acc = ref 0. in
    for i = 1 to n do
      acc := !acc +. (1. /. Float.pow (float_of_int i) theta)
    done;
    !acc
  in
  List.iter
    (fun (n, theta) ->
      let z = Zipf.create ~theta n in
      let g = Rng.create 11L in
      let draws = 200_000 in
      let counts = Array.make n 0 in
      for _ = 1 to draws do
        let k = Zipf.sample z g in
        counts.(k) <- counts.(k) + 1
      done;
      let zn = zeta n theta in
      let cum_emp = ref 0. and cum_exp = ref 0. and ks = ref 0. in
      for k = 0 to n - 1 do
        let expect = (1. /. Float.pow (float_of_int (k + 1)) theta) /. zn in
        let got = float_of_int counts.(k) /. float_of_int draws in
        (* Combined absolute + relative tolerance: generous enough for
           binomial noise at 200k draws, far below the approximation's
           former drift. *)
        Alcotest.(check bool)
          (Printf.sprintf "pmf n=%d theta=%.2f rank %d (got %.5f expect %.5f)" n theta k got
             expect)
          true
          (abs_float (got -. expect) <= 0.004 +. (0.04 *. expect));
        cum_emp := !cum_emp +. got;
        cum_exp := !cum_exp +. expect;
        ks := Float.max !ks (abs_float (!cum_emp -. !cum_exp))
      done;
      Alcotest.(check bool)
        (Printf.sprintf "CDF deviation n=%d theta=%.2f (%.5f)" n theta !ks)
        true (!ks < 0.01))
    [ (4, 0.99); (8, 0.99); (16, 0.8); (33, 0.2); (64, 0.99); (64, 0.5) ]

let prop_zipf_theta_zero_near_uniform =
  QCheck.Test.make ~name:"zipf theta=0 is near-uniform" ~count:5 QCheck.small_nat (fun seed ->
      let z = Zipf.create ~theta:0.0 100 in
      let g = Rng.create (Int64.of_int (seed + 1)) in
      let counts = Array.make 100 0 in
      let n = 50_000 in
      for _ = 1 to n do
        let v = Zipf.sample z g in
        counts.(v) <- counts.(v) + 1
      done;
      (* Every bucket within 3x of the uniform expectation. *)
      Array.for_all (fun c -> c < 3 * n / 100) counts)

let suite =
  [
    ("splitmix64 reference", `Quick, test_splitmix_reference);
    ("splitmix64 split seeds", `Quick, test_splitmix_split_seeds_differ);
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng copy/split", `Quick, test_rng_copy_and_split);
    ("rng ranges", `Quick, test_rng_ranges);
    ("rng float mean", `Quick, test_rng_float_mean);
    ("rng shuffle", `Quick, test_shuffle_permutation);
    ("rng exponential", `Quick, test_exponential_mean);
    ("zipf bounds", `Quick, test_zipf_bounds);
    ("zipf skew", `Quick, test_zipf_skew);
    ("zipf scrambled", `Quick, test_zipf_scrambled_spreads);
    ("zipf exact small-n cdf", `Quick, test_zipf_exact_matches_closed_form_cdf);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_zipf_theta_zero_near_uniform ]

(* Pinned draws of the xoshiro256** stream: any change to how the state
   is kept or advanced must leave every simulated draw the same. *)
let test_rng_reference_stream () =
  let g = Rng.create 7L in
  let child = Rng.split g ~index:3 in
  let draws r = List.init 8 (fun _ -> Rng.next_int64 r) in
  Alcotest.(check (list int64))
    "create 7"
    [
      -5523389002881075622L;
      5142052590334782674L;
      -2958351167216911978L;
      -348685429060373952L;
      -168598097271454952L;
      -2346906591474643895L;
      1120678062349637716L;
      1926500276298015196L;
    ]
    (draws g);
  Alcotest.(check (list int64))
    "split ~index:3"
    [
      -2365042969591073183L;
      2571233971002783972L;
      3649748825558090695L;
      -8838558810019270379L;
      6532461091039327355L;
      -884283671672341795L;
      1641824156877539192L;
      1496013411557016933L;
    ]
    (draws child);
  Alcotest.(check (list (float 0.)))
    "float" [ 0x1.9d653e5b2b22p-2; 0x1.36eb5d000c7p-3; 0x1.152e2245ac3ecp-1 ]
    (List.init 3 (fun _ -> Rng.float g));
  Alcotest.(check (list int)) "int 1000" [ 948; 848; 875; 965 ]
    (List.init 4 (fun _ -> Rng.int g 1000))

let suite = suite @ [ ("rng xoshiro256** reference stream", `Quick, test_rng_reference_stream) ]
