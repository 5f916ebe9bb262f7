let test_determinism () =
  let a = Sim.Rng.create 42 and b = Sim.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
  done

let test_seeds_differ () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 2 in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_split_independent () =
  let a = Sim.Rng.create 7 in
  let b = Sim.Rng.split a in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 1000) in
  Alcotest.(check bool) "split differs" true (xs <> ys)

let test_shuffle_permutation () =
  let rng = Sim.Rng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  Sim.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let prop_int_range =
  QCheck.Test.make ~name:"int in [0,n)" ~count:500
    QCheck.(pair small_nat (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Sim.Rng.create seed in
      let v = Sim.Rng.int rng n in
      v >= 0 && v < n)

let prop_int_in_range =
  QCheck.Test.make ~name:"int_in inclusive bounds" ~count:500
    QCheck.(triple small_nat (int_range (-100) 100) small_nat)
    (fun (seed, lo, width) ->
      let hi = lo + width in
      let rng = Sim.Rng.create seed in
      let v = Sim.Rng.int_in rng lo hi in
      v >= lo && v <= hi)

let prop_float_range =
  QCheck.Test.make ~name:"float in [0,x)" ~count:500 QCheck.small_nat (fun seed ->
      let rng = Sim.Rng.create seed in
      let v = Sim.Rng.float rng 10. in
      v >= 0. && v < 10.)

let test_rough_uniformity () =
  let rng = Sim.Rng.create 11 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun count ->
      Alcotest.(check bool) "bucket near 1000" true (count > 800 && count < 1200))
    buckets

(* Known-answer vectors: the first 16 draws of [int t 1_000_000_007],
   [float t 1.0], [bool t] and [int] on a [split] stream, for seeds 1,
   42 and 7919. Every simulated result depends on this stream, so a
   rewrite of the generator must reproduce it exactly. Floats are
   written in hexadecimal, so they are exact. *)
type kat = {
  seed : int;
  ints : int list;
  floats : float list;
  bools : bool list;
  split_ints : int list;
}

let kats =
  [
    {
      seed = 1;
      ints =
        [
          998940702; 712856990; 273477051; 290691322;
          318757412; 676282239; 280672012; 643868705;
          841867259; 263602389; 658768887; 818270808;
          464817821; 963283173; 764647402; 631675781;
        ];
      floats =
        [
          0x1.a1770cd55c65p-1; 0x1.bd880ce1e9608p-2;
          0x1.9a6ec9ea5c734p-2; 0x1.a66ead5121059p-1;
          0x1.3b7446002425fp-1; 0x1.711e4df99260ap-1;
          0x1.05ed78afec86fp-1; 0x1.93ea2cc1d73f7p-1;
          0x1.0710e39822d2ap-2; 0x1.e69582856d90dp-1;
          0x1.cdc9ec3412957p-1; 0x1.8774ec03fcc65p-1;
          0x1.8d828c166b03cp-2; 0x1.69ca7316abb3bp-1;
          0x1.5884173eaab09p-1; 0x1.56be6849654d6p-2;
        ];
      bools =
        [
          false; true; false; false; false; true; false; false;
          false; false; true; false; true; true; false; true;
        ];
      split_ints =
        [
          222481940; 957423332; 180795994; 562592528;
          523617912; 656392643; 35373900; 897246229;
          183821199; 710367954; 293040215; 412271545;
          669123651; 417710596; 581097575; 178261810;
        ];
    };
    {
      seed = 42;
      ints =
        [
          344951805; 319626724; 113614412; 251791574;
          259256789; 520733747; 931417224; 405667714;
          97323578; 124380488; 152339205; 124468793;
          944198047; 411410907; 549427915; 275523691;
        ];
      floats =
        [
          0x1.9fe1d0a39703ep-1; 0x1.f259c9485efb2p-2;
          0x1.492a72fa51e06p-1; 0x1.8709b8f9f14fcp-1;
          0x1.b06a94882b76p-6; 0x1.0394f4ce42ecfp-1;
          0x1.7dc99df297f11p-1; 0x1.e668a6ebb5d2p-4;
          0x1.6660888cb318p-5; 0x1.dfe1d6efbaefp-1;
          0x1.750b3534b50f1p-1; 0x1.cd447f1fd8204p-3;
          0x1.1fca096f82718p-1; 0x1.9469ea5435d59p-1;
          0x1.042532ff30a21p-1; 0x1.dcbea4cbc2695p-1;
        ];
      bools =
        [
          true; false; true; false; true; false; false; true;
          false; true; true; true; false; true; false; false;
        ];
      split_ints =
        [
          507513216; 517865594; 47362712; 223863883;
          190673395; 188761353; 995088069; 389170582;
          816709023; 215440795; 501357027; 256443329;
          276131521; 407620518; 676244775; 998216247;
        ];
    };
    {
      seed = 7919;
      ints =
        [
          307918590; 944076027; 340145240; 104879957;
          802999948; 731053434; 75085887; 874784075;
          120954706; 147628274; 435786267; 524006384;
          466079423; 367194176; 644694995; 770242055;
        ];
      floats =
        [
          0x1.b4fb651e7ecdep-2; 0x1.1dd28c929ebc6p-2;
          0x1.ce1bf95dfd7d4p-3; 0x1.cc2b808d1965p-1;
          0x1.ecdd1f7e326ep-5; 0x1.4dad1ee559d1cp-2;
          0x1.3e9f65a7015dep-1; 0x1.eb8da7aab35a4p-3;
          0x1.eba1b3e2a6d28p-2; 0x1.69e53612cc36ep-1;
          0x1.65765391861eap-2; 0x1.6af04444fe8a1p-1;
          0x1.b956be9d7d1a1p-1; 0x1.4f43198fea258p-1;
          0x1.4705fb6dc1e7ap-1; 0x1.3b0060a63ce36p-1;
        ];
      bools =
        [
          false; false; true; true; true; false; true; false;
          false; false; false; true; false; true; true; false;
        ];
      split_ints =
        [
          7807034; 386713921; 902816747; 65064985;
          994784980; 12784032; 983820155; 24254903;
          197755219; 370136050; 917203820; 552898739;
          775231757; 142152614; 9917187; 951291822;
        ];
    };
  ]

let draws n f = List.init n (fun _ -> f ())

let test_known_answers () =
  List.iter
    (fun k ->
      let name what = Printf.sprintf "seed %d %s" k.seed what in
      let fresh () = Sim.Rng.create k.seed in
      let r = fresh () in
      Alcotest.(check (list int)) (name "int") k.ints
        (draws 16 (fun () -> Sim.Rng.int r 1_000_000_007));
      let r = fresh () in
      Alcotest.(check (list (float 0.))) (name "float") k.floats
        (draws 16 (fun () -> Sim.Rng.float r 1.0));
      let r = fresh () in
      Alcotest.(check (list bool)) (name "bool") k.bools (draws 16 (fun () -> Sim.Rng.bool r));
      let s = Sim.Rng.split (fresh ()) in
      Alcotest.(check (list int)) (name "split int") k.split_ints
        (draws 16 (fun () -> Sim.Rng.int s 1_000_000_007)))
    kats

(* [int] and [bool] keep the SplitMix64 state unboxed in its byte
   buffer and loop without a closure, so drawing allocates nothing. *)
let test_draws_allocate_nothing () =
  let r = Sim.Rng.create 42 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Sim.Rng.int r 1000 + Bool.to_int (Sim.Rng.bool r)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "drew" true (!acc > 0);
  Alcotest.(check bool)
    (Printf.sprintf "10000 int+bool draws allocated %.0f words" words)
    true (words < 100.)

let tests =
  [
    Alcotest.test_case "deterministic from seed" `Quick test_determinism;
    Alcotest.test_case "seeds give different streams" `Quick test_seeds_differ;
    Alcotest.test_case "split gives independent stream" `Quick test_split_independent;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "rough uniformity" `Quick test_rough_uniformity;
    Alcotest.test_case "known-answer vectors" `Quick test_known_answers;
    Alcotest.test_case "int and bool draws allocate nothing" `Quick
      test_draws_allocate_nothing;
    QCheck_alcotest.to_alcotest prop_int_range;
    QCheck_alcotest.to_alcotest prop_int_in_range;
    QCheck_alcotest.to_alcotest prop_float_range;
  ]
