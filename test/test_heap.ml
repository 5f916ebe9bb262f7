let test_empty () =
  let h = Sim.Heap.create () in
  Alcotest.(check bool) "empty" true (Sim.Heap.is_empty h);
  Alcotest.(check (option int)) "peek" None (Sim.Heap.peek_key h);
  Alcotest.check_raises "pop" (Invalid_argument "Sim.Heap.pop: heap is empty") (fun () ->
      ignore (Sim.Heap.pop h))

let test_ordering () =
  let h = Sim.Heap.create () in
  List.iteri (fun i k -> Sim.Heap.push h ~key:k ~seq:i k) [ 5; 3; 9; 1; 7; 3; 0 ];
  let rec drain acc = if Sim.Heap.is_empty h then List.rev acc
    else let k, _, _ = Sim.Heap.pop h in drain (k :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 3; 3; 5; 7; 9 ] (drain [])

let test_fifo_ties () =
  let h = Sim.Heap.create () in
  List.iteri (fun i v -> Sim.Heap.push h ~key:42 ~seq:i v) [ "a"; "b"; "c"; "d" ];
  let rec drain acc = if Sim.Heap.is_empty h then List.rev acc
    else let _, _, v = Sim.Heap.pop h in drain (v :: acc)
  in
  Alcotest.(check (list string)) "insertion order" [ "a"; "b"; "c"; "d" ] (drain [])

let test_interleaved () =
  let h = Sim.Heap.create () in
  Sim.Heap.push h ~key:10 ~seq:0 10;
  Sim.Heap.push h ~key:5 ~seq:1 5;
  let k1, _, _ = Sim.Heap.pop h in
  Sim.Heap.push h ~key:1 ~seq:2 1;
  let k2, _, _ = Sim.Heap.pop h in
  let k3, _, _ = Sim.Heap.pop h in
  Alcotest.(check (list int)) "interleaved" [ 5; 1; 10 ] [ k1; k2; k3 ]

let test_clear () =
  let h = Sim.Heap.create () in
  for i = 0 to 99 do Sim.Heap.push h ~key:i ~seq:i i done;
  Alcotest.(check int) "length" 100 (Sim.Heap.length h);
  Sim.Heap.clear h;
  Alcotest.(check bool) "cleared" true (Sim.Heap.is_empty h)

let prop_heap_sort =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list small_nat)
    (fun keys ->
      let h = Sim.Heap.create () in
      List.iteri (fun i k -> Sim.Heap.push h ~key:k ~seq:i k) keys;
      let rec drain acc = if Sim.Heap.is_empty h then List.rev acc
        else let k, _, _ = Sim.Heap.pop h in drain (k :: acc)
      in
      drain [] = List.sort compare keys)

let prop_heap_stable =
  QCheck.Test.make ~name:"equal keys pop in insertion order" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 50) (int_range 0 3))
    (fun keys ->
      let h = Sim.Heap.create () in
      List.iteri (fun i k -> Sim.Heap.push h ~key:k ~seq:i (k, i)) keys;
      let rec drain acc = if Sim.Heap.is_empty h then List.rev acc
        else let _, _, v = Sim.Heap.pop h in drain (v :: acc)
      in
      let popped = drain [] in
      (* within each key class, seq must increase *)
      List.for_all
        (fun key ->
          let seqs = List.filter_map (fun (k, i) -> if k = key then Some i else None) popped in
          seqs = List.sort compare seqs)
        [ 0; 1; 2; 3 ])

(* Space-leak regression: popped (and cleared) entries must become
   unreachable — the heap used to keep them live in the array's dead
   slots, retaining event closures across long campaigns. Weak
   pointers observe collectability directly. Each test uses the heap
   after the collection, so the heap itself stays reachable and only
   a blanked slot can let an entry go. *)
let assert_collected name w =
  Gc.full_major ();
  for i = 0 to Weak.length w - 1 do
    Alcotest.(check bool) (Printf.sprintf "%s slot %d collected" name i) true
      (Weak.get w i = None)
  done

let test_pop_releases () =
  let h = Sim.Heap.create () in
  let n = 16 in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set w i (Some v);
    Sim.Heap.push h ~key:(n - i) ~seq:i v
  done;
  for _ = 1 to n do
    ignore (Sim.Heap.pop h)
  done;
  Alcotest.(check bool) "drained" true (Sim.Heap.is_empty h);
  assert_collected "pop" w;
  Alcotest.(check int) "heap still live" 0 (Sim.Heap.length h)

let test_clear_releases () =
  let h = Sim.Heap.create () in
  let n = 16 in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set w i (Some v);
    Sim.Heap.push h ~key:i ~seq:i v
  done;
  Sim.Heap.clear h;
  assert_collected "clear" w;
  Alcotest.(check int) "heap still live" 0 (Sim.Heap.length h)

let test_partial_pop_releases () =
  (* Only the popped half may be collected; the resident half must
     survive a major GC and still drain correctly. *)
  let h = Sim.Heap.create () in
  let n = 8 in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set w i (Some v);
    Sim.Heap.push h ~key:i ~seq:i v
  done;
  for _ = 1 to n / 2 do
    ignore (Sim.Heap.pop h)
  done;
  Gc.full_major ();
  for i = 0 to (n / 2) - 1 do
    Alcotest.(check bool) (Printf.sprintf "popped %d collected" i) true (Weak.get w i = None)
  done;
  for i = n / 2 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "resident %d alive" i) true (Weak.get w i <> None)
  done;
  let rec drain acc =
    if Sim.Heap.is_empty h then List.rev acc
    else
      let _, _, v = Sim.Heap.pop h in
      drain (!v :: acc)
  in
  Alcotest.(check (list int)) "remaining order" [ 4; 5; 6; 7 ] (drain [])

(* The engine's run loop pops through [pop_value], so that path must
   blank the freed value slot just as [pop] does. *)
let test_pop_value_releases () =
  let h = Sim.Heap.create () in
  let n = 16 in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set w i (Some v);
    Sim.Heap.push h ~key:(n - i) ~seq:i v
  done;
  for _ = 1 to n do
    ignore (Sim.Heap.pop_value h)
  done;
  Alcotest.(check bool) "drained" true (Sim.Heap.is_empty h);
  assert_collected "pop_value" w;
  Alcotest.(check int) "heap still live" 0 (Sim.Heap.length h)

let test_empty_pop_value () =
  let h = Sim.Heap.create () in
  Alcotest.(check int) "min_key of empty heap" max_int (Sim.Heap.min_key h);
  Alcotest.check_raises "pop_value" (Invalid_argument "Sim.Heap.pop: heap is empty")
    (fun () -> ignore (Sim.Heap.pop_value h));
  Sim.Heap.push h ~key:3 ~seq:0 "x";
  Alcotest.(check int) "min_key" 3 (Sim.Heap.min_key h);
  Alcotest.(check string) "pop_value" "x" (Sim.Heap.pop_value h);
  Alcotest.(check int) "min_key after drain" max_int (Sim.Heap.min_key h)

(* The engine peeks (run ~until) without popping; a peek must not
   disturb the order seen by later pushes at smaller keys. *)
let test_peek_then_smaller_push () =
  let h = Sim.Heap.create () in
  Sim.Heap.push h ~key:1_000_000 ~seq:0 "far";
  Alcotest.(check (option int)) "peek far" (Some 1_000_000) (Sim.Heap.peek_key h);
  Sim.Heap.push h ~key:10 ~seq:1 "near";
  Alcotest.(check (option int)) "near first" (Some 10) (Sim.Heap.peek_key h);
  let _, _, v = Sim.Heap.pop h in
  Alcotest.(check string) "near pops first" "near" v;
  let _, _, v = Sim.Heap.pop h in
  Alcotest.(check string) "far second" "far" v

(* Clearing a heap with resident values leaves [slots] a permutation,
   so a refilled heap must hand out every slot exactly once again. *)
let test_reuse_after_clear () =
  let h = Sim.Heap.create () in
  for i = 0 to 99 do Sim.Heap.push h ~key:(i * 37 mod 100) ~seq:i i done;
  for _ = 1 to 40 do ignore (Sim.Heap.pop h) done;
  Sim.Heap.clear h;
  for i = 0 to 149 do Sim.Heap.push h ~key:(i * 53 mod 150) ~seq:(1000 + i) (1000 + i) done;
  Alcotest.(check int) "length after refill" 150 (Sim.Heap.length h);
  let rec drain acc =
    if Sim.Heap.is_empty h then List.rev acc
    else
      let k, _, v = Sim.Heap.pop h in
      drain ((k, v) :: acc)
  in
  let popped = drain [] in
  Alcotest.(check (list int)) "keys sorted" (List.init 150 Fun.id) (List.map fst popped);
  Alcotest.(check (list int)) "every value once"
    (List.init 150 (fun i -> 1000 + i))
    (List.sort compare (List.map snd popped))

(* 5000 entries over a wide key span force repeated doubling of the
   arrays, each time with a full heap whose slots are scattered. *)
let test_growth () =
  let h = Sim.Heap.create () in
  let n = 5000 in
  for i = 0 to n - 1 do
    Sim.Heap.push h ~key:(i * 7919 mod 1000 * 1_000_000) ~seq:i i
  done;
  let rec drain acc =
    if Sim.Heap.is_empty h then List.rev acc
    else
      let k, s, v = Sim.Heap.pop h in
      drain ((k, s, v) :: acc)
  in
  let popped = drain [] in
  Alcotest.(check int) "all popped" n (List.length popped);
  Alcotest.(check bool) "(key, seq) sorted" true
    (List.sort compare popped = popped);
  Alcotest.(check bool) "values travel with their entries" true
    (List.for_all (fun (_, s, v) -> s = v) popped)

(* The .mli promises that push and pop_value allocate nothing once the
   arrays have grown. Minor words cover every heap allocation here:
   the arrays never outgrow the minor-heap size limit after warm-up. *)
let test_steady_state_no_alloc () =
  let h = Sim.Heap.create () in
  for i = 0 to 255 do Sim.Heap.push h ~key:i ~seq:i i done;
  let seq = ref 256 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    let k = Sim.Heap.min_key h in
    let v = Sim.Heap.pop_value h in
    Sim.Heap.push h ~key:(k + (i * 7 mod 300)) ~seq:!seq v;
    incr seq
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "10000 pop_value/push cycles allocated %.0f words" words)
    true (words < 100.)

(* Random push/pop/clear interleavings against a sorted-list model,
   checking the full (key, seq) tie-break order. *)
type heap_op = Push of int | Pop | Clear

let gen_heap_ops =
  let open QCheck.Gen in
  list_size (int_range 0 200)
    (frequency
       [ (6, map (fun k -> Push k) (int_range 0 7)); (3, return Pop); (1, return Clear) ])

let prop_heap_model =
  QCheck.Test.make ~name:"push/pop/clear interleavings match sorted model" ~count:200
    (QCheck.make gen_heap_ops)
    (fun ops ->
      let h = Sim.Heap.create () in
      let model = ref [] (* sorted by (key, seq) *) in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Push k ->
            Sim.Heap.push h ~key:k ~seq:!seq (k, !seq);
            model :=
              List.sort
                (fun (k1, s1) (k2, s2) -> compare (k1, s1) (k2, s2))
                ((k, !seq) :: !model);
            incr seq
          | Pop -> (
            match !model with
            | [] ->
              ok := !ok && Sim.Heap.is_empty h;
              if not (Sim.Heap.is_empty h) then ignore (Sim.Heap.pop h)
            | m :: rest ->
              let k, s, v = Sim.Heap.pop h in
              ok := !ok && (k, s) = m && v = m;
              model := rest)
          | Clear ->
            Sim.Heap.clear h;
            model := [])
        ops;
      !ok
      && Sim.Heap.length h = List.length !model
      && Sim.Heap.peek_key h = (match !model with [] -> None | (k, _) :: _ -> Some k))

(* Differential against the reference binary heap (test/ref_heap.ml):
   random interleavings of pushes and pops must give identical (key,
   seq, value) pop streams. Keys mix narrow ranges (many ties, so the
   seq tie-break decides) with wide ones (deep sifts); [pop_value] pops
   the way the engine's run loop does, key read first via [min_key]. *)
type ref_op = Push_key of int | Pop_tuple | Pop_value

let gen_ref_ops =
  let open QCheck.Gen in
  let key =
    frequency
      [ (4, int_range 0 7); (4, int_range 0 500); (2, int_range 0 10_000_000) ]
  in
  list_size (int_range 0 400)
    (frequency
       [ (6, map (fun k -> Push_key k) key); (2, return Pop_tuple); (2, return Pop_value) ])

let prop_vs_reference =
  QCheck.Test.make ~name:"pop stream identical to reference heap" ~count:300
    (QCheck.make gen_ref_ops)
    (fun ops ->
      let h = Sim.Heap.create () and r = Ref_heap.create () in
      let seq = ref 0 and ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Push_key k ->
            Sim.Heap.push h ~key:k ~seq:!seq !seq;
            Ref_heap.push r ~key:k ~seq:!seq !seq;
            incr seq
          | (Pop_tuple | Pop_value) when Ref_heap.is_empty r ->
            ok := !ok && Sim.Heap.is_empty h
          | Pop_tuple -> ok := !ok && Sim.Heap.pop h = Ref_heap.pop r
          | Pop_value ->
            let k = Sim.Heap.min_key h in
            let v = Sim.Heap.pop_value h in
            let rk, _, rv = Ref_heap.pop r in
            ok := !ok && k = rk && v = rv)
        ops;
      let rec drain acc =
        if Sim.Heap.is_empty h then List.rev acc else drain (Sim.Heap.pop h :: acc)
      in
      let rec drain_ref acc =
        if Ref_heap.is_empty r then List.rev acc else drain_ref (Ref_heap.pop r :: acc)
      in
      !ok && drain [] = drain_ref [])

let tests =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "pop ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO on equal keys" `Quick test_fifo_ties;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
    Alcotest.test_case "length and clear" `Quick test_clear;
    Alcotest.test_case "pop releases entries (no space leak)" `Quick test_pop_releases;
    Alcotest.test_case "clear releases entries (no space leak)" `Quick test_clear_releases;
    Alcotest.test_case "partial pop releases only popped" `Quick test_partial_pop_releases;
    Alcotest.test_case "pop_value releases entries (no space leak)" `Quick
      test_pop_value_releases;
    Alcotest.test_case "pop_value and min_key on empty heap" `Quick test_empty_pop_value;
    Alcotest.test_case "peek then smaller push" `Quick test_peek_then_smaller_push;
    Alcotest.test_case "reuse after clear" `Quick test_reuse_after_clear;
    Alcotest.test_case "growth keeps (key, seq) order" `Quick test_growth;
    Alcotest.test_case "push/pop_value allocate nothing" `Quick test_steady_state_no_alloc;
    QCheck_alcotest.to_alcotest prop_heap_sort;
    QCheck_alcotest.to_alcotest prop_heap_stable;
    QCheck_alcotest.to_alcotest prop_heap_model;
    QCheck_alcotest.to_alcotest prop_vs_reference;
  ]
