(* Addr mapping and the set-associative array. *)

let test_addr_roundtrip () =
  Alcotest.(check int) "block of byte" 2 (Cache.Addr.of_byte_address 140);
  Alcotest.(check int) "byte of block" 128 (Cache.Addr.to_byte_address 2)

let test_addr_homes () =
  (* home CMPs cycle with block interleaving *)
  let homes = List.init 8 (fun a -> Cache.Addr.home_cmp ~ncmp:4 a) in
  Alcotest.(check (list int)) "interleaved" [ 0; 1; 2; 3; 0; 1; 2; 3 ] homes

let test_addr_banks () =
  let a = 0x1234 in
  let b = Cache.Addr.l2_bank ~nbanks:4 a in
  Alcotest.(check bool) "bank in range" true (b >= 0 && b < 4);
  (* bank choice must not be a function of the home CMP alone *)
  let banks = List.init 64 (fun a -> Cache.Addr.l2_bank ~nbanks:4 (a * 4)) in
  Alcotest.(check bool) "banks vary" true (List.exists (fun b -> b <> List.hd banks) banks)

let test_sarray_insert_find () =
  let s = Cache.Sarray.create ~sets:4 ~ways:2 in
  Cache.Sarray.insert s 10 "a";
  Cache.Sarray.insert s 20 "b";
  Alcotest.(check (option string)) "find 10" (Some "a") (Cache.Sarray.find s 10);
  Alcotest.(check (option string)) "find 20" (Some "b") (Cache.Sarray.find s 20);
  Alcotest.(check (option string)) "miss" None (Cache.Sarray.find s 30);
  Alcotest.(check int) "population" 2 (Cache.Sarray.population s)

let test_sarray_lru_victim () =
  let s = Cache.Sarray.create ~sets:1 ~ways:2 in
  Cache.Sarray.insert s 1 "a";
  Cache.Sarray.insert s 2 "b";
  (* no free way: LRU (1) is the victim *)
  Alcotest.(check (option (pair int string))) "victim is LRU" (Some (1, "a"))
    (Cache.Sarray.victim_for s 3);
  (* touching 1 makes 2 the victim *)
  Cache.Sarray.touch s 1;
  Alcotest.(check (option (pair int string))) "victim after touch" (Some (2, "b"))
    (Cache.Sarray.victim_for s 3)

let test_sarray_no_victim_cases () =
  let s = Cache.Sarray.create ~sets:1 ~ways:2 in
  Cache.Sarray.insert s 1 "a";
  Alcotest.(check (option (pair int string))) "free way" None (Cache.Sarray.victim_for s 2);
  Alcotest.(check (option (pair int string))) "already resident" None (Cache.Sarray.victim_for s 1)

let test_sarray_remove () =
  let s = Cache.Sarray.create ~sets:2 ~ways:1 in
  Cache.Sarray.insert s 4 "x";
  Cache.Sarray.remove s 4;
  Alcotest.(check (option string)) "gone" None (Cache.Sarray.find s 4);
  Alcotest.(check int) "population" 0 (Cache.Sarray.population s);
  Cache.Sarray.remove s 4 (* idempotent *)

let test_sarray_full_set_raises () =
  let s = Cache.Sarray.create ~sets:1 ~ways:1 in
  Cache.Sarray.insert s 1 "a";
  Alcotest.check_raises "set full" (Invalid_argument "Sarray.insert: set full") (fun () ->
      Cache.Sarray.insert s 2 "b");
  Alcotest.check_raises "duplicate" (Invalid_argument "Sarray.insert: block already resident")
    (fun () -> Cache.Sarray.insert s 1 "c")

let test_sarray_iter () =
  let s = Cache.Sarray.create ~sets:4 ~ways:4 in
  List.iter (fun a -> Cache.Sarray.insert s a (a * 2)) [ 1; 2; 3; 9 ];
  let sum = ref 0 in
  Cache.Sarray.iter (fun a v -> sum := !sum + a + v) s;
  Alcotest.(check int) "iter visits all" 45 !sum

(* LRU property: under capacity pressure, a re-touched block survives. *)
let prop_lru =
  QCheck.Test.make ~name:"recently touched blocks survive eviction" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 0 15))
    (fun accesses ->
      let ways = 4 in
      let s = Cache.Sarray.create ~sets:1 ~ways in
      let recent = ref [] in
      List.iter
        (fun a ->
          (match Cache.Sarray.find s a with
          | Some _ -> Cache.Sarray.touch s a
          | None ->
            (match Cache.Sarray.victim_for s a with
            | Some (v, _) -> Cache.Sarray.remove s v
            | None -> ());
            Cache.Sarray.insert s a a);
          recent := a :: List.filter (fun x -> x <> a) !recent;
          if List.length !recent > ways then
            recent := List.filteri (fun i _ -> i < ways) !recent)
        accesses;
      (* the [ways] most recently used distinct blocks must be resident *)
      List.for_all (fun a -> Cache.Sarray.mem s a) !recent)

let prop_population =
  QCheck.Test.make ~name:"population equals resident count" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 60) (int_range 0 30))
    (fun accesses ->
      let s = Cache.Sarray.create ~sets:4 ~ways:2 in
      List.iter
        (fun a ->
          match Cache.Sarray.find s a with
          | Some _ -> Cache.Sarray.touch s a
          | None -> (
            match Cache.Sarray.victim_for s a with
            | Some (v, _) ->
              Cache.Sarray.remove s v;
              Cache.Sarray.insert s a a
            | None -> Cache.Sarray.insert s a a))
        accesses;
      let n = ref 0 in
      Cache.Sarray.iter (fun _ _ -> incr n) s;
      !n = Cache.Sarray.population s && !n <= 8)

(* Differential property: the flat [Sarray] against a reference model
   kept the simple way. Per set, the model holds the ways in slot order
   ([None] = free) and the residents most-recently-used first. Random
   operation sequences on 1-4 sets of 1-4 ways must agree on every
   answer, on which way a fill takes when the set has a free one (the
   first free way), on [iter] order (set by set, way by way) and on
   [population]. *)
type sarray_op =
  | Insert of int
  | Remove of int
  | Touch of int
  | Find of int
  | Victim of int
  | Fill of int (* evict [victim_for]'s choice if any, then insert *)
  | Iter

let gen_sarray_case =
  let open QCheck.Gen in
  let addr = int_range 0 23 in
  let op =
    frequency
      [
        (2, map (fun a -> Insert a) addr);
        (2, map (fun a -> Remove a) addr);
        (2, map (fun a -> Touch a) addr);
        (2, map (fun a -> Find a) addr);
        (2, map (fun a -> Victim a) addr);
        (4, map (fun a -> Fill a) addr);
        (1, return Iter);
      ]
  in
  triple (int_range 1 4) (int_range 1 4) (list_size (int_range 0 200) op)

let prop_sarray_model =
  QCheck.Test.make ~name:"flat Sarray matches list-per-set LRU model" ~count:500
    (QCheck.make gen_sarray_case)
    (fun (sets, ways, ops) ->
      let s = Cache.Sarray.create ~sets ~ways in
      let slots = Array.make sets (List.init ways (fun _ -> None)) in
      let lru = Array.make sets [] in
      let set a = a mod sets in
      let resident a = List.mem a lru.(set a) in
      let has_free a = List.mem None slots.(set a) in
      let state a =
        List.find_map (function Some (b, st) when b = a -> Some st | _ -> None) slots.(set a)
      in
      let use a = lru.(set a) <- a :: List.filter (( <> ) a) lru.(set a) in
      let m_victim a =
        if resident a || has_free a then None
        else
          let v = List.nth lru.(set a) (ways - 1) in
          Some (v, Option.get (state v))
      in
      let m_insert a st =
        let placed = ref false in
        slots.(set a) <-
          List.map
            (function
              | None when not !placed ->
                placed := true;
                Some (a, st)
              | w -> w)
            slots.(set a);
        use a
      in
      let m_remove a =
        slots.(set a) <- List.map (function Some (b, _) when b = a -> None | w -> w) slots.(set a);
        lru.(set a) <- List.filter (( <> ) a) lru.(set a)
      in
      let m_iter () = List.concat_map (List.filter_map Fun.id) (Array.to_list slots) in
      let s_iter () =
        let acc = ref [] in
        Cache.Sarray.iter (fun a st -> acc := (a, st) :: !acc) s;
        List.rev !acc
      in
      let agree () =
        let m = m_iter () in
        s_iter () = m && Cache.Sarray.population s = List.length m
      in
      let ok = ref true in
      let check b = ok := !ok && b in
      List.iteri
        (fun i op ->
          match op with
          | Insert a -> (
            let expect =
              if resident a then Some "Sarray.insert: block already resident"
              else if not (has_free a) then Some "Sarray.insert: set full"
              else None
            in
            match Cache.Sarray.insert s a i with
            | () ->
              check (expect = None);
              m_insert a i
            | exception Invalid_argument msg -> check (expect = Some msg))
          | Remove a ->
            Cache.Sarray.remove s a;
            m_remove a
          | Touch a ->
            Cache.Sarray.touch s a;
            if resident a then use a
          | Find a -> check (Cache.Sarray.find s a = state a)
          | Victim a -> check (Cache.Sarray.victim_for s a = m_victim a)
          | Fill a ->
            if not (resident a) then begin
              let v = Cache.Sarray.victim_for s a in
              check (v = m_victim a);
              Option.iter
                (fun (b, _) ->
                  Cache.Sarray.remove s b;
                  m_remove b)
                v;
              Cache.Sarray.insert s a i;
              m_insert a i
            end
          | Iter -> check (agree ()))
        ops;
      !ok && agree ())

let tests =
  [
    Alcotest.test_case "byte/block round trip" `Quick test_addr_roundtrip;
    Alcotest.test_case "home CMP interleaving" `Quick test_addr_homes;
    Alcotest.test_case "L2 bank mapping" `Quick test_addr_banks;
    Alcotest.test_case "insert and find" `Quick test_sarray_insert_find;
    Alcotest.test_case "LRU victim selection" `Quick test_sarray_lru_victim;
    Alcotest.test_case "victim-free cases" `Quick test_sarray_no_victim_cases;
    Alcotest.test_case "remove" `Quick test_sarray_remove;
    Alcotest.test_case "misuse raises" `Quick test_sarray_full_set_raises;
    Alcotest.test_case "iter" `Quick test_sarray_iter;
    QCheck_alcotest.to_alcotest prop_lru;
    QCheck_alcotest.to_alcotest prop_population;
    QCheck_alcotest.to_alcotest prop_sarray_model;
  ]
