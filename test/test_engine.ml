let test_schedule_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule_in e (Sim.Time.ns 5) (fun () -> log := 5 :: !log);
  Sim.Engine.schedule_in e (Sim.Time.ns 1) (fun () -> log := 1 :: !log);
  Sim.Engine.schedule_in e (Sim.Time.ns 3) (fun () -> log := 3 :: !log);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" (Sim.Time.ns 5) (Sim.Engine.now e)

let test_same_time_fifo () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.Engine.schedule_in e (Sim.Time.ns 7) (fun () -> log := i :: !log)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "scheduling order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_nested_scheduling () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule_in e (Sim.Time.ns 1) (fun () ->
      log := "outer" :: !log;
      Sim.Engine.schedule_in e (Sim.Time.ns 1) (fun () -> log := "inner" :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check int) "events" 2 (Sim.Engine.events_processed e)

let test_until () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  List.iter
    (fun t -> Sim.Engine.schedule_in e (Sim.Time.ns t) (fun () -> incr fired))
    [ 1; 2; 10; 20 ];
  Sim.Engine.run ~until:(Sim.Time.ns 5) e;
  Alcotest.(check int) "only early events" 2 !fired;
  Sim.Engine.run e;
  Alcotest.(check int) "rest run later" 4 !fired

let test_stop () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule_in e (Sim.Time.ns 1) (fun () ->
      incr fired;
      Sim.Engine.stop e);
  Sim.Engine.schedule_in e (Sim.Time.ns 2) (fun () -> incr fired);
  Sim.Engine.run e;
  Alcotest.(check int) "stopped after first" 1 !fired

let test_timer_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let timer = Sim.Engine.timer_in e (Sim.Time.ns 5) (fun () -> fired := true) in
  Sim.Engine.schedule_in e (Sim.Time.ns 1) (fun () -> Sim.Engine.cancel timer);
  Sim.Engine.run e;
  Alcotest.(check bool) "cancelled timer silent" false !fired

let test_max_events () =
  let e = Sim.Engine.create () in
  let rec forever () = Sim.Engine.schedule_in e (Sim.Time.ns 1) forever in
  forever ();
  Alcotest.check_raises "runaway guard"
    (Failure "Engine.run: exceeded 100 events")
    (fun () -> Sim.Engine.run ~max_events:100 e)

(* find_ext is a linear walk over a list that stays tiny (a single
   metrics registry in practice); this pins the contract that walk
   provides: recognizer-driven lookup, most recently added first. *)
type Sim.Engine.ext += A of int | B of string

let test_find_ext () =
  let e = Sim.Engine.create () in
  Alcotest.(check (option int)) "empty" None
    (Sim.Engine.find_ext e (function A n -> Some n | _ -> None));
  Sim.Engine.add_ext e (A 1);
  Sim.Engine.add_ext e (B "x");
  Alcotest.(check (option int)) "by recognizer" (Some 1)
    (Sim.Engine.find_ext e (function A n -> Some n | _ -> None));
  Alcotest.(check (option string)) "other recognizer" (Some "x")
    (Sim.Engine.find_ext e (function B s -> Some s | _ -> None));
  Sim.Engine.add_ext e (A 2);
  Alcotest.(check (option int)) "most recent first" (Some 2)
    (Sim.Engine.find_ext e (function A n -> Some n | _ -> None))

(* The engine must run events exactly like a reference engine built
   the obvious way on the boxed binary heap of test/ref_heap.ml: a
   self-scheduling cascade (each event reschedules with pseudo-random
   delays, including zero-delay ties) must execute in the identical
   order on both. An engine here is [(schedule_in, now, run)], where
   [run] drains the queue and returns the number of events run. *)
let sim_engine () =
  let e = Sim.Engine.create () in
  ( Sim.Engine.schedule_in e,
    (fun () -> Sim.Engine.now e),
    fun () ->
      Sim.Engine.run e;
      Sim.Engine.events_processed e )

let ref_engine () =
  let q = Ref_heap.create () and now = ref 0 and seq = ref 0 in
  let schedule_in delay f =
    incr seq;
    Ref_heap.push q ~key:(!now + delay) ~seq:!seq f
  in
  let rec run n =
    if Ref_heap.is_empty q then n
    else begin
      let time, _, f = Ref_heap.pop q in
      now := time;
      f ();
      run (n + 1)
    end
  in
  (schedule_in, (fun () -> !now), fun () -> run 0)

let run_cascade (schedule_in, now, run) =
  let rng = Sim.Rng.create 42 in
  let log = ref [] in
  let next_id = ref 0 in
  let rec spawn depth =
    let id = !next_id in
    incr next_id;
    schedule_in
      (Sim.Time.ps (Sim.Rng.int rng 5000))
      (fun () ->
        log := (id, now ()) :: !log;
        if depth < 12 then
          for _ = 1 to 1 + Sim.Rng.int rng 2 do
            spawn (depth + 1)
          done)
  in
  for _ = 1 to 8 do
    spawn 0
  done;
  let n = run () in
  (List.rev !log, n, now ())

let test_queue_differential () =
  let sim_log, sim_n, sim_t = run_cascade (sim_engine ()) in
  let ref_log, ref_n, ref_t = run_cascade (ref_engine ()) in
  Alcotest.(check int) "event counts" ref_n sim_n;
  Alcotest.(check int) "final clocks" ref_t sim_t;
  Alcotest.(check bool) "identical event order" true (sim_log = ref_log)

(* Executed events must not stay reachable from the engine: the run
   loop pops through [Heap.pop_value], which must drop each closure
   from its value slot. *)
let test_run_releases_events () =
  let e = Sim.Engine.create () in
  let n = 16 in
  let w = Weak.create n in
  let sum = ref 0 in
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set w i (Some v);
    Sim.Engine.schedule_in e (Sim.Time.ns (n - i)) (fun () -> sum := !sum + !v)
  done;
  Sim.Engine.run e;
  Alcotest.(check int) "all ran" (n * (n - 1) / 2) !sum;
  Gc.full_major ();
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "event %d collected" i) true (Weak.get w i = None)
  done;
  (* Using the engine afterwards keeps it, and its queue, reachable. *)
  Alcotest.(check int) "events" n (Sim.Engine.events_processed e)

let test_time_units () =
  Alcotest.(check int) "us" (Sim.Time.ns 1000) (Sim.Time.us 1);
  Alcotest.(check int) "ns" (Sim.Time.ps 1000) (Sim.Time.ns 1);
  Alcotest.(check (float 0.001)) "to_ns" 2.5 (Sim.Time.to_ns (Sim.Time.ps 2500));
  Alcotest.(check int) "mul_f" (Sim.Time.ns 15) (Sim.Time.mul_f (Sim.Time.ns 10) 1.5)

let tests =
  [
    Alcotest.test_case "events fire in time order" `Quick test_schedule_order;
    Alcotest.test_case "same-time events are FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "run ~until leaves the queue intact" `Quick test_until;
    Alcotest.test_case "stop" `Quick test_stop;
    Alcotest.test_case "timer cancellation" `Quick test_timer_cancel;
    Alcotest.test_case "max_events guard" `Quick test_max_events;
    Alcotest.test_case "find_ext recognizer lookup" `Quick test_find_ext;
    Alcotest.test_case "engine vs reference heap differential" `Quick test_queue_differential;
    Alcotest.test_case "executed events are released" `Quick test_run_releases_events;
    Alcotest.test_case "time unit conversions" `Quick test_time_units;
  ]
