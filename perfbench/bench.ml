(* The repository benchmark: every layer is measured from outside, by
   timing calls into public entry points (the protocol builder and the
   [access] it returns, [Workload.Program.next], each
   [Mc.Explore.MODEL] function) and by the engine's public trace sink.
   No library code is instrumented for it. See README.md for the
   workloads, the metrics and the layer -> end-to-end map.

   Usage:
     bench.exe run --workload W --seed N --seconds S --trace 0|1
     bench.exe selftest *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* 8 CMPs x 6 processors: 96 L1s + 32 L2 banks = 128 caches, 136
   coherence nodes. Token count as in the scale curve: 4 x caches. *)
let machine =
  { Mcmp.Config.default with
    Mcmp.Config.ncmp = 8;
    procs_per_cmp = 6;
    l2_banks = 4;
    tokens = 4 * 8 * ((2 * 6) + 4) }

(* OLTP stand-in with its shared footprint weak-scaled to the processor
   count, as in the server-scale curve: OLTP's block counts are
   calibrated for ~32 processors, and holding them fixed at 48 measures
   hot-set contention rather than the protocols. *)
let oltp ~warmup_ops ~ops =
  let p = Workload.Commercial.oltp in
  let f = max 1 ((Mcmp.Config.nprocs machine + 31) / 32) in
  { p with
    Workload.Commercial.shared_blocks = f * p.Workload.Commercial.shared_blocks;
    hot_blocks = f * p.Workload.Commercial.hot_blocks;
    migratory_blocks = f * p.Workload.Commercial.migratory_blocks;
    nlocks = f * p.Workload.Commercial.nlocks;
    warmup_ops;
    ops }

(* Counts measured at the commit that introduced this benchmark, seed 1,
   so later changes can state a ratio together with its base. *)
type base = {
  b_events_per_miss : float;
  b_deliveries_per_miss : float;
  b_words_per_event : float;
  b_transitions_per_state : float;
}

type workload = {
  name : string;
  proto : Tokencmp.Protocols.t;
  profile : Workload.Commercial.profile;
  model : unit -> (module Mc.Explore.MODEL);
  max_states : int;
  base : base;
}

(* Each workload pairs one protocol's timed simulation with the model
   check of the same protocol, the two comparisons the paper makes.
   Run lengths keep one simulation pass and one checker run at roughly
   1-3 s each on a 2-vCPU host, so that a run takes the median of many
   of each: host timings there swing by 10-15% from one second to the
   next. *)
let workloads =
  [
    {
      name = "token";
      proto = Tokencmp.Protocols.token Token.Policy.dst1;
      profile = oltp ~warmup_ops:100 ~ops:300;
      model =
        (fun () ->
          Mc.Token_model.distributed
            { Mc.Token_model.default_params with Mc.Token_model.caches = 3; tokens = 4 });
      max_states = 100_000;
      base =
        { b_events_per_miss = 206.7278; b_deliveries_per_miss = 103.1425;
          b_words_per_event = 31.6025; b_transitions_per_state = 10.8503 };
    };
    {
      name = "directory";
      proto = Tokencmp.Protocols.directory;
      profile = oltp ~warmup_ops:300 ~ops:1500;
      model =
        (fun () ->
          Mc.Dir_model.flat
            { Mc.Dir_model.default_params with Mc.Dir_model.caches = 3; net_cap = 3 });
      max_states = 200_000;
      base =
        { b_events_per_miss = 14.9575; b_deliveries_per_miss = 7.1700;
          b_words_per_event = 86.2529; b_transitions_per_state = 2.9432 };
    };
  ]

(* ------------------------------------------------------------------ *)
(* Host-time ledger over the trace sink and the wrapper boundaries      *)

(* Segment kinds. Every sink callback and every wrapper entry closes
   the running segment and opens one of its own kind; a wrapper exit
   reopens the kind that was running at its entry. Host time between
   two boundaries is charged to the earlier one, which approximates
   self time at each boundary. *)
let kind_names =
  [| "engine/other"; "Msg_deliver"; "Msg_send"; "Net_hop"; "Link_xfer"; "Lookup";
     "Req_issue"; "Req_response"; "Req_retire"; "Req_reissue"; "Mem_hop"; "Fsm";
     "Persistent"; "Dir_indirection"; "other_event"; "access"; "next" |]

let k_other = 0
let k_deliver = 1
let k_send = 2
let k_hop = 3
let k_link = 4
let k_lookup = 5
let k_access = 15
let k_next = 16

let kind_of = function
  | Obs.Event.Msg_deliver _ -> k_deliver
  | Obs.Event.Msg_send _ -> k_send
  | Obs.Event.Net_hop _ -> k_hop
  | Obs.Event.Link_xfer _ -> k_link
  | Obs.Event.Lookup _ -> k_lookup
  | Obs.Event.Req_issue _ -> 6
  | Obs.Event.Req_response _ -> 7
  | Obs.Event.Req_retire _ -> 8
  | Obs.Event.Req_reissue _ -> 9
  | Obs.Event.Mem_hop _ -> 10
  | Obs.Event.Fsm _ -> 11
  | Obs.Event.Persistent _ -> 12
  | Obs.Event.Dir_indirection _ -> 13
  | _ -> 14

type trace = {
  time : int array;
  count : int array;
  mutable cur : int;
  mutable last : int;
  mutable depth : int;
  mutable access_calls : int;
  mutable access_ns : int;
  mutable next_calls : int;
  mutable next_ns : int;
  mutable req_deliveries : int;
  mutable noop_requests : int;
  open_req : Bytes.t;  (** per node: its last delivery was a Request it has not answered *)
  mutable hops : int;
  mutable queue_ns : float;
  mutable link_busy : Sim.Time.t;
}

let trace_create cfg =
  let n = Array.length kind_names in
  let nodes = Interconnect.Layout.node_count (Mcmp.Config.layout cfg) in
  { time = Array.make n 0; count = Array.make n 0; cur = k_other; last = now_ns (); depth = 0;
    access_calls = 0; access_ns = 0; next_calls = 0; next_ns = 0; req_deliveries = 0;
    noop_requests = 0; open_req = Bytes.make nodes '\000'; hops = 0; queue_ns = 0.;
    link_busy = 0 }

let switch tr k =
  let now = now_ns () in
  tr.time.(tr.cur) <- tr.time.(tr.cur) + (now - tr.last);
  tr.cur <- k;
  tr.last <- now

let cut tr k =
  tr.count.(k) <- tr.count.(k) + 1;
  switch tr k

(* A Request delivery is a no-op when its receiver sends nothing before
   its next delivery. Responses leave through engine timers (cache and
   memory latencies), so "before the next delivery" is per receiver. *)
let close_request tr ~node ~useful =
  if Bytes.get tr.open_req node <> '\000' then begin
    Bytes.set tr.open_req node '\000';
    tr.req_deliveries <- tr.req_deliveries + 1;
    if not useful then tr.noop_requests <- tr.noop_requests + 1
  end

let close_requests tr =
  for node = 0 to Bytes.length tr.open_req - 1 do
    close_request tr ~node ~useful:false
  done

let request_cls = Interconnect.Msg_class.to_string Interconnect.Msg_class.Request

let sink tr _time ev =
  cut tr (kind_of ev);
  match ev with
  | Obs.Event.Msg_deliver { dst; cls; _ } ->
    close_request tr ~node:dst ~useful:false;
    if String.equal cls request_cls then Bytes.set tr.open_req dst '\001'
  | Obs.Event.Msg_send { src; _ } -> close_request tr ~node:src ~useful:true
  | Obs.Event.Net_hop { queue_ns; _ } ->
    tr.hops <- tr.hops + 1;
    tr.queue_ns <- tr.queue_ns +. queue_ns
  | Obs.Event.Link_xfer { start; finish; _ } -> tr.link_busy <- tr.link_busy + (finish - start)
  | _ -> ()

(* [timed tr k f] runs [f ()] as a wrapper segment of kind [k] and
   returns its inclusive host time (0 when nested in another wrapper,
   so inclusive totals do not double count). *)
let timed tr k f =
  let prev = tr.cur in
  cut tr k;
  let t0 = tr.last in
  tr.depth <- tr.depth + 1;
  let r = f () in
  tr.depth <- tr.depth - 1;
  switch tr prev;
  (r, if tr.depth = 0 then tr.last - t0 else 0)

let wrap_handle tr (h : Mcmp.Protocol.handle) =
  { h with
    Mcmp.Protocol.access =
      (fun ~proc ~kind addr ~commit ->
        let (), ns = timed tr k_access (fun () -> h.Mcmp.Protocol.access ~proc ~kind addr ~commit) in
        tr.access_calls <- tr.access_calls + 1;
        tr.access_ns <- tr.access_ns + ns) }

let wrap_program tr (p : Workload.Program.t) =
  { Workload.Program.next =
      (fun ~last ->
        let op, ns = timed tr k_next (fun () -> p.Workload.Program.next ~last) in
        tr.next_calls <- tr.next_calls + 1;
        tr.next_ns <- tr.next_ns + ns;
        op) }

(* ------------------------------------------------------------------ *)
(* Simulation passes                                                   *)

type pass = {
  res : Mcmp.Runner.result;
  run_ns : int;  (** builder return to Runner return *)
  minor_words : float;  (** allocated over [run_ns] *)
}

(* One simulation; with [trace], the protocol handle and the programs
   are wrapped and the trace sink attached. *)
let sim_pass ?trace ?(config = machine) (proto : Tokencmp.Protocols.t) ~programs ~seed =
  let built_ns = ref 0 and built_words = ref 0. in
  let builder engine cfg traffic rng counters =
    let h = proto.Tokencmp.Protocols.builder engine cfg traffic rng counters in
    let h =
      match trace with
      | None -> h
      | Some tr ->
        Sim.Engine.set_sink engine (sink tr);
        wrap_handle tr h
    in
    built_words := Gc.minor_words ();
    built_ns := now_ns ();
    (* the ledger covers the run, not the set-up *)
    (match trace with Some tr -> tr.last <- !built_ns | None -> ());
    h
  in
  let programs =
    match trace with
    | None -> programs
    | Some tr -> fun ~proc -> wrap_program tr (programs ~proc)
  in
  let res = Mcmp.Runner.run ~config builder ~programs ~seed in
  let t1 = now_ns () in
  let words = Gc.minor_words () in
  (match trace with
  | Some tr ->
    switch tr k_other;
    close_requests tr
  | None -> ());
  { res; run_ns = t1 - !built_ns; minor_words = words -. !built_words }

let sim w ?trace ~seed () =
  sim_pass ?trace w.proto ~programs:(Workload.Commercial.program w.profile ~seed) ~seed

(* Set-up alone: validation, layout, engine and the builder call, on
   programs that finish at once. *)
let setup_once w =
  let t0 = now_ns () in
  let model = w.model () in
  let module M = (val model : Mc.Explore.MODEL) in
  let module R = Mc.Explore.Make (M) in
  let model_ns = now_ns () - t0 in
  let done_program ~proc:_ = Workload.Program.of_fun (fun ~last:_ -> Workload.Program.Done) in
  let built = ref 0 in
  let builder e c t r k =
    let h = w.proto.Tokencmp.Protocols.builder e c t r k in
    built := now_ns ();
    h
  in
  let t1 = now_ns () in
  ignore (Mcmp.Runner.run ~config:machine builder ~programs:done_program ~seed:1);
  secs (model_ns + (!built - t1))

(* Every simulated statistic the benchmark reports or checks; traced and
   untraced passes, and repeated passes, must agree on all of them. *)
let signature (r : Mcmp.Runner.result) =
  let c = r.Mcmp.Runner.counters in
  let h = c.Mcmp.Counters.miss_histogram in
  [ r.Mcmp.Runner.runtime; r.total_runtime; r.events; r.ops; Bool.to_int r.completed;
    c.Mcmp.Counters.loads; c.stores; c.atomics; c.ifetches; c.l1_hits; c.l1_misses;
    c.l2_local_fills; c.remote_fills; c.mem_fills; c.transient_retries;
    c.persistent_requests; c.persistent_reads; c.writebacks; c.dir_indirections;
    Sim.Stat.Histogram.percentile h 50.; Sim.Stat.Histogram.percentile h 99. ]
  @ Array.to_list c.cause_counts
  @ List.map snd (Interconnect.Traffic.inter_breakdown r.traffic)
  @ List.map snd (Interconnect.Traffic.intra_breakdown r.traffic)

let check_sim (r : Mcmp.Runner.result) =
  let c = r.Mcmp.Runner.counters in
  if not r.Mcmp.Runner.completed then Error "did not complete (event queue drained)"
  else if Array.fold_left ( + ) 0 c.Mcmp.Counters.cause_counts <> c.l1_misses then
    Error "miss-class counts do not sum to L1 misses"
  else if c.l1_misses = 0 || r.ops = 0 then Error "no misses or no committed ops"
  else Ok ()

(* A pass that raises is a classified failure, not a crash. *)
let guarded f =
  try f () with
  | Mcmp.Violation.Invariant_violation v ->
    Error ("invariant violation: " ^ v.Mcmp.Violation.kind ^ ": " ^ v.detail)
  | Failure msg -> Error ("safety valve: " ^ msg)
  | e -> Error ("exception: " ^ Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Model checking                                                       *)

type mc_acc = {
  mutable next_calls : int;
  mutable next_ns : int;
  mutable canon_calls : int;
  mutable canon_ns : int;
  mutable inv_calls : int;
  mutable inv_ns : int;
  mutable goal_calls : int;
  mutable goal_ns : int;
  mutable sample_at : int;  (** [next] call at which to sample the live heap, or -1 *)
  mutable live_words : int;  (** live major-heap words at that call *)
}

let mc_acc () =
  { next_calls = 0; next_ns = 0; canon_calls = 0; canon_ns = 0; inv_calls = 0; inv_ns = 0;
    goal_calls = 0; goal_ns = 0; sample_at = -1; live_words = 0 }

(* Timing wrapper passed to [Mc.Explore.Make] in place of the model. *)
module Timed
    (M : Mc.Explore.MODEL)
    (A : sig
      val acc : mc_acc
    end) : Mc.Explore.MODEL with type state = M.state = struct
  include M

  let a = A.acc

  let next s =
    let t0 = now_ns () in
    let r = M.next s in
    a.next_ns <- a.next_ns + (now_ns () - t0);
    a.next_calls <- a.next_calls + 1;
    if a.next_calls = a.sample_at then a.live_words <- (Gc.stat ()).Gc.live_words;
    r

  let canonicalize s =
    let t0 = now_ns () in
    let r = M.canonicalize s in
    a.canon_ns <- a.canon_ns + (now_ns () - t0);
    a.canon_calls <- a.canon_calls + 1;
    r

  let invariant s =
    let t0 = now_ns () in
    let r = M.invariant s in
    a.inv_ns <- a.inv_ns + (now_ns () - t0);
    a.inv_calls <- a.inv_calls + 1;
    r

  let goal s =
    let t0 = now_ns () in
    let r = M.goal s in
    a.goal_ns <- a.goal_ns + (now_ns () - t0);
    a.goal_calls <- a.goal_calls + 1;
    r
end

let explore (module M : Mc.Explore.MODEL) ~max_states =
  let module R = Mc.Explore.Make (M) in
  R.run ~max_states ~store:Mc.Explore.Compact ~jobs:1 ~sym:true ()

let explore_timed model acc ~max_states =
  let module M = (val model : Mc.Explore.MODEL) in
  let module W =
    Timed
      (M)
      (struct
        let acc = acc
      end)
  in
  explore (module W) ~max_states

type mc_pass = { stats : Mc.Explore.stats; mc_ns : int; mc_words : float; live0 : int }

let mc_pass ?acc w =
  let model = w.model () in
  let live0 = match acc with Some a when a.sample_at >= 0 -> (Gc.stat ()).Gc.live_words | _ -> 0 in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let stats =
    match acc with
    | None -> explore model ~max_states:w.max_states
    | Some acc -> explore_timed model acc ~max_states:w.max_states
  in
  let t1 = now_ns () in
  { stats; mc_ns = t1 - t0; mc_words = Gc.minor_words () -. w0; live0 }

let mc_signature (s : Mc.Explore.stats) =
  ( s.Mc.Explore.states, s.transitions, s.diameter, s.goals, s.doomed, s.truncated,
    Option.map fst s.violation )

let check_mc (s : Mc.Explore.stats) =
  match s.Mc.Explore.violation with
  | Some (reason, _) -> Error ("violation: " ^ reason)
  | None ->
    if (not s.truncated) && s.doomed > 0 then Error (Printf.sprintf "%d doomed states" s.doomed)
    else if s.states = 0 then Error "no states"
    else Ok ()

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable metrics : (string * float * string) list;  (** reversed *)
}

let outcome () = { attempted = 0; failed = 0; errors = []; metrics = [] }
let metric o name unit v = o.metrics <- (name, v, unit) :: o.metrics

let fail o what msg =
  o.failed <- o.failed + 1;
  o.errors <- (what ^ ": " ^ msg) :: o.errors

(* Run [f] (one attempt) and keep its value when it passes [check]. *)
let attempt o what f check =
  o.attempted <- o.attempted + 1;
  match guarded (fun () -> Ok (f ())) with
  | Error msg ->
    fail o what msg;
    None
  | Ok v -> (
    match check v with
    | Ok () -> Some v
    | Error msg ->
      fail o what msg;
      None)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result o =
  let ms = List.rev o.metrics in
  print_endline "metrics:";
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %18.6g %s\n" n v u) ms;
  List.iter (fun e -> Printf.printf "FAILED %s\n" e) (List.rev o.errors);
  let correct = o.failed = 0 && List.for_all (fun (_, v, _) -> Float.is_finite v) ms in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 o.attempted) o.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
          ms));
  correct

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Repeat [f] until [budget_ns] is spent: at least [min_reps] times, and
   no rep is started that would likely end past the budget. *)
let repeat ~budget_ns ~min_reps f =
  let t0 = now_ns () in
  let rec go n last acc =
    let elapsed = now_ns () - t0 in
    if n >= min_reps && elapsed + last > budget_ns then List.rev acc
    else
      let s = now_ns () in
      let v = f n in
      go (n + 1) (now_ns () - s) (v :: acc)
  in
  go 0 0 []

let print_base w ~seed ~events_per_miss ~deliveries_per_miss ~words_per_event
    ~transitions_per_state =
  let b = w.base in
  let row name base now =
    if Float.is_finite now then
      Printf.printf "  %-32s base %10.4g  now %10.4g%s\n" name base now
        (if seed = 1 then Printf.sprintf "  (x%.4f)" (now /. base) else "")
    else Printf.printf "  %-32s base %10.4g\n" name base
  in
  Printf.printf "seed-commit counts (seed 1; ratios shown when --seed 1):\n";
  row "sim.events_per_miss" b.b_events_per_miss events_per_miss;
  row "interconnect.deliveries_per_miss" b.b_deliveries_per_miss deliveries_per_miss;
  row "sim.minor_words_per_event" b.b_words_per_event words_per_event;
  row "mc.transitions_per_state" b.b_transitions_per_state transitions_per_state

(* ------------------------------------------------------------------ *)
(* The two run modes                                                    *)

(* Run [f] while a child process spins on another CPU. On a shared
   2-vCPU VM an idle second vCPU leaves its core to other tenants, whose
   cache and memory traffic changes this process's speed from one minute
   to the next; a constant sibling load of our own is steadier (across
   runs, the spread of the host metrics roughly halved in paired trials).
   The spinner touches no memory. It is skipped on a single CPU. *)
let with_occupier f =
  if Domain.recommended_domain_count () < 2 then f ()
  else begin
    flush_all ();
    let parent = Unix.getpid () in
    match Unix.fork () with
    | 0 ->
      (* spin until killed, or until the parent is gone *)
      let x = ref 1 in
      while Unix.getppid () = parent do
        for _ = 1 to 1 lsl 22 do
          x := Sys.opaque_identity ((!x * 31) + 1)
        done
      done;
      Unix._exit 0
    | pid ->
      Fun.protect f ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
  end

(* ------------------------------------------------------------------ *)
(* Host-speed reference                                                 *)

(* On a shared VM the host's speed for memory-bound and allocating code
   drifts by tens of percent over minutes (and by 2x over an hour),
   while a CPU-only loop stays within a few percent. So the untraced run
   times a fixed reference kernel between its measured parts and scales
   each part's host time by [reference_s] over the mean of the kernel
   times just before and after it: the host-time end-to-end metrics are
   in seconds of a host on which the kernel takes [reference_s]. The
   kernel uses the standard library alone, so no change to the program
   moves it. Its three parts mirror what the measured code does: random
   reads and writes over 16 MB outside the OCaml heap, fresh blocks
   stored into a long-lived array (promotion and major-GC work), and
   short-lived allocation. Its memory is allocated once, at start-up;
   only the 3 MB ring is on the OCaml heap. *)
let reference_s = 0.15

let ref_table =
  let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 21) in
  Bigarray.Array1.fill t 0;
  t

let ref_ring = Array.make 100_000 (0, 0)

let reference_kernel () =
  let t0 = now_ns () in
  let lcg x = (x * 25214903917) + 11 in
  let mask = Bigarray.Array1.dim ref_table - 1 in
  let x = ref 1 and acc = ref 0 in
  for _ = 1 to 1_500_000 do
    x := lcg !x;
    let i = (!x lsr 30) land mask in
    let v = Bigarray.Array1.unsafe_get ref_table i in
    Bigarray.Array1.unsafe_set ref_table i (v + 1);
    acc := !acc + v
  done;
  let n = Array.length ref_ring in
  for i = 1 to 400_000 do
    x := lcg !x;
    ref_ring.((!x lsr 30) mod n) <- (i, !acc)
  done;
  for i = 1 to 250_000 do
    let l = List.init 20 (fun j -> (i, j)) in
    acc := !acc + List.length (List.rev l)
  done;
  ignore (Sys.opaque_identity !acc);
  secs (now_ns () - t0)

(* Host seconds of a part timed between two kernel runs, scaled to the
   reference host. *)
let scaled ~before ~after s = s *. reference_s /. ((before +. after) /. 2.)

(* Set-ups taken in each repetition of an untraced run. *)
let setups_per_rep = 3

(* An untraced run cycles its simulation passes through this many
   workload seeds derived from [--seed], the first being [--seed]
   itself. At the same event count, host throughput differs by up to
   ~20% from one workload seed to another (token: 6.4-7.8 kops/s over
   seeds 1-10, events per op within 2%), so a run that measured one
   seed would carry that into the run-to-run spread. *)
let sub_seeds = 6

let sub_seed ~seed j = seed + (j * 1_000_003)

(* End-to-end run, untraced. Set-ups, simulation passes and checker runs
   alternate until the time is spent, so all three sample the same
   stretch of host conditions, with a reference kernel run between each
   part and the next (see [reference_kernel]). Each host time is scaled
   by the kernel runs around it, and the run reports the median scaled
   throughput of its passes and checker runs and the median scaled
   set-up. The repeats must reproduce every
   simulated statistic and every checker count exactly. The growth of
   the peak heap is charged to the part that was running, to show which
   part sets [peak_mem_mb]. *)
let run_untraced w ~seed ~seconds =
  let o = outcome () in
  let grown = Array.make 3 0. and top = ref (heap_mb ()) in
  let charge part =
    let now = heap_mb () in
    grown.(part) <- grown.(part) +. (now -. !top);
    top := now
  in
  (* the first kernel run pays for cold caches and is dropped *)
  ignore (reference_kernel ());
  let kernels = ref [ reference_kernel () ] in
  (* [f ()] and the scaling given by the kernel runs around it *)
  let bracketed f =
    let before = List.hd !kernels in
    Gc.full_major ();
    let v = f () in
    let after = reference_kernel () in
    kernels := after :: !kernels;
    (v, scaled ~before ~after)
  in
  let reps =
    repeat ~budget_ns:(int_of_float (seconds *. 1e9)) ~min_reps:sub_seeds (fun n ->
        let s, s_scale =
          bracketed (fun () ->
              List.init setups_per_rep (fun _ ->
                  Gc.full_major ();
                  attempt o "setup" (fun () -> setup_once w) (fun _ -> Ok ())))
        in
        charge 0;
        let j = n mod sub_seeds in
        let p, p_scale =
          bracketed (fun () ->
              attempt o "sim" (sim w ~seed:(sub_seed ~seed j)) (fun p -> check_sim p.res))
        in
        charge 1;
        let m, m_scale =
          bracketed (fun () -> attempt o "mc" (fun () -> mc_pass w) (fun m -> check_mc m.stats))
        in
        charge 2;
        ( List.filter_map (fun x -> Option.map (fun t -> (t, s_scale t)) x) s,
          Option.map (fun p -> (j, p, p_scale (secs p.run_ns))) p,
          Option.map (fun m -> (m, m_scale (secs m.mc_ns))) m ))
  in
  let setups = List.concat_map (fun (s, _, _) -> s) reps in
  let timed_passes = List.filter_map (fun (_, p, _) -> p) reps
  and timed_mcs = List.filter_map (fun (_, _, m) -> m) reps in
  let mcs = List.map fst timed_mcs in
  (* each seed's passes, in order *)
  let by_seed =
    List.init sub_seeds (fun j ->
        List.filter_map (fun (i, p, _) -> if i = j then Some p else None) timed_passes)
  in
  let firsts = List.filter_map (function p :: _ -> Some p | [] -> None) by_seed in
  let same what sig_of msg = function
    | x0 :: rest ->
      if List.exists (fun x -> sig_of x <> sig_of x0) rest then fail o what msg
    | [] -> ()
  in
  List.iter
    (same "sim" (fun p -> signature p.res) "repeated pass changed the simulated statistics")
    by_seed;
  same "mc" (fun m -> mc_signature m.stats)
    "transition count changed between runs at the same budget" mcs;
  let ops_rate p t = float_of_int p.res.Mcmp.Runner.ops /. t in
  let state_rate m t = float_of_int m.stats.Mc.Explore.states /. t in
  metric o "ops_per_s" "1/s" (median (List.map (fun (_, p, t) -> ops_rate p t) timed_passes));
  metric o "states_per_s" "1/s" (median (List.map (fun (m, t) -> state_rate m t) timed_mcs));
  metric o "setup_s" "s" (median (List.map snd setups));
  metric o "peak_mem_mb" "MB" (heap_mb ());
  (* the simulated metrics are means over the workload seeds *)
  let mean f =
    if List.length firsts < sub_seeds then nan
    else List.fold_left (fun a p -> a +. f p.res) 0. firsts /. float_of_int sub_seeds
  in
  metric o "sim_runtime_us" "us"
    (mean (fun r -> Sim.Time.to_ns r.Mcmp.Runner.runtime /. 1000.));
  metric o "inter_bytes_per_op" "B/op"
    (mean (fun r -> ratio (Interconnect.Traffic.inter_total r.Mcmp.Runner.traffic) r.ops));
  let row name f xs =
    Printf.printf "  %-24s %s\n" name (String.concat " " (List.map f xs))
  in
  Printf.printf "workload %s, seed %d\n" w.name seed;
  row "reference kernel (s)" (Printf.sprintf "%.3f") (List.rev !kernels);
  row "sim passes (ops/s)"
    (fun (_, p, _) -> Printf.sprintf "%.0f" (ops_rate p (secs p.run_ns)))
    timed_passes;
  row "  scaled" (fun (_, p, t) -> Printf.sprintf "%.0f" (ops_rate p t)) timed_passes;
  row "checker runs (states/s)" (fun m -> Printf.sprintf "%.0f" (state_rate m (secs m.mc_ns))) mcs;
  row "  scaled" (fun (m, t) -> Printf.sprintf "%.0f" (state_rate m t)) timed_mcs;
  row "setups (s)" (fun (t, _) -> Printf.sprintf "%.4f" t) setups;
  row "  scaled" (fun (_, t) -> Printf.sprintf "%.4f" t) setups;
  Printf.printf "  peak heap grew (MB) in    set-ups %.1f, sim passes %.1f, checker runs %.1f\n"
    grown.(0) grown.(1) grown.(2);
  Printf.printf "  failed_frac %.4g (failed/attempted)\n" (ratio o.failed (max 1 o.attempted));
  (match (by_seed, mcs) with
  | (p :: _ as own) :: _, m :: _ ->
    let r = p.res in
    print_base w ~seed
      ~events_per_miss:(ratio r.Mcmp.Runner.events r.counters.Mcmp.Counters.l1_misses)
      ~deliveries_per_miss:nan
      ~words_per_event:(median (List.map (fun p -> p.minor_words /. float_of_int r.events) own))
      ~transitions_per_state:(ratio m.stats.Mc.Explore.transitions m.stats.states)
  | _ -> ());
  o

(* Traced run: untraced and traced passes alternate; the traced ones
   must reproduce the untraced simulated statistics and checker stats
   exactly. Reports the per-layer metrics. *)
let run_traced w ~seed ~seconds =
  let o = outcome () in
  let sim_pair () =
    Gc.full_major ();
    let plain = attempt o "sim" (sim w ~seed) (fun p -> check_sim p.res) in
    let tr = trace_create machine in
    let traced =
      attempt o "sim traced" (sim w ~trace:tr ~seed) (fun p -> check_sim p.res)
    in
    match (plain, traced) with
    | Some p, Some t ->
      if signature p.res <> signature t.res then begin
        fail o "sim traced" "traced pass changed the simulated statistics";
        None
      end
      else Some (p, t, tr)
    | _ -> None
  in
  let mc_pair () =
    Gc.full_major ();
    let plain = attempt o "mc" (fun () -> mc_pass w) (fun m -> check_mc m.stats) in
    let acc = mc_acc () in
    let timed = attempt o "mc traced" (fun () -> mc_pass ~acc w) (fun m -> check_mc m.stats) in
    match (plain, timed) with
    | Some p, Some t ->
      if mc_signature p.stats <> mc_signature t.stats then begin
        fail o "mc traced" "timing wrapper changed the checker stats";
        None
      end
      else Some (p, t, acc)
    | _ -> None
  in
  let reps =
    repeat ~budget_ns:(int_of_float (seconds *. 1e9)) ~min_reps:1 (fun _ ->
        let s = sim_pair () in
        (s, mc_pair ()))
  in
  let pairs = List.filter_map fst reps and mcs = List.filter_map snd reps in
  (* Live heap near the end of the search, from a separate untimed
     run: the sample forces a full major collection. *)
  let mem = mc_acc () in
  mem.sample_at <- w.max_states - (w.max_states / 16);
  let mem_run = attempt o "mc memory" (fun () -> mc_pass ~acc:mem w) (fun m -> check_mc m.stats) in
  let n = float_of_int (max 1 (List.length pairs)) in
  let mean f = List.fold_left (fun a x -> a +. f x) 0. pairs /. n in
  let mean_kind k = mean (fun (_, _, tr) -> secs tr.time.(k)) in
  (match pairs with
  | (p, t_pass, tr) :: _ ->
    let r = p.res in
    let c = r.Mcmp.Runner.counters in
    let misses = c.Mcmp.Counters.l1_misses in
    let deliveries = tr.count.(k_deliver) in
    let h = c.miss_histogram in
    let nlinks = machine.Mcmp.Config.ncmp * (machine.ncmp - 1) in
    metric o "sim.events" "count" (float_of_int r.events);
    metric o "sim.events_per_miss" "events/miss" (ratio r.events misses);
    metric o "sim.host_ns_per_event" "ns"
      (median (List.map (fun (p, _, _) -> float_of_int p.run_ns /. float_of_int r.events) pairs));
    metric o "sim.minor_words_per_event" "words"
      (median (List.map (fun (p, _, _) -> p.minor_words /. float_of_int r.events) pairs));
    metric o "interconnect.deliveries" "count" (float_of_int deliveries);
    metric o "interconnect.deliveries_per_miss" "msgs/miss" (ratio deliveries misses);
    metric o "interconnect.noop_request_frac" "ratio" (ratio tr.noop_requests tr.req_deliveries);
    metric o "interconnect.port_backlog_ns" "ns"
      (if tr.hops = 0 then 0. else tr.queue_ns /. float_of_int tr.hops);
    metric o "interconnect.link_utilization" "ratio"
      (Sim.Time.to_ns tr.link_busy
      /. (Sim.Time.to_ns r.total_runtime *. float_of_int (max 1 nlinks)));
    metric o "interconnect.send_s" "s" (mean_kind k_send +. mean_kind k_hop +. mean_kind k_link);
    metric o "proto.access_calls" "count" (float_of_int tr.access_calls);
    metric o "proto.access_s" "s" (mean (fun (_, _, tr) -> secs tr.access_ns));
    metric o "proto.handler_s" "s" (mean_kind k_deliver);
    metric o "proto.miss_latency_p50_ns" "ns"
      (float_of_int (Sim.Stat.Histogram.percentile h 50.));
    metric o "proto.miss_latency_p99_ns" "ns"
      (float_of_int (Sim.Stat.Histogram.percentile h 99.));
    metric o "proto.persistent_frac" "ratio" (Mcmp.Counters.persistent_fraction c);
    metric o "proto.retries_per_miss" "retries/miss" (ratio c.transient_retries misses);
    metric o "proto.indirections_per_miss" "ratio" (ratio c.dir_indirections misses);
    metric o "cache.lookups" "count" (float_of_int tr.count.(k_lookup));
    metric o "cache.l1_hit_ratio" "ratio" (ratio c.l1_hits (c.l1_hits + misses));
    metric o "cache.lookup_s" "s" (mean_kind k_lookup);
    metric o "workload.next_calls" "count" (float_of_int tr.next_calls);
    metric o "workload.next_s" "s" (mean (fun (_, _, tr) -> secs tr.next_ns));
    metric o "obs.trace_overhead_x" "x"
      (median (List.map (fun (p, t, _) -> float_of_int t.run_ns /. float_of_int p.run_ns) pairs));
    Printf.printf "workload %s, seed %d: %d untraced+traced sim pairs\n" w.name seed
      (List.length pairs);
    Printf.printf "host-time ledger of the traced simulation (mean over traced passes):\n";
    let total = Array.fold_left ( + ) 0 tr.time in
    Printf.printf "  (ledger total %.4f s; traced pass %.4f s)\n" (secs total) (secs t_pass.run_ns);
    Array.iteri
      (fun k name ->
        let t = mean_kind k in
        if tr.count.(k) > 0 || t > 0. then
          Printf.printf "  %-16s %12d calls %10.4f s %6.1f%%\n" name tr.count.(k) t
            (100. *. float_of_int tr.time.(k) /. float_of_int (max 1 total)))
      kind_names
  | [] -> ());
  (match mcs with
  | (p, t, acc) :: _ ->
    let m = float_of_int (List.length mcs) in
    let mc_mean f = List.fold_left (fun a x -> a +. f x) 0. mcs /. m in
    let s = t.stats in
    let states = s.Mc.Explore.states in
    let model_ns a = a.next_ns + a.canon_ns + a.inv_ns + a.goal_ns in
    metric o "mc.next_calls" "count" (float_of_int acc.next_calls);
    metric o "mc.next_s" "s" (mc_mean (fun (_, _, a) -> secs a.next_ns));
    metric o "mc.canonicalize_s" "s" (mc_mean (fun (_, _, a) -> secs a.canon_ns));
    metric o "mc.invariant_s" "s" (mc_mean (fun (_, _, a) -> secs a.inv_ns));
    metric o "mc.goal_s" "s" (mc_mean (fun (_, _, a) -> secs a.goal_ns));
    metric o "mc.explore_self_s" "s" (mc_mean (fun (_, t, a) -> secs (t.mc_ns - model_ns a)));
    metric o "mc.transitions_per_state" "ratio" (ratio s.transitions states);
    metric o "mc.new_state_frac" "ratio" (ratio states (max 1 s.transitions));
    metric o "mc.bytes_per_state" "B"
      (match mem_run with
      | Some m when mem.live_words > 0 ->
        float_of_int ((mem.live_words - m.live0) * (Sys.word_size / 8)) /. float_of_int states
      | _ -> nan);
    metric o "mc.minor_words_per_state" "words" (p.mc_words /. float_of_int states);
    Printf.printf "checker: %d states, %d transitions, %.3f s untraced, %.3f s traced\n" states
      s.transitions (secs p.mc_ns) (secs t.mc_ns);
    Printf.printf "host time of the timed checker run (mean over runs):\n";
    List.iter
      (fun (name, calls, f) ->
        Printf.printf "  %-16s %12d calls %10.4f s\n" name calls (mc_mean (fun x -> secs (f x))))
      [ ("next", acc.next_calls, fun (_, _, a) -> a.next_ns);
        ("canonicalize", acc.canon_calls, fun (_, _, a) -> a.canon_ns);
        ("invariant", acc.inv_calls, fun (_, _, a) -> a.inv_ns);
        ("goal", acc.goal_calls, fun (_, _, a) -> a.goal_ns);
        ("explorer self", 0, fun (_, t, a) -> t.mc_ns - model_ns a);
        ("whole run", 1, fun (_, t, _) -> t.mc_ns) ]
  | [] -> ());
  (match (pairs, mcs) with
  | (p, _, tr) :: _, (_, t, _) :: _ ->
    let r = p.res in
    let misses = r.Mcmp.Runner.counters.Mcmp.Counters.l1_misses in
    print_base w ~seed ~events_per_miss:(ratio r.events misses)
      ~deliveries_per_miss:(ratio tr.count.(k_deliver) misses)
      ~words_per_event:(p.minor_words /. float_of_int r.events)
      ~transitions_per_state:(ratio t.stats.Mc.Explore.transitions t.stats.states)
  | _ -> ());
  o

(* ------------------------------------------------------------------ *)
(* Self-test: the wrappers and the sink change nothing they observe     *)

let selftest () =
  let ok = ref true in
  let check name b =
    Printf.printf "%-60s %s\n%!" name (if b then "ok" else "FAILED");
    if not b then ok := false
  in
  let small = oltp ~warmup_ops:50 ~ops:100 in
  List.iter
    (fun proto ->
      let run ?trace () =
        (sim_pass ?trace ~config:Mcmp.Config.tiny proto
           ~programs:(Workload.Commercial.program small ~seed:3) ~seed:3)
          .res
      in
      let plain = run () in
      let tr = trace_create Mcmp.Config.tiny in
      let traced = run ~trace:tr () in
      check
        (Printf.sprintf "%s: traced sim reproduces runtime/events/ops/traffic"
           proto.Tokencmp.Protocols.name)
        (signature plain = signature traced && check_sim plain = Ok ());
      check
        (Printf.sprintf "%s: wrappers saw every access and op" proto.Tokencmp.Protocols.name)
        (tr.access_calls > 0 && tr.next_calls >= plain.Mcmp.Runner.ops
        && tr.count.(k_deliver) > 0))
    [ Tokencmp.Protocols.token Token.Policy.dst1; Tokencmp.Protocols.directory ];
  let tp = Mc.Token_model.default_params in
  List.iter
    (fun (name, model, max_states) ->
      let direct = explore model ~max_states in
      let acc = mc_acc () in
      let wrapped = explore_timed model acc ~max_states in
      check
        (Printf.sprintf "%s: wrapped MODEL stats = direct Explore.Make" name)
        (mc_signature direct = mc_signature wrapped && acc.next_calls > 0))
    [
      ("TokenCMP-dst 2c (closed)", Mc.Token_model.distributed tp, 1_000_000);
      ( "TokenCMP-dst 3c (budget)",
        Mc.Token_model.distributed { tp with Mc.Token_model.caches = 3; tokens = 4 },
        20_000 );
      ( "Flat Directory 3c (budget)",
        Mc.Dir_model.flat { Mc.Dir_model.default_params with Mc.Dir_model.caches = 3; net_cap = 3 },
        20_000 );
    ];
  !ok

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe run --workload NAME --seed N --seconds S --trace 0|1\n\
    \       bench.exe selftest";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "selftest" :: _ -> exit (if selftest () then 0 else 1)
  | _ :: "run" :: args ->
    let rec opts acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let o = opts [] args in
    let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
    let w =
      match List.find_opt (fun w -> w.name = get "workload") workloads with
      | Some w -> w
      | None ->
        Printf.eprintf "unknown workload %s (known: %s)\n" (get "workload")
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
    in
    let seed = int_of_string (get "seed") and seconds = float_of_string (get "seconds") in
    let outcome =
      match get "trace" with
      | "0" -> with_occupier (fun () -> run_untraced w ~seed ~seconds)
      | "1" -> with_occupier (fun () -> run_traced w ~seed ~seconds)
      | _ -> usage ()
    in
    exit (if print_result outcome then 0 else 1)
  | _ -> usage ()
