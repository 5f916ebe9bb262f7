type run = {
  protocol : string;
  runtime_ns : Sim.Stat.Summary.t;
  persistent_fraction : float;
  retries_per_miss : float;
  miss_latency_ns : float;
  inter_bytes : (Interconnect.Msg_class.t * float) list;
  intra_bytes : (Interconnect.Msg_class.t * float) list;
  completed : bool;
  metrics : Json.t;
}

let default_seeds = [ 1; 2; 3 ]

let mean_breakdown per_seed =
  let n = float_of_int (List.length per_seed) in
  List.map
    (fun cls ->
      let total =
        List.fold_left
          (fun acc breakdown -> acc + List.assoc cls breakdown)
          0 per_seed
      in
      (cls, float_of_int total /. n))
    Interconnect.Msg_class.all

(* Merge every seed's counters and traffic into fresh accumulators and
   snapshot them through a registry: the same rendering path the live
   (per-engine) registries use, so BENCH metrics and torture evidence
   share one schema. *)
let merged_metrics results =
  let counters = Mcmp.Counters.create () in
  let traffic = Interconnect.Traffic.create () in
  List.iter
    (fun r ->
      Mcmp.Counters.merge ~into:counters r.Mcmp.Runner.counters;
      Interconnect.Traffic.merge ~into:traffic r.Mcmp.Runner.traffic)
    results;
  let registry = Obs.Registry.create () in
  Mcmp.Counters.register registry counters;
  Interconnect.Traffic.register registry traffic;
  Obs.Registry.snapshot registry

let summarize protocol results =
  let runtimes = List.map (fun r -> Sim.Time.to_ns r.Mcmp.Runner.runtime) results in
  let n = float_of_int (List.length results) in
  let favg f = List.fold_left (fun acc r -> acc +. f r) 0. results /. n in
  {
    protocol;
    runtime_ns = Sim.Stat.Summary.of_list runtimes;
    persistent_fraction =
      favg (fun r -> Mcmp.Counters.persistent_fraction r.Mcmp.Runner.counters);
    retries_per_miss =
      favg (fun r ->
          let c = r.Mcmp.Runner.counters in
          if c.Mcmp.Counters.l1_misses = 0 then 0.
          else
            float_of_int c.Mcmp.Counters.transient_retries
            /. float_of_int c.Mcmp.Counters.l1_misses);
    miss_latency_ns =
      favg (fun r -> Sim.Stat.Welford.mean r.Mcmp.Runner.counters.Mcmp.Counters.miss_latency);
    inter_bytes =
      mean_breakdown
        (List.map (fun r -> Interconnect.Traffic.inter_breakdown r.Mcmp.Runner.traffic) results);
    intra_bytes =
      mean_breakdown
        (List.map (fun r -> Interconnect.Traffic.intra_breakdown r.Mcmp.Runner.traffic) results);
    completed = List.for_all (fun r -> r.Mcmp.Runner.completed) results;
    metrics = merged_metrics results;
  }

(* [chunks n xs] splits [xs] into consecutive groups of [n],
   preserving order: how flattened parallel job results are regrouped
   into the per-protocol (and per-lock-count) lists the serial code
   produced. *)
let rec chunks n = function
  | [] -> []
  | xs ->
    let rec take k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let group, rest = take n [] xs in
    group :: chunks n rest

(* Every (protocol, seed) simulation is independent: fan them out over
   the pool, then regroup in submission order so the result is
   structurally identical to the serial nested loops. *)
let run_protocols ~jobs ~config ~seeds ~protocols ~programs =
  let tasks =
    List.concat_map (fun p -> List.map (fun seed -> (p, seed)) seeds) protocols
  in
  let results =
    Par.Pool.map ~jobs
      ~label:(fun _ (p, seed) -> Printf.sprintf "%s seed=%d" p.Protocols.name seed)
      (fun (p, seed) ->
        Mcmp.Runner.run ~config p.Protocols.builder ~programs:(programs ~seed) ~seed)
      tasks
  in
  List.map2
    (fun p rs -> summarize p.Protocols.name rs)
    protocols
    (chunks (List.length seeds) results)

let locking_workload ~nlocks ~acquires ~lock_stride =
  { (Workload.Locking.default ~nlocks) with Workload.Locking.acquires; lock_stride }

let locking ?(jobs = 1) ?(config = Mcmp.Config.default) ?(seeds = default_seeds)
    ?(acquires = 60) ?(lock_stride = 1) ~protocols ~nlocks () =
  let wl = locking_workload ~nlocks ~acquires ~lock_stride in
  let nprocs = Mcmp.Config.nprocs config in
  let programs ~seed = Workload.Locking.programs wl ~seed ~nprocs in
  run_protocols ~jobs ~config ~seeds ~protocols ~programs

let locking_sweep ?(jobs = 1) ?(config = Mcmp.Config.default) ?(seeds = default_seeds)
    ?(acquires = 60) ?(locks = [ 2; 4; 8; 16; 32; 64; 128; 256; 512 ]) ~protocols () =
  (* Flatten the full (nlocks x protocol x seed) cross product so one
     pool keeps every worker busy across the whole sweep. *)
  let nprocs = Mcmp.Config.nprocs config in
  let tasks =
    List.concat_map
      (fun nlocks ->
        List.concat_map
          (fun p -> List.map (fun seed -> (nlocks, p, seed)) seeds)
          protocols)
      locks
  in
  let results =
    Par.Pool.map ~jobs
      ~label:(fun _ (nlocks, p, seed) ->
        Printf.sprintf "locking nlocks=%d %s seed=%d" nlocks p.Protocols.name seed)
      (fun (nlocks, p, seed) ->
        let wl = locking_workload ~nlocks ~acquires ~lock_stride:1 in
        Mcmp.Runner.run ~config p.Protocols.builder
          ~programs:(Workload.Locking.programs wl ~seed ~nprocs)
          ~seed)
      tasks
  in
  let nseeds = List.length seeds in
  List.map2
    (fun nlocks per_lock ->
      ( nlocks,
        List.map2
          (fun p rs -> summarize p.Protocols.name rs)
          protocols (chunks nseeds per_lock) ))
    locks
    (chunks (nseeds * List.length protocols) results)

let barrier ?(jobs = 1) ?(config = Mcmp.Config.default) ?(seeds = default_seeds)
    ?(episodes = 30) ~variability ~protocols () =
  let nprocs = Mcmp.Config.nprocs config in
  let wl =
    { (Workload.Barrier.default ~nprocs) with
      Workload.Barrier.episodes;
      work_variability = variability }
  in
  let programs ~seed ~proc = Workload.Barrier.program wl ~seed ~proc in
  run_protocols ~jobs ~config ~seeds ~protocols ~programs:(fun ~seed -> programs ~seed)

let commercial ?(jobs = 1) ?(config = Mcmp.Config.default) ?(seeds = default_seeds) ?ops
    ~profile ~protocols () =
  let profile =
    match ops with Some ops -> { profile with Workload.Commercial.ops } | None -> profile
  in
  let programs ~seed ~proc = Workload.Commercial.program profile ~seed ~proc in
  run_protocols ~jobs ~config ~seeds ~protocols ~programs:(fun ~seed -> programs ~seed)

type mc_row = {
  model : string;
  stats : Mc.Explore.stats;
  loc : int;
  host_s : float;
  minor_words_per_state : float option;
}

(* One checker run, its host wall-clock seconds and, when it runs on
   this domain alone, the minor-heap words it allocated per state. *)
let timed_check ~max_states ~store ~jobs ~sym model m loc =
  let module M = (val m : Mc.Explore.MODEL) in
  let module R = Mc.Explore.Make (M) in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let stats = R.run ~max_states ~store ~jobs ~sym () in
  let host_s = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let minor_words_per_state =
    if jobs > 1 then None else Some (words /. float_of_int (max 1 stats.Mc.Explore.states))
  in
  { model; stats; loc; host_s; minor_words_per_state }

let model_checking ?(max_states = 4_000_000) ?(store = Mc.Explore.Exact) ?(jobs = 1)
    ?(sym = true) () =
  let check = timed_check ~max_states ~store ~jobs ~sym in
  let tp = Mc.Token_model.default_params in
  let dp = Mc.Dir_model.default_params in
  let dp3 = { dp with Mc.Dir_model.caches = 3 } in
  let rp = Mc.Recovery_model.default_params in
  let token_loc = Mc.Dir_model.model_loc `Token in
  let dir_loc = Mc.Dir_model.model_loc `Directory in
  let rec_loc = Mc.Dir_model.model_loc `Recovery in
  [
    check "TokenCMP-safety" (Mc.Token_model.safety tp) token_loc;
    check "TokenCMP-dst" (Mc.Token_model.distributed tp) token_loc;
    check "TokenCMP-arb" (Mc.Token_model.arbiter tp) token_loc;
    check "TokenCMP-recovery" (Mc.Recovery_model.model rp) rec_loc;
    check "Flat Directory (2c)" (Mc.Dir_model.flat dp) dir_loc;
    (* one more cache makes the directory's coupled transient states
       blow past the state budget -- the scaling wall of Section 5 *)
    check "Flat Directory (3c)" (Mc.Dir_model.flat dp3) dir_loc;
  ]

(* The paper's Table 4 comparison — model size and checkability of the
   token substrate vs the flat directory — re-run at the paper's
   configuration (2 caches) and one size above it (3 caches, one more
   token). The 3-cache graphs are orders of magnitude bigger; the
   compacted store is the default here so they close in memory. *)
let table4 ?(max_states = 200_000_000) ?(store = Mc.Explore.Compact) ?(jobs = 1) ?(sym = true)
    () =
  let check = timed_check ~max_states ~store ~jobs ~sym in
  let tp = Mc.Token_model.default_params in
  let tp3 = { tp with Mc.Token_model.caches = 3; tokens = 4 } in
  (* both directory rows run at net_cap 3: the 2-cache directory graph
     is invariant for any cap >= 3 (attained concurrency is 3), and
     pinning the cap is the directory's best shot at closing the
     3-cache graph *)
  let dp = { Mc.Dir_model.default_params with Mc.Dir_model.net_cap = 3 } in
  let dp3 = { dp with Mc.Dir_model.caches = 3 } in
  let token_loc = Mc.Dir_model.model_loc `Token in
  let dir_loc = Mc.Dir_model.model_loc `Directory in
  [
    check "TokenCMP-dst (2c)" (Mc.Token_model.distributed tp) token_loc;
    check "TokenCMP-dst (3c)" (Mc.Token_model.distributed tp3) token_loc;
    check "Flat Directory (2c)" (Mc.Dir_model.flat dp) dir_loc;
    check "Flat Directory (3c)" (Mc.Dir_model.flat dp3) dir_loc;
  ]

let fig2_protocols =
  [
    Protocols.token Token.Policy.arb0;
    Protocols.directory;
    Protocols.directory_zero;
    Protocols.token Token.Policy.dst0;
  ]

let fig3_protocols =
  [
    Protocols.directory;
    Protocols.directory_zero;
    Protocols.token Token.Policy.dst4;
    Protocols.token Token.Policy.dst1;
    Protocols.token Token.Policy.dst1_pred;
  ]

let tab4_protocols =
  [
    Protocols.token Token.Policy.arb0;
    Protocols.token Token.Policy.dst0;
    Protocols.directory;
    Protocols.directory_zero;
    Protocols.token Token.Policy.dst4;
    Protocols.token Token.Policy.dst1;
    Protocols.token Token.Policy.dst1_pred;
    Protocols.token Token.Policy.dst1_filt;
  ]

let fig6_protocols = Protocols.macro

let find runs name =
  match List.find_opt (fun r -> r.protocol = name) runs with
  | Some r -> r
  | None -> invalid_arg ("Experiments.find: no run for " ^ name)

let normalize ~baseline run = run.runtime_ns.Sim.Stat.Summary.mean /. baseline.runtime_ns.Sim.Stat.Summary.mean

let breakdown_to_json breakdown =
  Json.Obj
    (List.map
       (fun (cls, bytes) -> (Interconnect.Msg_class.to_string cls, Json.Float bytes))
       breakdown)

let run_to_json r =
  let s = r.runtime_ns in
  Json.Obj
    [
      ("protocol", Json.String r.protocol);
      ( "runtime_ns",
        Json.Obj
          [
            ("mean", Json.Float s.Sim.Stat.Summary.mean);
            ("ci95", Json.Float s.Sim.Stat.Summary.ci95);
            ("stddev", Json.Float s.Sim.Stat.Summary.stddev);
            ("n", Json.Int s.Sim.Stat.Summary.n);
          ] );
      ("persistent_fraction", Json.Float r.persistent_fraction);
      ("retries_per_miss", Json.Float r.retries_per_miss);
      ("miss_latency_ns", Json.Float r.miss_latency_ns);
      ("inter_bytes", breakdown_to_json r.inter_bytes);
      ("intra_bytes", breakdown_to_json r.intra_bytes);
      ("completed", Json.Bool r.completed);
      ("metrics", r.metrics);
    ]
