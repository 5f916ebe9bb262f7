(* The explicit-state model checker and the Section 5 protocol models. *)

(* A toy counter model for the explorer itself. *)
let counter_model ?(bug_at = 3) ~bound ~bug () : (module Mc.Explore.MODEL) =
  (module struct
    type state = int

    let name = "counter"
    let initial = [ 0 ]

    let next s = if s >= bound then [] else [ (0, s + 1) ] @ if s > 0 then [ (1, s - 1) ] else []
    let label = function 0 -> "inc" | _ -> "dec"

    let invariant s = if bug && s = bug_at then Error "hit the bug" else Ok ()
    let goal s = s = bound
    let pp = Format.pp_print_int
    let canonicalize s = s
    let key = Fingerprint.of_value
  end)

let run ?(max_states = 1_000_000) ?store ?jobs ?sym m () =
  let module M = (val m : Mc.Explore.MODEL) in
  let module R = Mc.Explore.Make (M) in
  R.run ~max_states ?store ?jobs ?sym ()

let test_explorer_counts () =
  let s = run (counter_model ~bound:10 ~bug:false ()) () in
  Alcotest.(check int) "states" 11 s.Mc.Explore.states;
  Alcotest.(check int) "diameter" 10 s.Mc.Explore.diameter;
  Alcotest.(check int) "goal reachable from everywhere" 0 s.Mc.Explore.doomed;
  Alcotest.(check bool) "no violation" true (s.Mc.Explore.violation = None)

let test_explorer_finds_violation () =
  let s = run (counter_model ~bound:10 ~bug:true ()) () in
  match s.Mc.Explore.violation with
  | Some (reason, trace) ->
    Alcotest.(check string) "reason" "hit the bug" reason;
    Alcotest.(check (list string)) "shortest trace" [ "inc"; "inc"; "inc" ] trace
  | None -> Alcotest.fail "violation not found"

let test_explorer_truncation () =
  let s = run (counter_model ~bound:1000 ~bug:false ()) ~max_states:10 () in
  Alcotest.(check bool) "truncated" true s.Mc.Explore.truncated;
  Alcotest.(check int) "states capped" 10 s.Mc.Explore.states

let test_doomed_detection () =
  (* A model with an absorbing non-goal state must report doomed states. *)
  let m : (module Mc.Explore.MODEL) =
    (module struct
      type state = int

      let name = "trap"
      let initial = [ 0 ]

      let next = function
        | 0 -> [ (0, 1); (1, 2) ]
        | _ -> []

      let label = function 0 -> "to-goal" | _ -> "to-trap"

      let invariant _ = Ok ()
      let goal s = s = 1
      let pp = Format.pp_print_int
      let canonicalize s = s
      let key = Fingerprint.of_value
    end)
  in
  let s = run m () in
  Alcotest.(check int) "trap state is doomed" 1 s.Mc.Explore.doomed

let micro = { Mc.Token_model.caches = 2; tokens = 3; max_writes = 1; net_cap = 3 }

let test_token_safety_model () =
  let s = run (Mc.Token_model.safety micro) () in
  Alcotest.(check bool) "states explored" true (s.Mc.Explore.states > 100);
  Alcotest.(check bool) "invariants hold" true (s.Mc.Explore.violation = None);
  Alcotest.(check bool) "not truncated" true (not s.Mc.Explore.truncated)

let test_token_dst_model () =
  let s = run (Mc.Token_model.distributed micro) () in
  Alcotest.(check bool) "invariants hold" true (s.Mc.Explore.violation = None);
  Alcotest.(check bool) "goals reached" true (s.Mc.Explore.goals > 0);
  Alcotest.(check int) "no doomed states (liveness proxy)" 0 s.Mc.Explore.doomed

let test_token_arb_model () =
  (* the arbiter's activate/deactivate broadcasts need one more slot of
     network headroom than the distributed scheme *)
  let s = run (Mc.Token_model.arbiter { micro with Mc.Token_model.net_cap = 4 }) () in
  Alcotest.(check bool) "invariants hold" true (s.Mc.Explore.violation = None);
  Alcotest.(check bool) "goals reached" true (s.Mc.Explore.goals > 0);
  Alcotest.(check int) "no doomed states" 0 s.Mc.Explore.doomed

let dir2 = { Mc.Dir_model.caches = 2; max_writes = 2; net_cap = 4 }

let test_dir_model () =
  let s = run (Mc.Dir_model.flat dir2) () in
  Alcotest.(check bool) "invariants hold" true (s.Mc.Explore.violation = None);
  Alcotest.(check bool) "goals reached" true (s.Mc.Explore.goals > 0);
  Alcotest.(check int) "no doomed states" 0 s.Mc.Explore.doomed

let test_dst_cheaper_than_arb () =
  (* The paper found TokenCMP-dst somewhat more intensive than -arb in
     TLC; in our encoding the arbiter's queue makes it the bigger one.
     Either way both must close their graphs at this scale. *)
  let d = run (Mc.Token_model.distributed micro) () in
  let a = run (Mc.Token_model.arbiter micro) () in
  Alcotest.(check bool) "both finite" true
    ((not d.Mc.Explore.truncated) && not a.Mc.Explore.truncated)

let test_safety_model_smallest () =
  let s = run (Mc.Token_model.safety micro) () in
  let d = run (Mc.Token_model.distributed micro) () in
  Alcotest.(check bool) "safety-only model is the smallest" true
    (s.Mc.Explore.states < d.Mc.Explore.states)

let test_recovery_model () =
  (* The recreation substrate on the tiny config: one lost token, at
     most one epoch bump, spurious recreation allowed. Safety must hold
     on every reachable state and the loss must always be survivable
     (no doomed states = both requests still complete). *)
  let s = run (Mc.Recovery_model.model Mc.Recovery_model.default_params) () in
  (match s.Mc.Explore.violation with
  | None -> ()
  | Some (reason, trace) ->
    Alcotest.failf "violation: %s via %s" reason (String.concat ";" trace));
  Alcotest.(check bool) "states explored" true (s.Mc.Explore.states > 100);
  Alcotest.(check bool) "not truncated" true (not s.Mc.Explore.truncated);
  Alcotest.(check bool) "goals reached" true (s.Mc.Explore.goals > 0);
  Alcotest.(check int) "loss always survivable (no doomed states)" 0 s.Mc.Explore.doomed

let test_model_loc_metric () =
  let t = Mc.Dir_model.model_loc `Token in
  let d = Mc.Dir_model.model_loc `Directory in
  let r = Mc.Dir_model.model_loc `Recovery in
  Alcotest.(check bool) "positive" true (t > 0 && d > 0 && r > 0)

(* ------------------------------------------------------------------ *)
(* Exact-mode pinning: the engine restructure (open-addressing store,
   CSR reverse edges, id-indexed path reconstruction) must not change
   a single number of the historical exact serial semantics. Counts
   pinned from the pre-restructure checker. *)

let check_counts name (exp_states, exp_trans, exp_diam, exp_goals, exp_doomed) s =
  Alcotest.(check int) (name ^ " states") exp_states s.Mc.Explore.states;
  Alcotest.(check int) (name ^ " transitions") exp_trans s.Mc.Explore.transitions;
  Alcotest.(check int) (name ^ " diameter") exp_diam s.Mc.Explore.diameter;
  Alcotest.(check int) (name ^ " goals") exp_goals s.Mc.Explore.goals;
  Alcotest.(check int) (name ^ " doomed") exp_doomed s.Mc.Explore.doomed;
  Alcotest.(check bool) (name ^ " closed") false s.Mc.Explore.truncated;
  Alcotest.(check bool) (name ^ " no violation") true (s.Mc.Explore.violation = None);
  Alcotest.(check (float 0.)) (name ^ " exact has no collision risk") 0.
    s.Mc.Explore.collision_bound

let test_exact_stats_pinned_small () =
  check_counts "tok-safety-micro" (984, 6289, 11, 0, 0) (run (Mc.Token_model.safety micro) ());
  check_counts "dir-2c" (403, 825, 17, 29, 0) (run (Mc.Dir_model.flat dir2) ())

let test_exact_stats_pinned_big () =
  check_counts "tok-dst-micro" (123929, 777046, 24, 45178, 0)
    (run (Mc.Token_model.distributed micro) ());
  check_counts "recovery-default" (133284, 756330, 24, 12646, 0)
    (run (Mc.Recovery_model.model Mc.Recovery_model.default_params) ())

(* ------------------------------------------------------------------ *)
(* Differential suite: on every small config, the compacted store and
   the parallel frontier (and their combination) must report stats
   identical to the exact serial baseline — the model-checking
   analogue of the golden suite. *)

let check_same_stats name (a : Mc.Explore.stats) (b : Mc.Explore.stats) =
  Alcotest.(check int) (name ^ " states") a.states b.states;
  Alcotest.(check int) (name ^ " transitions") a.transitions b.transitions;
  Alcotest.(check int) (name ^ " diameter") a.diameter b.diameter;
  Alcotest.(check int) (name ^ " goals") a.goals b.goals;
  Alcotest.(check int) (name ^ " doomed") a.doomed b.doomed;
  Alcotest.(check bool) (name ^ " truncated") a.truncated b.truncated;
  Alcotest.(check bool) (name ^ " violation") true (a.violation = b.violation);
  Alcotest.(check bool) (name ^ " violation state") true
    (a.violation_state = b.violation_state);
  Alcotest.(check bool) (name ^ " doomed example") true (a.doomed_example = b.doomed_example)

let differential name m =
  let base = run m ~store:Mc.Explore.Exact ~jobs:1 () in
  check_same_stats (name ^ " compact==exact") base
    (run m ~store:Mc.Explore.Compact ~jobs:1 ());
  check_same_stats (name ^ " parallel==serial") base (run m ~store:Mc.Explore.Exact ~jobs:3 ());
  check_same_stats (name ^ " compact+parallel==exact serial") base
    (run m ~store:Mc.Explore.Compact ~jobs:2 ())

let test_differential_small () =
  differential "counter" (counter_model ~bound:10 ~bug:false ());
  differential "counter-bug" (counter_model ~bound:10 ~bug:true ());
  differential "tok-safety" (Mc.Token_model.safety micro);
  differential "dir-2c" (Mc.Dir_model.flat dir2)

let test_differential_big () =
  differential "tok-dst" (Mc.Token_model.distributed micro);
  differential "recovery" (Mc.Recovery_model.model Mc.Recovery_model.default_params)

let test_differential_truncated () =
  (* truncation must bite at the same state in every mode *)
  let m = counter_model ~bound:1000 ~bug:false () in
  let base = run m ~max_states:100 () in
  check_same_stats "truncated compact" base
    (run m ~max_states:100 ~store:Mc.Explore.Compact ());
  check_same_stats "truncated parallel" base (run m ~max_states:100 ~jobs:2 ())

let test_collision_bound_reported () =
  let s = run (Mc.Token_model.distributed micro) ~store:Mc.Explore.Compact () in
  Alcotest.(check bool) "positive" true (s.Mc.Explore.collision_bound > 0.);
  Alcotest.(check bool) "tiny at this scale" true (s.Mc.Explore.collision_bound < 1e-6)

(* ------------------------------------------------------------------ *)
(* Violation-path reconstruction: a deep violation must render every
   state along the path (regression for the O(states x path) full-table
   scan this used to be), in exact mode via the id-indexed side array
   and in compact mode via forward replay from the initial state. *)

let test_deep_violation_path () =
  let m = counter_model ~bound:100 ~bug:true ~bug_at:50 () in
  let s = run m () in
  let expected = List.init 51 string_of_int in
  Alcotest.(check (list string)) "every state rendered" expected s.Mc.Explore.violation_path;
  Alcotest.(check bool) "violating state rendered" true
    (s.Mc.Explore.violation_state = Some "50");
  let c = run m ~store:Mc.Explore.Compact () in
  Alcotest.(check (list string)) "compact replay path" expected c.Mc.Explore.violation_path;
  let p = run m ~jobs:2 () in
  Alcotest.(check (list string)) "parallel path" expected p.Mc.Explore.violation_path

(* ------------------------------------------------------------------ *)
(* Canonicalization properties. States are sampled through the models'
   own [next] so every tested state is reachable. *)

let sample (type s) (module M : Mc.Explore.MODEL with type state = s) n =
  let seen = ref [] in
  let frontier = Queue.create () in
  List.iter (fun s -> Queue.push s frontier) M.initial;
  while List.length !seen < n && not (Queue.is_empty frontier) do
    let s = Queue.pop frontier in
    if not (List.mem s !seen) then begin
      seen := s :: !seen;
      List.iter (fun (_, s') -> Queue.push s' frontier) (M.next s)
    end
  done;
  !seen

(* budgeted 3-cache configs, as in tab4 *)
let tp3 = { Mc.Token_model.caches = 3; tokens = 4; max_writes = 2; net_cap = 4 }
let dp3 = { Mc.Dir_model.caches = 3; max_writes = 2; net_cap = 3 }

let sym_tp = { Mc.Token_model.caches = 4; tokens = 5; max_writes = 1; net_cap = 2 }
let sym_dp = { Mc.Dir_model.caches = 4; max_writes = 1; net_cap = 3 }
let sym_rp = { Mc.Recovery_model.caches = 4; tokens = 4; max_writes = 1; net_cap = 2 }

let canon_properties name states ~canonicalize ~apply_perm ~mappings ~invariant ~goal =
  List.iter
    (fun s ->
      let c = canonicalize s in
      Alcotest.(check bool) (name ^ " idempotent") true (canonicalize c = c);
      Alcotest.(check bool) (name ^ " preserves invariant verdict") true
        (Result.is_ok (invariant c) = Result.is_ok (invariant s));
      Alcotest.(check bool) (name ^ " preserves goal verdict") true (goal c = goal s);
      List.iter
        (fun f ->
          Alcotest.(check bool) (name ^ " invariant under permutation") true
            (canonicalize (apply_perm f s) = c))
        mappings)
    states

let test_canon_properties_token () =
  let module M = (val Mc.Token_model.model Mc.Token_model.Distributed sym_tp) in
  canon_properties "token"
    (sample (module M) 150)
    ~canonicalize:(Mc.Token_model.canonicalize sym_tp)
    ~apply_perm:(Mc.Token_model.apply_perm sym_tp)
    ~mappings:(Mc.Symmetry.mappings (Mc.Token_model.movable sym_tp))
    ~invariant:M.invariant ~goal:M.goal

let test_canon_properties_dir () =
  let module M = (val Mc.Dir_model.flat_sym sym_dp) in
  canon_properties "dir"
    (sample (module M) 150)
    ~canonicalize:(Mc.Dir_model.canonicalize sym_dp)
    ~apply_perm:(Mc.Dir_model.apply_perm sym_dp)
    ~mappings:(Mc.Symmetry.mappings (Mc.Dir_model.movable sym_dp))
    ~invariant:M.invariant ~goal:M.goal

let test_canon_properties_recovery () =
  let module M = (val Mc.Recovery_model.model_sym sym_rp) in
  canon_properties "recovery"
    (sample (module M) 150)
    ~canonicalize:(Mc.Recovery_model.canonicalize sym_rp)
    ~apply_perm:(Mc.Recovery_model.apply_perm sym_rp)
    ~mappings:(Mc.Symmetry.mappings (Mc.Recovery_model.movable sym_rp))
    ~invariant:M.invariant ~goal:M.goal

let test_canon_identity_on_2c () =
  (* with two caches there are no interchangeable nodes: the reduced
     run must equal the unreduced run exactly *)
  let m = Mc.Token_model.distributed micro in
  check_same_stats "2c sym==nosym" (run m ~sym:false ()) (run m ~sym:true ());
  Alcotest.(check bool) "movable empty" true (Mc.Token_model.movable micro = [])

let test_canon_reduces_4c () =
  (* with two interchangeable caches the reduction must shrink the
     graph (and never grow it), preserving the verdicts *)
  let m = Mc.Token_model.safety sym_tp in
  let off = run m ~sym:false () in
  let on = run m ~sym:true () in
  Alcotest.(check bool) "reduced is strictly smaller" true
    (on.Mc.Explore.states < off.Mc.Explore.states);
  Alcotest.(check bool) "same verdict" true
    (off.Mc.Explore.violation = None && on.Mc.Explore.violation = None);
  Alcotest.(check bool) "both closed" true
    ((not on.Mc.Explore.truncated) && not off.Mc.Explore.truncated)

(* A symmetric toy model with a planted violation: the engine must find
   the same violation at the same depth with and without reduction. *)
let pair_model ~bound ~bug_sum : (module Mc.Explore.MODEL) =
  (module struct
    type state = int * int

    let name = "pair"
    let initial = [ (0, 0) ]

    let next (a, b) =
      (if a < bound then [ (0, (a + 1, b)) ] else [])
      @ if b < bound then [ (1, (a, b + 1)) ] else []

    let label = function 0 -> "incA" | _ -> "incB"

    let invariant (a, b) = if a + b = bug_sum then Error "bad sum" else Ok ()
    let goal (a, b) = a = bound && b = bound
    let pp fmt (a, b) = Format.fprintf fmt "(%d,%d)" a b
    let canonicalize (a, b) = if a <= b then (a, b) else (b, a)
    let key = Fingerprint.of_value
  end)

let test_canon_preserves_violation () =
  let off = run (pair_model ~bound:6 ~bug_sum:5) ~sym:false () in
  let on = run (pair_model ~bound:6 ~bug_sum:5) ~sym:true () in
  (match (off.Mc.Explore.violation, on.Mc.Explore.violation) with
  | Some (r1, t1), Some (r2, t2) ->
    Alcotest.(check string) "same reason" r1 r2;
    Alcotest.(check int) "same depth" (List.length t1) (List.length t2)
  | _ -> Alcotest.fail "violation lost by reduction");
  Alcotest.(check bool) "reduced graph is smaller" true
    (on.Mc.Explore.states < off.Mc.Explore.states)

let test_symmetry_helpers () =
  let perms = Mc.Symmetry.permutations [ 1; 2; 3 ] in
  Alcotest.(check int) "3! orderings" 6 (List.length perms);
  Alcotest.(check int) "all distinct" 6 (List.length (List.sort_uniq compare perms));
  let maps = Mc.Symmetry.mappings [ 4; 7 ] in
  Alcotest.(check bool) "identity included" true
    (List.exists (fun f -> f 4 = 4 && f 7 = 7) maps);
  Alcotest.(check bool) "swap included" true
    (List.exists (fun f -> f 4 = 7 && f 7 = 4) maps);
  Alcotest.(check bool) "fixes others" true (List.for_all (fun f -> f 0 = 0 && f 9 = 9) maps)

(* ------------------------------------------------------------------ *)
(* Known-answer traces on budgeted graphs: stats and the rendered
   doomed-example trace, pinned from the checker that built string
   labels eagerly, must be identical in every store/frontier mode. *)

let test_known_answer_traces () =
  List.iter
    (fun (name, m, max_states, (states, trans, diam, goals, doomed), example) ->
      List.iter
        (fun (mode, store, jobs) ->
          let s = run m ~max_states ~store ~jobs () in
          let tag = name ^ " " ^ mode in
          Alcotest.(check (list int)) (tag ^ " stats") [ states; trans; diam; goals; doomed ]
            [ s.Mc.Explore.states; s.transitions; s.diameter; s.goals; s.doomed ];
          Alcotest.(check bool) (tag ^ " truncated") true s.Mc.Explore.truncated;
          Alcotest.(check (option string)) (tag ^ " doomed example") (Some example)
            (Option.map (String.concat ";") s.Mc.Explore.doomed_example))
        [ ("exact", Mc.Explore.Exact, 1); ("compact", Mc.Explore.Compact, 1);
          ("compact -j 2", Mc.Explore.Compact, 2) ])
    [
      ( "Flat Directory 3c", Mc.Dir_model.flat dp3, 200_000, (200000, 588630, 31, 9961, 37113),
        "getM2;getS1;getM0;dir;dataE;unblock;evict0;dir;defer;fwdM-wb;getM0;dataE;unblock;dir;\
         fwdM;getS2;dataE;defer;evict0;defer;defer" );
      ( "TokenCMP-arb 2c", Mc.Token_model.arbiter Mc.Token_model.default_params, 20_000,
        (20000, 156705, 10, 9, 13344), "issue0;arb-activate" );
      ( "recovery", Mc.Recovery_model.model Mc.Recovery_model.default_params, 50_000,
        (50000, 282178, 15, 1398, 6394), "all(2->0);recv;write;butone(0->2);lose" );
    ]

(* Label round trip: every primitive of every model, in each of the
   three label shapes, renders to a string that parses back to the same
   int, so rendering is unambiguous. *)

let parse_label names str =
  let prim name =
    let rec find i = if names.(i) = name then i else find (i + 1) in
    find 0
  in
  let n = String.length str in
  if str.[n - 1] = ')' then
    let lp = String.index str '(' in
    Scanf.sscanf (String.sub str lp (n - lp)) "(%d->%d)" (fun a b ->
        Mc.Label.edge (prim (String.sub str 0 lp)) a b)
  else
    let is_digit c = c >= '0' && c <= '9' in
    let rec digits_from i = if i > 0 && is_digit str.[i - 1] then digits_from (i - 1) else i in
    let d = digits_from n in
    if d = n then Mc.Label.bare (prim str)
    else Mc.Label.indexed (prim (String.sub str 0 d)) (int_of_string (String.sub str d (n - d)))

let test_label_round_trip () =
  List.iter
    (fun (name, names, m) ->
      let module M = (val m : Mc.Explore.MODEL) in
      Alcotest.(check int) (name ^ " primitive names distinct") (Array.length names)
        (List.length (List.sort_uniq compare (Array.to_list names)));
      Array.iteri
        (fun p pname ->
          List.iter
            (fun (l, expected) ->
              Alcotest.(check string) (name ^ " renders " ^ expected) expected (M.label l);
              Alcotest.(check int) (name ^ " round trip " ^ expected) l
                (parse_label names (M.label l)))
            [ (Mc.Label.bare p, pname); (Mc.Label.indexed p 2, pname ^ "2");
              (Mc.Label.edge p 3 0, pname ^ "(3->0)") ])
        names)
    [
      ( "token", Mc.Token_model.label_names,
        Mc.Token_model.distributed Mc.Token_model.default_params );
      ("directory", Mc.Dir_model.label_names, Mc.Dir_model.flat Mc.Dir_model.default_params);
      ( "recovery", Mc.Recovery_model.label_names,
        Mc.Recovery_model.model Mc.Recovery_model.default_params );
    ]

(* The oracle fingerprint: a pure function of structure (sharing and
   physical identity do not matter) that sees the whole value (no node
   cap). *)

let test_fingerprint () =
  let fp = Fingerprint.of_value in
  let module M = (val Mc.Token_model.model Mc.Token_model.Distributed sym_tp) in
  List.iter
    (fun s ->
      let copy : Mc.Token_model.state = Marshal.from_string (Marshal.to_string s []) 0 in
      Alcotest.(check bool) "marshalled copy is physically distinct" true (copy != s);
      Alcotest.(check int) "equal states, equal fingerprints" (fp s) (fp copy))
    (sample (module M) 50);
  let long = List.init 1000 (fun i -> i) in
  let long' = List.init 1000 (fun i -> if i = 999 then -1 else i) in
  Alcotest.(check bool) "a difference past node 512 changes the fingerprint" true
    (fp long <> fp long');
  Alcotest.(check bool) "fits in 60 bits" true (fp long >= 0 && fp long < 1 lsl 60);
  Alcotest.(check int) "0. and -0. are equal, so fingerprint alike" (fp (1, 0.)) (fp (1, -0.));
  Alcotest.(check bool) "content-hashed string" true (fp "ab" = fp (String.make 1 'a' ^ "b"));
  Alcotest.(check bool) "strings differ" true (fp "ab" <> fp "ba")

(* Model keys: over every state of a closed graph, distinct states never
   share a key, and equal states always do: every successor that
   rediscovers a known state (an equal value built along another path)
   must get the known state's key. States are enumerated under
   structural equality. *)

let all_states ?(limit = max_int) (type s) (module M : Mc.Explore.MODEL with type state = s) =
  let module H = Hashtbl.Make (struct
    type t = s

    let equal = ( = )
    let hash = Hashtbl.hash_param 1000 1000
  end) in
  let seen = H.create 4096 in
  let queue = Queue.create () in
  let visit s =
    let c = M.canonicalize s in
    match H.find_opt seen c with
    | Some k -> if M.key c <> k then Alcotest.failf "%s: equal states, different keys" M.name
    | None ->
      if H.length seen < limit then begin
        H.add seen c (M.key c);
        Queue.push c queue
      end
  in
  List.iter visit M.initial;
  while not (Queue.is_empty queue) do
    List.iter (fun (_, s) -> visit s) (M.next (Queue.pop queue))
  done;
  H.fold (fun s _ acc -> s :: acc) seen []

let check_keys name (type s) (module M : Mc.Explore.MODEL with type state = s) states =
  let by_key = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      let k = M.key s in
      if k < 0 || k >= 1 lsl 60 then Alcotest.failf "%s: key %d outside 60 bits" name k;
      match Hashtbl.find_opt by_key k with
      | Some s' when s' <> s -> Alcotest.failf "%s: two distinct states share key %d" name k
      | Some _ | None -> Hashtbl.replace by_key k s)
    states;
  Alcotest.(check int) (name ^ " one key per state") (List.length states)
    (Hashtbl.length by_key)

let test_model_keys_sound () =
  let closed name m expected =
    let states = all_states m in
    Alcotest.(check int) (name ^ " closed graph") expected (List.length states);
    check_keys name m states
  in
  closed "tok-safety-micro" (Mc.Token_model.model Mc.Token_model.Safety micro) 984;
  closed "tok-dst-micro" (Mc.Token_model.model Mc.Token_model.Distributed micro) 123929;
  closed "dir-2c" (Mc.Dir_model.flat_sym dir2) 403;
  closed "recovery-default" (Mc.Recovery_model.model_sym Mc.Recovery_model.default_params) 133284;
  (* budgeted 3-cache graphs (deeper serial and txn spaces) and four
     caches (wider node indices, canonicalized states) *)
  check_keys "dir-3c" (Mc.Dir_model.flat_sym dp3)
    (all_states ~limit:20_000 (Mc.Dir_model.flat_sym dp3));
  check_keys "tok-dst-3c"
    (Mc.Token_model.model Mc.Token_model.Distributed tp3)
    (all_states ~limit:20_000 (Mc.Token_model.model Mc.Token_model.Distributed tp3));
  check_keys "tok-arb-4c"
    (Mc.Token_model.model Mc.Token_model.Arbiter sym_tp)
    (sample (Mc.Token_model.model Mc.Token_model.Arbiter sym_tp) 500);
  check_keys "dir-4c" (Mc.Dir_model.flat_sym sym_dp) (sample (Mc.Dir_model.flat_sym sym_dp) 500);
  check_keys "recovery-4c"
    (Mc.Recovery_model.model_sym sym_rp)
    (sample (Mc.Recovery_model.model_sym sym_rp) 500)

(* Stats under the models' packed keys equal the stats under the oracle
   walk, in every store and frontier mode. (On the big closed graphs this
   follows from the test above: a key injective on the reachable states
   gives the exact store's stats, which the differential suite pins.) *)
let test_model_keys_match_oracle () =
  List.iter
    (fun (name, m, max_states) ->
      let module M = (val m : Mc.Explore.MODEL) in
      let base = run (module Fingerprint.Keyed (M)) ~max_states ~store:Mc.Explore.Exact () in
      List.iter
        (fun (mode, store, jobs) ->
          check_same_stats (name ^ " " ^ mode) base (run m ~max_states ~store ~jobs ()))
        [ ("exact", Mc.Explore.Exact, 1); ("compact", Mc.Explore.Compact, 1);
          ("compact -j 2", Mc.Explore.Compact, 2) ])
    [
      ("tok-safety-micro", Mc.Token_model.safety micro, 1_000_000);
      ("dir-2c", Mc.Dir_model.flat dir2, 1_000_000);
      ("tok-dst-3c budgeted", Mc.Token_model.distributed tp3, 20_000);
      ("recovery budgeted", Mc.Recovery_model.model Mc.Recovery_model.default_params, 20_000);
      ("dir-3c budgeted", Mc.Dir_model.flat dp3, 30_000);
    ]

let tests =
  [
    Alcotest.test_case "explorer counts a line graph" `Quick test_explorer_counts;
    Alcotest.test_case "explorer reports shortest violating trace" `Quick
      test_explorer_finds_violation;
    Alcotest.test_case "explorer truncation guard" `Quick test_explorer_truncation;
    Alcotest.test_case "doomed-state detection" `Quick test_doomed_detection;
    Alcotest.test_case "token safety substrate verifies" `Quick test_token_safety_model;
    Alcotest.test_case "token distributed activation verifies" `Slow test_token_dst_model;
    Alcotest.test_case "token arbiter activation verifies" `Slow test_token_arb_model;
    Alcotest.test_case "flat directory model verifies" `Quick test_dir_model;
    Alcotest.test_case "token recreation substrate verifies" `Quick test_recovery_model;
    Alcotest.test_case "activation variants both close" `Slow test_dst_cheaper_than_arb;
    Alcotest.test_case "safety-only model is smallest" `Slow test_safety_model_smallest;
    Alcotest.test_case "model LoC metric" `Quick test_model_loc_metric;
    Alcotest.test_case "exact-mode stats pinned (small models)" `Quick
      test_exact_stats_pinned_small;
    Alcotest.test_case "exact-mode stats pinned (big models)" `Slow test_exact_stats_pinned_big;
    Alcotest.test_case "differential: compact/parallel == exact serial (small)" `Quick
      test_differential_small;
    Alcotest.test_case "differential: compact/parallel == exact serial (big)" `Slow
      test_differential_big;
    Alcotest.test_case "differential: truncation point identical" `Quick
      test_differential_truncated;
    Alcotest.test_case "compact store reports collision bound" `Slow
      test_collision_bound_reported;
    Alcotest.test_case "deep violation path renders every state" `Quick
      test_deep_violation_path;
    Alcotest.test_case "canonicalization properties (token)" `Quick test_canon_properties_token;
    Alcotest.test_case "canonicalization properties (directory)" `Quick
      test_canon_properties_dir;
    Alcotest.test_case "canonicalization properties (recovery)" `Quick
      test_canon_properties_recovery;
    Alcotest.test_case "canonicalize is identity on 2-cache configs" `Slow
      test_canon_identity_on_2c;
    Alcotest.test_case "symmetry shrinks a 4-cache graph" `Quick test_canon_reduces_4c;
    Alcotest.test_case "reduction preserves violations" `Quick test_canon_preserves_violation;
    Alcotest.test_case "symmetry helpers" `Quick test_symmetry_helpers;
    Alcotest.test_case "known-answer traces in every mode" `Slow test_known_answer_traces;
    Alcotest.test_case "label decoder round trip" `Quick test_label_round_trip;
    Alcotest.test_case "fingerprint is structural and uncapped" `Quick test_fingerprint;
    Alcotest.test_case "model keys: injective and structural" `Slow test_model_keys_sound;
    Alcotest.test_case "model keys: stats equal the oracle walk's" `Slow
      test_model_keys_match_oracle;
  ]
