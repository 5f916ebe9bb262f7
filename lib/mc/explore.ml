module type MODEL = sig
  type state

  val name : string
  val initial : state list
  val next : state -> (int * state) list
  val label : int -> string
  val invariant : state -> (unit, string) result
  val goal : state -> bool
  val pp : Format.formatter -> state -> unit
  val canonicalize : state -> state
  val key : state -> int
end

type store = Exact | Compact

type stats = {
  states : int;
  transitions : int;
  diameter : int;
  violation : (string * string list) option;
  violation_state : string option;
  violation_path : string list;  (** rendered states along the violating path *)
  doomed : int;
  doomed_example : string list option;
  goals : int;
  truncated : bool;
  collision_bound : float;
}

(* ------------------------------------------------------------------ *)
(* Growable flat arrays: the per-state bookkeeping never boxes per
   entry, so a multi-million-state run costs a few machine words per
   state instead of a hashtable bucket chain. *)

type 'a buf = { mutable arr : 'a array; mutable n : int; dummy : 'a }

let buf_create dummy = { arr = Array.make 1024 dummy; n = 0; dummy }

let buf_push b v =
  if b.n = Array.length b.arr then begin
    let bigger = Array.make (2 * b.n) b.dummy in
    Array.blit b.arr 0 bigger 0 b.n;
    b.arr <- bigger
  end;
  b.arr.(b.n) <- v;
  b.n <- b.n + 1

(* ------------------------------------------------------------------ *)
(* Open-addressing key table: visited states live as int keys
   ({!MODEL.key}) in two flat arrays, resized by re-bucketing the stored
   keys (no state re-hashing, unlike [Hashtbl]). In [Exact] mode a key
   match is confirmed against the interned state; in [Compact] mode the
   key alone decides, Cleary/bit-state style. *)

module Tbl = struct
  type t = {
    mutable keys : int array;  (* key + 1; 0 = empty slot *)
    mutable vals : int array;  (* state id *)
    mutable mask : int;
    mutable used : int;
  }

  let create () =
    let cap = 1 lsl 16 in
    { keys = Array.make cap 0; vals = Array.make cap 0; mask = cap - 1; used = 0 }

  (* keys end with [finish], whose avalanche step already spreads
     every input bit into the low bits that pick the slot *)
  let slot t key = key land t.mask

  let insert_raw t key v =
    let i = ref (slot t key) in
    while t.keys.(!i) <> 0 do
      i := (!i + 1) land t.mask
    done;
    t.keys.(!i) <- key;
    t.vals.(!i) <- v

  let grow t =
    let old_keys = t.keys and old_vals = t.vals in
    let cap = 2 * Array.length old_keys in
    t.keys <- Array.make cap 0;
    t.vals <- Array.make cap 0;
    t.mask <- cap - 1;
    Array.iteri (fun i k -> if k <> 0 then insert_raw t k old_vals.(i)) old_keys

  (* [find t key eq st] returns the id bound to [key] (with [eq id st]
     confirming the binding), or -1. *)
  let find t key eq st =
    let i = ref (slot t key) in
    let res = ref (-1) in
    (try
       while true do
         let k = t.keys.(!i) in
         if k = 0 then raise Exit;
         if k = key && eq t.vals.(!i) st then begin
           res := t.vals.(!i);
           raise Exit
         end;
         i := (!i + 1) land t.mask
       done
     with Exit -> ());
    !res

  let add t key v =
    if 4 * (t.used + 1) > 3 * (t.mask + 1) then grow t;
    insert_raw t key v;
    t.used <- t.used + 1
end

let two_pow_60 = 1.152921504606846976e18

(* ------------------------------------------------------------------ *)
(* Key mixing: models fold their packed fields through [step] and end
   with [finish], so every visited-set key is a 60-bit hash whose low
   bits (which pick the table slot) depend on every input bit. The
   collision-probability bound in [stats] assumes those 60 bits behave
   as a uniform hash of an injective packing. *)

let seed = 0x2545F4914F6CDD1D

let[@inline] step h x =
  let h = (h lxor x) * 0x5851F42D4C957F2D in
  h lxor (h lsr 29)

let[@inline] finish h =
  let h = (h lxor (h lsr 31)) * 0x7FB5D329728EA185 in
  (h lxor (h lsr 27)) land ((1 lsl 60) - 1)

let[@inline] field w x =
  assert (x lsr w = 0);
  x

let rec step_items pack h = function [] -> h | x :: rest -> step_items pack (step h (pack x)) rest
let step_list pack h l = step_items pack (step h (List.length l)) l

let rec bits_from w pack acc = function
  | [] -> acc
  | x :: rest ->
    assert (acc lsr (62 - w) = 0);
    bits_from w pack ((acc lsl w) lor field w (pack x)) rest

let bits w pack l = bits_from w pack 1 l

module Make (M : MODEL) = struct
  let zero_stats =
    {
      states = 0;
      transitions = 0;
      diameter = 0;
      violation = None;
      violation_state = None;
      violation_path = [];
      doomed = 0;
      doomed_example = None;
      goals = 0;
      truncated = false;
      collision_bound = 0.;
    }

  let run ?(max_states = 2_000_000) ?(store = Exact) ?(jobs = 1) ?(sym = true) () =
    let canon = if sym then M.canonicalize else fun s -> s in
    match M.initial with
    | [] -> zero_stats
    | first_initial :: _ ->
      let keep_states = store = Exact in
      let key_of s = M.key s + 1 in
      (* visited set *)
      let tbl = Tbl.create () in
      (* per-state bookkeeping, id-indexed; [states] is only populated
         in [Exact] mode — the compacted store never retains a state
         after its frontier entry is expanded *)
      let states = buf_create (canon first_initial) in
      let pred_id = buf_create (-1) in
      let pred_label = buf_create 0 in
      let depth = buf_create 0 in
      let goal_flag = buf_create false in
      (* reverse edges as a flat pair buffer, built into CSR form for
         the liveness pass; a list-per-state representation costs 3
         words per edge and shreds the minor heap at scale *)
      let edge_child = buf_create 0 in
      let edge_parent = buf_create 0 in
      let eq =
        match store with
        | Compact -> fun _ _ -> true
        | Exact -> fun id st -> states.arr.(id) = st
      in
      let count = ref 0 in
      let transitions = ref 0 in
      let diameter = ref 0 in
      let violation = ref None in
      let violation_state = ref None in
      let violation_path = ref [] in
      let truncated = ref false in
      let fresh = ref false in
      let initial_by_id = ref [] in
      (* Intern a canonical state; returns its id or -1 when the state
         budget is exhausted. [fresh] reports first-time discovery. *)
      let intern ~pred ~label ~key state =
        match Tbl.find tbl key eq state with
        | id when id >= 0 ->
          fresh := false;
          id
        | _ ->
          if !count >= max_states then begin
            truncated := true;
            fresh := false;
            -1
          end
          else begin
            let id = !count in
            incr count;
            Tbl.add tbl key id;
            if keep_states then buf_push states state;
            buf_push pred_id pred;
            buf_push pred_label label;
            let d = if pred < 0 then 0 else depth.arr.(pred) + 1 in
            buf_push depth d;
            if d > !diameter then diameter := d;
            buf_push goal_flag (M.goal state);
            fresh := true;
            id
          end
      in
      let record_edge ~child ~parent =
        buf_push edge_child child;
        buf_push edge_parent parent
      in
      let trace_to id =
        let rec climb id acc =
          let p = pred_id.arr.(id) in
          if p < 0 then acc else climb p (M.label pred_label.arr.(id) :: acc)
        in
        climb id []
      in
      let render s = Format.asprintf "%a" M.pp s in
      let path_ids id =
        let rec climb i acc =
          let p = pred_id.arr.(i) in
          if p < 0 then i :: acc else climb p (i :: acc)
        in
        climb id []
      in
      (* Path rendering: O(path) via the id-indexed side array in exact
         mode; forward re-execution from the initial state in compact
         mode (the store holds keys only). *)
      let render_path id violating_state =
        let ids = path_ids id in
        match store with
        | Exact -> List.map (fun i -> render states.arr.(i)) ids
        | Compact -> (
          match ids with
          | [] -> []
          | [ _ ] -> [ render violating_state ]
          | root :: rest ->
            let cur = ref (List.assoc root !initial_by_id) in
            let out = ref [ render !cur ] in
            let ok = ref true in
            List.iter
              (fun next_id ->
                if !ok then begin
                  let label = pred_label.arr.(next_id) in
                  match
                    List.find_opt
                      (fun (l, s') ->
                        l = label
                        &&
                        let c = canon s' in
                        Tbl.find tbl (key_of c) eq c = next_id)
                      (M.next !cur)
                  with
                  | Some (_, s') ->
                    cur := canon s';
                    out := render !cur :: !out
                  | None ->
                    ok := false;
                    out := "<state unrecoverable>" :: !out
                end
                else out := "<state unrecoverable>" :: !out)
              rest;
            List.rev !out)
      in
      let record_violation id state reason =
        violation := Some (reason, trace_to id);
        violation_state := Some (render state);
        violation_path := render_path id state
      in
      (* seed the frontier with the canonical initial states *)
      let init_frontier = ref [] in
      List.iter
        (fun s ->
          let c = canon s in
          let id = intern ~pred:(-1) ~label:0 ~key:(key_of c) c in
          if id >= 0 && !fresh then begin
            initial_by_id := (id, c) :: !initial_by_id;
            init_frontier := (id, c) :: !init_frontier
          end)
        M.initial;
      let init_frontier = List.rev !init_frontier in
      (* Expand one frontier state, interning its successors (the
         deterministic "merge" step shared by the serial and parallel
         drivers). Appends fresh states to [push]. *)
      let expand_into ~push (id, state) =
        if !violation = None then
          match M.invariant state with
          | Error reason -> record_violation id state reason
          | Ok () ->
            List.iter
              (fun (label, succ) ->
                incr transitions;
                let c = canon succ in
                let sid = intern ~pred:id ~label ~key:(key_of c) c in
                if sid >= 0 then begin
                  record_edge ~child:sid ~parent:id;
                  if !fresh then push (sid, c)
                end)
              (M.next state)
      in
      (* Merge a precomputed expansion (from a worker domain) in the
         same order [expand_into] would have produced. *)
      let merge_into ~push (id, state) result =
        if !violation = None then
          match result with
          | Error reason -> record_violation id state reason
          | Ok succs ->
            List.iter
              (fun (label, c, key) ->
                incr transitions;
                let sid = intern ~pred:id ~label ~key c in
                if sid >= 0 then begin
                  record_edge ~child:sid ~parent:id;
                  if !fresh then push (sid, c)
                end)
              succs
      in
      (* Pure per-state expansion work, safe to run on a worker domain:
         successor generation, canonicalization and keying.
         Interning stays on the calling domain, in frontier order, so
         parallel stats are identical to the serial run. *)
      let expand_pure (_, state) =
        match M.invariant state with
        | Error reason -> Error reason
        | Ok () ->
          Ok
            (List.map
               (fun (label, succ) ->
                 let c = canon succ in
                 (label, c, key_of c))
               (M.next state))
      in
      let rec chunk ~size = function
        | [] -> []
        | xs ->
          let rec take n acc = function
            | rest when n = 0 -> (List.rev acc, rest)
            | [] -> (List.rev acc, [])
            | x :: rest -> take (n - 1) (x :: acc) rest
          in
          let c, rest = take size [] xs in
          c :: chunk ~size rest
      in
      if jobs <= 1 then begin
        (* serial: plain FIFO — identical visit order to a
           level-synchronous sweep, without the level bookkeeping *)
        let queue = Queue.create () in
        List.iter (fun item -> Queue.push item queue) init_frontier;
        let push item = Queue.push item queue in
        let continue = ref true in
        while !continue do
          match Queue.take_opt queue with
          | None -> continue := false
          | Some item ->
            expand_into ~push item;
            if !violation <> None then continue := false
        done
      end
      else begin
        (* parallel: expand whole BFS levels across domains, then merge
           serially in frontier order *)
        let level = ref init_frontier in
        while !level <> [] && !violation = None do
          let items = !level in
          let nitems = List.length items in
          let acc = ref [] in
          let push item = acc := item :: !acc in
          if nitems < 4 * jobs then List.iter (expand_into ~push) items
          else begin
            let size = (nitems + jobs - 1) / jobs in
            let chunks = chunk ~size items in
            let results = Par.Pool.map ~jobs (fun c -> List.map expand_pure c) chunks in
            List.iter2
              (fun chunk_items chunk_results ->
                List.iter2 (fun item r -> merge_into ~push item r) chunk_items chunk_results)
              chunks results
          end;
          level := List.rev !acc
        done
      end;
      (* Liveness proxy: backward reachability from goal states over
         the reverse edges, materialized in CSR form. *)
      let n = !count in
      let m = edge_child.n in
      let deg = Array.make (n + 1) 0 in
      for e = 0 to m - 1 do
        let c = edge_child.arr.(e) in
        deg.(c + 1) <- deg.(c + 1) + 1
      done;
      for i = 1 to n do
        deg.(i) <- deg.(i) + deg.(i - 1)
      done;
      let adj = Array.make m 0 in
      let cursor = Array.copy deg in
      for e = 0 to m - 1 do
        let c = edge_child.arr.(e) in
        adj.(cursor.(c)) <- edge_parent.arr.(e);
        cursor.(c) <- cursor.(c) + 1
      done;
      let can_reach = Bytes.make (max n 1) '\000' in
      let goals = ref 0 in
      let stack = buf_create 0 in
      for id = 0 to n - 1 do
        if goal_flag.arr.(id) then begin
          incr goals;
          if Bytes.get can_reach id = '\000' then begin
            Bytes.set can_reach id '\001';
            buf_push stack id
          end
        end
      done;
      while stack.n > 0 do
        stack.n <- stack.n - 1;
        let id = stack.arr.(stack.n) in
        for e = deg.(id) to deg.(id + 1) - 1 do
          let p = adj.(e) in
          if Bytes.get can_reach p = '\000' then begin
            Bytes.set can_reach p '\001';
            buf_push stack p
          end
        done
      done;
      let doomed = ref 0 in
      let doomed_example = ref None in
      if !goals > 0 then
        for id = 0 to n - 1 do
          if Bytes.get can_reach id = '\000' then begin
            incr doomed;
            if !doomed_example = None then doomed_example := Some (trace_to id)
          end
        done;
      let collision_bound =
        match store with
        | Exact -> 0.
        | Compact ->
          let nf = float_of_int n in
          Float.min 1. (nf *. (nf -. 1.) /. 2. /. two_pow_60)
      in
      {
        states = n;
        transitions = !transitions;
        diameter = !diameter;
        violation = !violation;
        violation_state = !violation_state;
        violation_path = !violation_path;
        doomed = !doomed;
        doomed_example = !doomed_example;
        goals = !goals;
        truncated = !truncated;
        collision_bound;
      }
end

let pp_stats fmt s =
  Format.fprintf fmt "states=%d transitions=%d diameter=%d goals=%d doomed=%d%s%s" s.states
    s.transitions s.diameter s.goals s.doomed
    (if s.truncated then " TRUNCATED" else "")
    (match s.violation with
    | None -> " (invariants hold)"
    | Some (reason, trace) ->
      Printf.sprintf " VIOLATION: %s after [%s]" reason (String.concat "; " trace))
