type params = { caches : int; tokens : int; max_writes : int; net_cap : int }

let default_params = { caches = 2; tokens = 2; max_writes = 2; net_cap = 3 }

let writer = 0
let reader = 1

(* A node's holdings are always of its known epoch [know]: applying a
   bump destroys them, and received tokens of an older epoch are
   discarded on arrival (the recovery substrate's stale-discard rule).
   [tok = 0] is normalized so equivalent states collapse. *)
type node = { tok : int; owner : bool; data : bool; ver : int; know : int }

type msg =
  | Tok of { dst : int; k : int; owner : bool; data : bool; ver : int; ep : int }
  | Bump of { dst : int }  (** persistent class: never lost *)
  | Ack of { src : int }

type state = {
  nodes : node list;  (* caches then memory *)
  net : msg list;  (* sorted multiset *)
  written : int;
  reqs : int list;  (* 0 = not issued, 1 = active, 2 = done *)
  lost : bool;  (* loss budget of one in-flight token message *)
  lost_tok : int;
  lost_own : bool;
  destroyed : int;  (* epoch-0 tokens destroyed by bump / stale discard *)
  destroyed_own : bool;
  acks : bool list;  (* per cache, during recreation *)
  minted : bool;
}

open Lists

(* Transition-label primitives (see {!Label}), indexing [label_names]. *)
let l_one, l_one_d, l_all, l_butone, l_discard, l_recv, l_bump = (0, 1, 2, 3, 4, 5, 6)
let l_mint, l_ack, l_lose, l_recreate, l_write, l_issue, l_complete = (7, 8, 9, 10, 11, 12, 13)

let label_names =
  [| "one"; "one+d"; "all"; "butone"; "discard"; "recv"; "bump"; "mint"; "ack"; "lose";
     "recreate"; "write"; "issue"; "complete" |]

let nnodes p = p.caches + 1
let mem_ix p = p.caches

let initial_state p =
  let cache = { tok = 0; owner = false; data = false; ver = 0; know = 0 } in
  let memory = { tok = p.tokens; owner = true; data = true; ver = 0; know = 0 } in
  {
    nodes = List.init p.caches (fun _ -> cache) @ [ memory ];
    net = [];
    written = 0;
    reqs = [ 0; 0 ];
    lost = false;
    lost_tok = 0;
    lost_own = false;
    destroyed = 0;
    destroyed_own = false;
    acks = List.init p.caches (fun _ -> false);
    minted = false;
  }

let clear n = { tok = 0; owner = false; data = false; ver = 0; know = n.know }

let strip_node n ~k ~owner =
  let tok = n.tok - k in
  if tok = 0 then clear n else { n with tok; owner = n.owner && not owner }

let send_msg s p ~src ~dst ~k ~owner ~data =
  if List.length s.net >= p.net_cap then None
  else begin
    let n = nth s.nodes src in
    assert (k >= 1 && k <= n.tok);
    assert ((not owner) || (n.owner && data && n.data));
    let msg =
      Tok { dst; k; owner; data; ver = (if data then n.ver else 0); ep = n.know }
    in
    Some
      {
        s with
        nodes = set_nth s.nodes src (strip_node n ~k ~owner);
        net = insert msg s.net;
      }
  end

(* Same nondeterministic token-movement primitives as {!Token_model}:
   a verification result covers every performance policy. *)
let policy_sends p s =
  let moves = ref [] in
  let add label st = moves := (label, st) :: !moves in
  for src = 0 to nnodes p - 1 do
    let n = nth s.nodes src in
    if n.tok > 0 then
      for dst = 0 to nnodes p - 1 do
        if dst <> src then begin
          let lbl prim = Label.edge prim src dst in
          let non_owner = n.tok - if n.owner then 1 else 0 in
          if non_owner >= 1 then begin
            (match send_msg s p ~src ~dst ~k:1 ~owner:false ~data:false with
            | Some st -> add (lbl l_one) st
            | None -> ());
            if n.data then
              match send_msg s p ~src ~dst ~k:1 ~owner:false ~data:true with
              | Some st -> add (lbl l_one_d) st
              | None -> ()
          end;
          (match send_msg s p ~src ~dst ~k:n.tok ~owner:n.owner ~data:n.data with
          | Some st -> add (lbl l_all) st
          | None -> ());
          if n.tok >= 2 then
            match send_msg s p ~src ~dst ~k:(n.tok - 1) ~owner:false ~data:n.data with
            | Some st -> add (lbl l_butone) st
            | None -> ()
        end
      done
  done;
  !moves

(* Caches other than the designated writer (0) and reader (1) are
   interchangeable; memory (the last index) is the home node. *)
let movable p = List.init (max 0 (p.caches - 2)) (fun i -> i + 2)

let apply_perm p f s =
  let n = nnodes p in
  let permute_positions len l =
    match l with
    | [] -> []
    | hd :: _ ->
      let out = Array.make len hd in
      List.iteri (fun i x -> out.(f i) <- x) l;
      Array.to_list out
  in
  let fmsg = function
    | Tok r -> Tok { r with dst = f r.dst }
    | Bump { dst } -> Bump { dst = f dst }
    | Ack { src } -> Ack { src = f src }
  in
  {
    s with
    nodes = permute_positions n s.nodes;
    acks = permute_positions p.caches s.acks;
    net = norm_net (List.map fmsg s.net);
  }

let canonicalize p = Symmetry.canonical ~apply:(apply_perm p) ~movable:(movable p)

(* Visited-set key (see {!Explore.MODEL.key}): the scalar fields share
   one int, then one int per node and per message, at field widths that
   [Explore.field] checks. *)
let pack_node n =
  let open Explore in
  field 8 n.tok lor (Bool.to_int n.owner lsl 8) lor (Bool.to_int n.data lsl 9)
  lor (field 8 n.ver lsl 10) lor (field 8 n.know lsl 18)

let pack_msg m =
  let open Explore in
  match m with
  | Tok { dst; k; owner; data; ver; ep } ->
    (field 8 dst lsl 2) lor (field 8 k lsl 10) lor (Bool.to_int owner lsl 18)
    lor (Bool.to_int data lsl 19) lor (field 8 ver lsl 20) lor (field 8 ep lsl 28)
  | Bump { dst } -> 1 lor (field 8 dst lsl 2)
  | Ack { src } -> 2 lor (field 8 src lsl 2)

let key s =
  let open Explore in
  let h =
    step seed
      (field 8 s.written
      lor (field 8 (bits 2 Fun.id s.reqs) lsl 8)
      lor (Bool.to_int s.lost lsl 16)
      lor (field 8 s.lost_tok lsl 17)
      lor (Bool.to_int s.lost_own lsl 25)
      lor (field 8 s.destroyed lsl 26)
      lor (Bool.to_int s.destroyed_own lsl 34)
      lor (Bool.to_int s.minted lsl 35)
      lor (field 24 (bits 1 Bool.to_int s.acks) lsl 36))
  in
  let h = step_list pack_node h s.nodes in
  finish (step_list pack_msg h s.net)

let model_sym p : (module Explore.MODEL with type state = state) =
  (module struct
    type nonrec state = state

    let name =
      Printf.sprintf "TokenCMP-recovery (%d caches, %d tokens, 1 loss)" p.caches
        p.tokens

    let initial = [ initial_state p ]

    let mem s = nth s.nodes (mem_ix p)

    let deliver s i msg =
      let s = { s with net = remove_nth s.net i } in
      match msg with
      | Tok { dst; k; owner; data; ver; ep } ->
        let n = nth s.nodes dst in
        if ep < n.know then
          (* Stale epoch: destroy on arrival. *)
          Some
            ( Label.bare l_discard,
              {
                s with
                destroyed = s.destroyed + k;
                destroyed_own = s.destroyed_own || owner;
              } )
        else begin
          let s, n =
            if ep > n.know then
              (* Newer epoch than we knew: our own holdings are stale. *)
              ( {
                  s with
                  destroyed = s.destroyed + n.tok;
                  destroyed_own = s.destroyed_own || n.owner;
                },
                { (clear n) with know = ep } )
            else (s, n)
          in
          let n' =
            {
              n with
              tok = n.tok + k;
              owner = n.owner || owner;
              data = n.data || data;
              ver = (if data then ver else n.ver);
            }
          in
          Some (Label.bare l_recv, { s with nodes = set_nth s.nodes dst n' })
        end
      | Bump { dst } ->
        (* Destroy stale holdings, adopt the new epoch, always ack. *)
        let n = nth s.nodes dst in
        if List.length s.net >= p.net_cap then None
        else
          Some
            ( Label.bare l_bump,
              {
                s with
                nodes = set_nth s.nodes dst { (clear n) with know = 1 };
                destroyed = s.destroyed + n.tok;
                destroyed_own = s.destroyed_own || n.owner;
                net = insert (Ack { src = dst }) s.net;
              } )
      | Ack { src } ->
        let s = { s with acks = set_nth s.acks src true } in
        if List.for_all (fun a -> a) s.acks && not s.minted then
          (* All caches purged: mint a fresh full set at memory. Data is
             architectural (the values oracle), so memory mints the
             latest written version. *)
          let m =
            { tok = p.tokens; owner = true; data = true; ver = s.written; know = 1 }
          in
          Some (Label.bare l_mint, { s with nodes = set_nth s.nodes (mem_ix p) m; minted = true })
        else Some (Label.bare l_ack, s)

    (* Lose one in-flight token message: the single fault this model
       injects. Restricted to the pre-recreation epoch — a second loss
       would need a second recreation, which the budget excludes. *)
    let lose s i msg =
      match msg with
      | Tok { k; owner; ep; _ } when (not s.lost) && (mem s).know = 0 ->
        assert (ep = 0);
        Some
          {
            s with
            net = remove_nth s.net i;
            lost = true;
            lost_tok = k;
            lost_own = owner;
          }
      | _ -> None

    (* Memory-controller-driven recreation: in the simulator the
       trigger is a starving persistent request; here it fires
       nondeterministically at any point (including spuriously, with no
       loss at all — recreation must be safe even when nothing was
       actually lost). *)
    let recreate s =
      if (mem s).know <> 0 then None
      else if List.length s.net + p.caches > p.net_cap then None
      else begin
        let m = mem s in
        let s =
          {
            s with
            destroyed = s.destroyed + m.tok;
            destroyed_own = s.destroyed_own || m.owner;
            nodes = set_nth s.nodes (mem_ix p) { (clear m) with know = 1 };
          }
        in
        let bumps = List.init p.caches (fun dst -> Bump { dst }) in
        Some { s with net = insert_all bumps s.net }
      end

    let satisfied s ~req =
      let n = nth s.nodes req in
      if req = writer then n.tok = p.tokens && n.data else n.tok >= 1 && n.data

    let issue s req = if nth s.reqs req <> 0 then None else Some { s with reqs = set_nth s.reqs req 1 }

    let complete s req =
      if nth s.reqs req <> 1 || not (satisfied s ~req) then None
      else
        let s =
          if req = writer && s.written < p.max_writes then begin
            let n = nth s.nodes req in
            {
              s with
              written = s.written + 1;
              nodes = set_nth s.nodes req { n with ver = s.written + 1 };
            }
          end
          else s
        in
        Some { s with reqs = set_nth s.reqs req 2 }

    let next s =
      let moves = ref (policy_sends p s) in
      let add label st = moves := (label, st) :: !moves in
      List.iteri
        (fun i msg ->
          (match deliver s i msg with Some (label, st) -> add label st | None -> ());
          match lose s i msg with Some st -> add (Label.bare l_lose) st | None -> ())
        s.net;
      (match recreate s with Some st -> add (Label.bare l_recreate) st | None -> ());
      let wn = nth s.nodes writer in
      if wn.tok = p.tokens && wn.data && s.written < p.max_writes then
        add (Label.bare l_write)
          {
            s with
            written = s.written + 1;
            nodes = set_nth s.nodes writer { wn with ver = s.written + 1 };
          };
      List.iter
        (fun req ->
          (match issue s req with
          | Some st -> add (Label.indexed l_issue req) st
          | None -> ());
          match complete s req with
          | Some st -> add (Label.indexed l_complete req) st
          | None -> ())
        [ writer; reader ];
      !moves

    let invariant s =
      let held ep = List.fold_left (fun a n -> if n.know = ep then a + n.tok else a) 0 s.nodes in
      let inflight ep =
        List.fold_left
          (fun a m -> match m with Tok { k; ep = e; _ } when e = ep -> a + k | _ -> a)
          0 s.net
      in
      let owners ep =
        List.fold_left (fun a n -> if n.know = ep && n.owner then a + 1 else a) 0 s.nodes
        + List.fold_left
            (fun a m ->
              match m with Tok { owner = true; ep = e; _ } when e = ep -> a + 1 | _ -> a)
            0 s.net
      in
      let tok0 = held 0 + inflight 0 and tok1 = held 1 + inflight 1 in
      let own0 = owners 0 and own1 = owners 1 in
      let writers =
        List.fold_left (fun a n -> if n.tok = p.tokens && n.data then a + 1 else a) 0 s.nodes
      in
      if tok0 + s.lost_tok + s.destroyed <> p.tokens then
        Error
          (Printf.sprintf "epoch-0 conservation: %d live + %d lost + %d destroyed <> %d"
             tok0 s.lost_tok s.destroyed p.tokens)
      else if tok1 <> if s.minted then p.tokens else 0 then
        Error (Printf.sprintf "epoch-1 conservation: %d live (minted=%b)" tok1 s.minted)
      else if own0 + (if s.lost_own then 1 else 0) + (if s.destroyed_own then 1 else 0) <> 1
      then Error (Printf.sprintf "epoch-0 owner accounting: %d live" own0)
      else if own1 <> if s.minted then 1 else 0 then
        Error (Printf.sprintf "epoch-1 owner accounting: %d live (minted=%b)" own1 s.minted)
      else if writers > 1 then Error "two simultaneous write-capable nodes"
      else if List.exists (fun n -> n.owner && not n.data) s.nodes then
        Error "owner without data"
      else if List.exists (fun n -> n.tok >= 1 && n.data && n.ver <> s.written) s.nodes then
        Error "readable copy with stale data (serial view broken)"
      else if
        (* Only deliverable data is constrained: a stale-epoch message
           will be discarded at its destination, never read. *)
        List.exists
          (fun m ->
            match m with
            | Tok { dst; data = true; ver; ep; _ } ->
              ep >= (nth s.nodes dst).know && ver <> s.written
            | _ -> false)
          s.net
      then Error "deliverable in-flight data is stale (serial view broken)"
      else Ok ()

    let goal s = s.reqs = [ 2; 2 ]
    let canonicalize = canonicalize p
    let key = key
    let label = Label.render label_names

    let pp fmt s =
      Format.fprintf fmt "written=%d reqs=%s lost=%b(%d tok,own=%b) destroyed=%d minted=%b@."
        s.written
        (String.concat "," (List.map string_of_int s.reqs))
        s.lost s.lost_tok s.lost_own s.destroyed s.minted;
      List.iteri
        (fun i n ->
          Format.fprintf fmt "  node%d: tok=%d own=%b data=%b ver=%d epoch=%d@." i n.tok
            n.owner n.data n.ver n.know)
        s.nodes;
      List.iter
        (fun m ->
          Format.fprintf fmt "  net: %s@."
            (match m with
            | Tok { dst; k; owner; data; ver; ep } ->
              Printf.sprintf "Tok(dst=%d,k=%d,own=%b,data=%b,ver=%d,e%d)" dst k owner data
                ver ep
            | Bump { dst } -> Printf.sprintf "Bump(dst=%d)" dst
            | Ack { src } -> Printf.sprintf "Ack(src=%d)" src))
        s.net
  end)

let model p = (model_sym p :> (module Explore.MODEL))
