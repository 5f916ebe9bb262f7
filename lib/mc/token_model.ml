type params = { caches : int; tokens : int; max_writes : int; net_cap : int }

let default_params = { caches = 2; tokens = 3; max_writes = 2; net_cap = 4 }

(* Requester 0 is the designated writer, requester 1 the reader; both
   use the persistent-request machinery (when the variant has one). *)
let writer = 0
let reader = 1

type node = { tok : int; owner : bool; data : bool; ver : int }

type entry = Empty | Active | Marked

type msg =
  | Tok of { dst : int; k : int; owner : bool; data : bool; ver : int }
  | Act of { dst : int; req : int }
  | Deact of { dst : int; req : int }
  | Arb_req of { req : int }
  | Arb_done of { req : int }

type state = {
  nodes : node list;  (* caches then memory *)
  net : msg list;  (* sorted multiset *)
  written : int;
  tables : entry list list;  (* distributed: per node, per requester *)
  node_active : int option list;  (* arbiter: per node *)
  arb_queue : int list;
  arb_active : int option;
  reqs : int list;  (* 0 = not issued, 1 = active, 2 = done *)
}

type variant = Safety | Distributed | Arbiter

open Lists

(* Transition-label primitives (see {!Label}), indexing [label_names]. *)
let l_one, l_one_d, l_all, l_butone, l_recv, l_act, l_deact = (0, 1, 2, 3, 4, 5, 6)
let l_arb_activate, l_arb_queue, l_arb_done, l_arb_next, l_write = (7, 8, 9, 10, 11)
let l_issue, l_complete, l_pfwd = (12, 13, 14)

let label_names =
  [| "one"; "one+d"; "all"; "butone"; "recv"; "act"; "deact"; "arb-activate"; "arb-queue";
     "arb-done"; "arb-next"; "write"; "issue"; "complete"; "pfwd" |]

let initial_state p =
  let cache = { tok = 0; owner = false; data = false; ver = 0 } in
  let memory = { tok = p.tokens; owner = true; data = true; ver = 0 } in
  {
    nodes = List.init p.caches (fun _ -> cache) @ [ memory ];
    net = [];
    written = 0;
    tables = List.init (p.caches + 1) (fun _ -> [ Empty; Empty ]);
    node_active = List.init (p.caches + 1) (fun _ -> None);
    arb_queue = [];
    arb_active = None;
    reqs = [ 0; 0 ];
  }

let nnodes p = p.caches + 1
let mem_ix p = p.caches

(* Remove [k] tokens (and possibly the owner token) from node [i]. *)
let strip_node n ~k ~owner =
  let tok = n.tok - k in
  let owner' = n.owner && not owner in
  if tok = 0 then { tok = 0; owner = false; data = false; ver = 0 }
  else { n with tok; owner = owner' }

let send_msg s p ~src ~dst ~k ~owner ~data =
  if List.length s.net >= p.net_cap then None
  else begin
    let n = nth s.nodes src in
    assert (k >= 1 && k <= n.tok);
    assert ((not owner) || (n.owner && data && n.data));
    let msg = Tok { dst; k; owner; data; ver = (if data then n.ver else 0) } in
    Some
      {
        s with
        nodes = set_nth s.nodes src (strip_node n ~k ~owner);
        net = insert msg s.net;
      }
  end

(* The token-movement primitives a performance policy may use. *)
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

let broadcast s p ~src mk =
  let msgs = List.filteri (fun i _ -> i <> src) (List.init (nnodes p) mk) in
  if List.length s.net + List.length msgs > p.net_cap then None
  else Some { s with net = insert_all msgs s.net }

(* Forward held tokens to the active persistent requester at [node]. *)
let persistent_forward p s ~node ~req =
  let n = nth s.nodes node in
  if n.tok = 0 || node = req then None
  else begin
    let rw_write = req = writer in
    let mk ~k ~owner ~data = send_msg s p ~src:node ~dst:req ~k ~owner ~data in
    if rw_write then mk ~k:n.tok ~owner:n.owner ~data:n.data
    else if node = mem_ix p then mk ~k:n.tok ~owner:n.owner ~data:n.data
    else if n.owner then
      if n.tok = 1 then mk ~k:1 ~owner:true ~data:true
      else mk ~k:(n.tok - 1) ~owner:false ~data:true
    else if n.tok >= 2 then mk ~k:(n.tok - 1) ~owner:false ~data:n.data
    else None
  end

(* Caches other than the designated writer (0) and reader (1) are
   interchangeable; memory (the last index) is the home node. *)
let movable p = List.init (max 0 (p.caches - 2)) (fun i -> i + 2)

let apply_perm p f s =
  let n = nnodes p in
  let permute_positions l =
    match l with
    | [] -> []
    | hd :: _ ->
      let out = Array.make n hd in
      List.iteri (fun i x -> out.(f i) <- x) l;
      Array.to_list out
  in
  let fmsg = function
    | Tok r -> Tok { r with dst = f r.dst }
    | Act { dst; req } -> Act { dst = f dst; req = f req }
    | Deact { dst; req } -> Deact { dst = f dst; req = f req }
    | Arb_req { req } -> Arb_req { req = f req }
    | Arb_done { req } -> Arb_done { req = f req }
  in
  {
    s with
    nodes = permute_positions s.nodes;
    tables = permute_positions s.tables;
    node_active = List.map (Option.map f) (permute_positions s.node_active);
    arb_queue = List.map f s.arb_queue;
    net = norm_net (List.map fmsg s.net);
  }

let canonicalize p = Symmetry.canonical ~apply:(apply_perm p) ~movable:(movable p)

(* Visited-set key (see {!Explore.MODEL.key}): one int per node and per
   message, at field widths that [Explore.field] checks. *)
let pack_node n =
  let open Explore in
  field 8 n.tok lor (Bool.to_int n.owner lsl 8) lor (Bool.to_int n.data lsl 9)
  lor (field 8 n.ver lsl 10)

let pack_msg m =
  let open Explore in
  match m with
  | Tok { dst; k; owner; data; ver } ->
    (field 8 dst lsl 3) lor (field 8 k lsl 11) lor (Bool.to_int owner lsl 19)
    lor (Bool.to_int data lsl 20) lor (field 8 ver lsl 21)
  | Act { dst; req } -> 1 lor (field 8 dst lsl 3) lor (field 8 req lsl 11)
  | Deact { dst; req } -> 2 lor (field 8 dst lsl 3) lor (field 8 req lsl 11)
  | Arb_req { req } -> 3 lor (field 8 req lsl 3)
  | Arb_done { req } -> 4 lor (field 8 req lsl 3)

let pack_entry = function Empty -> 0 | Active -> 1 | Marked -> 2
let pack_row row = Explore.bits 2 pack_entry row
let pack_node_ix i = Explore.field 8 i
let pack_opt = function None -> 0 | Some i -> Explore.field 8 (i + 1)

let key s =
  let open Explore in
  let h =
    step seed
      (field 8 s.written lor (pack_opt s.arb_active lsl 8)
      lor (field 16 (bits 2 Fun.id s.reqs) lsl 16))
  in
  let h = step_list pack_node h s.nodes in
  let h = step_list pack_msg h s.net in
  let h = step_list pack_row h s.tables in
  let h = step_list pack_opt h s.node_active in
  finish (step_list pack_node_ix h s.arb_queue)

let make variant p : (module Explore.MODEL with type state = state) =
  (module struct
    type nonrec state = state

    let name =
      match variant with
      | Safety -> Printf.sprintf "TokenCMP-safety (%d caches, %d tokens)" p.caches p.tokens
      | Distributed -> Printf.sprintf "TokenCMP-dst (%d caches, %d tokens)" p.caches p.tokens
      | Arbiter -> Printf.sprintf "TokenCMP-arb (%d caches, %d tokens)" p.caches p.tokens

    let initial = [ initial_state p ]

    let satisfied s ~req =
      let n = nth s.nodes req in
      if req = writer then n.tok = p.tokens && n.data else n.tok >= 1 && n.data

    (* Deliver one network message. *)
    let deliver s i msg =
      let s = { s with net = remove_nth s.net i } in
      match msg with
      | Tok { dst; k; owner; data; ver } ->
        let n = nth s.nodes dst in
        let n' =
          {
            tok = n.tok + k;
            owner = n.owner || owner;
            data = n.data || data;
            ver = (if data then ver else n.ver);
          }
        in
        Some (Label.bare l_recv, { s with nodes = set_nth s.nodes dst n' })
      | Act { dst; req } -> (
        match variant with
        | Distributed ->
          let row = set_nth (nth s.tables dst) req Active in
          Some (Label.bare l_act, { s with tables = set_nth s.tables dst row })
        | Arbiter ->
          Some (Label.bare l_act, { s with node_active = set_nth s.node_active dst (Some req) })
        | Safety -> None)
      | Deact { dst; req } -> (
        match variant with
        | Distributed ->
          let row = set_nth (nth s.tables dst) req Empty in
          Some (Label.bare l_deact, { s with tables = set_nth s.tables dst row })
        | Arbiter ->
          let cur = nth s.node_active dst in
          let na = if cur = Some req then set_nth s.node_active dst None else s.node_active in
          Some (Label.bare l_deact, { s with node_active = na })
        | Safety -> None)
      | Arb_req { req } ->
        if s.arb_active = None then
          match broadcast s p ~src:(mem_ix p) (fun dst -> Act { dst; req }) with
          | Some s ->
            Some
              ( Label.bare l_arb_activate,
                {
                  s with
                  arb_active = Some req;
                  node_active = set_nth s.node_active (mem_ix p) (Some req);
                } )
          | None -> None
        else Some (Label.bare l_arb_queue, { s with arb_queue = s.arb_queue @ [ req ] })
      | Arb_done { req } -> (
        let s = { s with arb_active = None; node_active = set_nth s.node_active (mem_ix p) None } in
        match broadcast s p ~src:(mem_ix p) (fun dst -> Deact { dst; req }) with
        | None -> None
        | Some s -> (
          match s.arb_queue with
          | [] -> Some (Label.bare l_arb_done, s)
          | next :: rest -> (
            match broadcast s p ~src:(mem_ix p) (fun dst -> Act { dst; req = next }) with
            | None -> None
            | Some s ->
              Some
                ( Label.bare l_arb_next,
                  {
                    s with
                    arb_queue = rest;
                    arb_active = Some next;
                    node_active = set_nth s.node_active (mem_ix p) (Some next);
                  } ))))

    (* Active requester at a node, per variant. *)
    let active_at s node =
      match variant with
      | Safety -> None
      | Arbiter -> nth s.node_active node
      | Distributed ->
        let row = nth s.tables node in
        let rec scan i = function
          | [] -> None
          | (Active | Marked) :: _ -> Some i
          | Empty :: rest -> scan (i + 1) rest
        in
        scan 0 row

    let issue s req =
      if nth s.reqs req <> 0 then None
      else
        match variant with
        | Safety -> None
        | Arbiter ->
          if List.length s.net >= p.net_cap then None
          else
            Some
              {
                s with
                reqs = set_nth s.reqs req 1;
                net = insert (Arb_req { req }) s.net;
              }
        | Distributed ->
          let own = nth s.tables req in
          if List.exists (fun e -> e = Marked) own then None
          else
            let own = set_nth own req Active in
            let s = { s with tables = set_nth s.tables req own } in
            (match broadcast s p ~src:req (fun dst -> Act { dst; req }) with
            | None -> None
            | Some s -> Some { s with reqs = set_nth s.reqs req 1 })

    let complete s req =
      if nth s.reqs req <> 1 || not (satisfied s ~req) then None
      else begin
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
        let s = { s with reqs = set_nth s.reqs req 2 } in
        match variant with
        | Safety -> Some s
        | Arbiter ->
          if List.length s.net >= p.net_cap then None
          else Some { s with net = insert (Arb_done { req }) s.net }
        | Distributed ->
          let own = nth s.tables req in
          let own = set_nth own req Empty in
          (* Wave marking: remaining valid entries must drain first. *)
          let own = List.map (fun e -> if e = Active then Marked else e) own in
          let s = { s with tables = set_nth s.tables req own } in
          broadcast s p ~src:req (fun dst -> Deact { dst; req })
      end

    let next s =
      let moves = ref (policy_sends p s) in
      let add label st = moves := (label, st) :: !moves in
      (* message deliveries *)
      List.iteri
        (fun i msg ->
          match deliver s i msg with
          | Some (label, st) -> add label st
          | None -> ())
        s.net;
      (* a satisfied write outside any persistent request (policy path) *)
      let wn = nth s.nodes writer in
      if wn.tok = p.tokens && wn.data && s.written < p.max_writes then
        add (Label.bare l_write)
          {
            s with
            written = s.written + 1;
            nodes = set_nth s.nodes writer { wn with ver = s.written + 1 };
          };
      if variant <> Safety then begin
        List.iter
          (fun req ->
            (match issue s req with Some st -> add (Label.indexed l_issue req) st | None -> ());
            match complete s req with
            | Some st -> add (Label.indexed l_complete req) st
            | None -> ())
          [ writer; reader ];
        for node = 0 to nnodes p - 1 do
          match active_at s node with
          | Some req -> (
            match persistent_forward p s ~node ~req with
            | Some st -> add (Label.edge l_pfwd node req) st
            | None -> ())
          | None -> ()
        done
      end;
      !moves

    let invariant s =
      let node_tok = List.fold_left (fun a n -> a + n.tok) 0 s.nodes in
      let net_tok =
        List.fold_left (fun a m -> match m with Tok { k; _ } -> a + k | _ -> a) 0 s.net
      in
      let owners =
        List.fold_left (fun a n -> if n.owner then a + 1 else a) 0 s.nodes
        + List.fold_left
            (fun a m -> match m with Tok { owner = true; _ } -> a + 1 | _ -> a)
            0 s.net
      in
      if node_tok + net_tok <> p.tokens then
        Error (Printf.sprintf "token conservation: %d held + %d in flight" node_tok net_tok)
      else if owners <> 1 then Error (Printf.sprintf "%d owner tokens" owners)
      else if List.exists (fun n -> n.owner && not n.data) s.nodes then
        Error "owner without data"
      else if List.exists (fun n -> n.tok >= 1 && n.data && n.ver <> s.written) s.nodes then
        Error "readable copy with stale data (serial view broken)"
      else if
        List.exists
          (fun m -> match m with Tok { data = true; ver; _ } -> ver <> s.written | _ -> false)
          s.net
      then Error "in-flight data is stale (serial view broken)"
      else Ok ()

    let goal s = s.reqs = [ 2; 2 ]
    let canonicalize = canonicalize p
    let key = key
    let label = Label.render label_names

    let pp fmt s =
      Format.fprintf fmt "written=%d reqs=%s@." s.written
        (String.concat "," (List.map string_of_int s.reqs));
      List.iteri
        (fun i n ->
          Format.fprintf fmt "  node%d: tok=%d own=%b data=%b ver=%d@." i n.tok n.owner n.data
            n.ver)
        s.nodes;
      List.iter (fun m -> Format.fprintf fmt "  net: %s@." (
        match m with
        | Tok { dst; k; owner; data; ver } ->
          Printf.sprintf "Tok(dst=%d,k=%d,own=%b,data=%b,ver=%d)" dst k owner data ver
        | Act { dst; req } -> Printf.sprintf "Act(dst=%d,req=%d)" dst req
        | Deact { dst; req } -> Printf.sprintf "Deact(dst=%d,req=%d)" dst req
        | Arb_req { req } -> Printf.sprintf "ArbReq(%d)" req
        | Arb_done { req } -> Printf.sprintf "ArbDone(%d)" req)) s.net
  end)

let model variant p = make variant p
let safety p = (make Safety p :> (module Explore.MODEL))
let distributed p = (make Distributed p :> (module Explore.MODEL))
let arbiter p = (make Arbiter p :> (module Explore.MODEL))
