type params = { caches : int; max_writes : int; net_cap : int }

let default_params = { caches = 2; max_writes = 2; net_cap = 5 }

let writer = 0
let reader = 1

type cstate = I | S | O | E | M

type trans =
  | TNone
  | TWaitS
  | TWaitM of { have_data : bool; got : int; need : int option; txn : int option }

type cache = {
  st : cstate;
  ver : int;
  tr : trans;
  wb : (cstate * int) option;  (* three-phase writeback buffer *)
  wb_serial : int;  (* serial of the current buffer; 0 when none *)
}

type msg =
  | GetS of { src : int }
  | GetM of { src : int }
  | DataS of { dst : int; ver : int; txn : int }
  | DataE of { dst : int; ver : int; acks : int; txn : int }
  | FwdS of { dst : int; req : int; txn : int }
  | FwdM of { dst : int; req : int; acks : int; txn : int }
  | Inv of { dst : int; req : int }
  | InvAck of { dst : int }
  | AckCount of { dst : int; acks : int; txn : int }
  | Unblock of { src : int; txn : int }
  | WbReq of { src : int; serial : int }
  | WbGrant of { dst : int; serial : int }
  | WbCancel of { dst : int; serial : int }
  | WbData of { src : int; ver : int; valid : bool }

type dstate = {
  owner : int option;
  sharers : int;  (* bitmask *)
  busy : bool;
  cur : (int * int) option;  (* requester and txn id holding [busy] *)
  txn_next : int;
  defer : msg list;  (* FIFO of deferred GetS/GetM/WbReq *)
  wb_from : int option;
}

type state = {
  cs : cache list;
  dir : dstate;
  memver : int;
  net : msg list;
  written : int;
  reqs : int list;
}

open Lists

(* Transition-label primitives (see {!Label}), indexing [label_names]. *)
let l_defer, l_dir, l_dataS, l_dataS_drop, l_dataE, l_dataE_drop, l_acks = (0, 1, 2, 3, 4, 5, 6)
let l_acks_drop, l_invack, l_invack_drop, l_fwdS, l_fwdS_wb = (7, 8, 9, 10, 11)
let l_fwdS_stale, l_fwdM, l_fwdM_wb, l_fwdM_stale, l_inv, l_unblock = (12, 13, 14, 15, 16, 17)
let l_unblock_drop, l_wbgrant, l_wbgrant_stale, l_wbcancel, l_wbdata = (18, 19, 20, 21, 22)
let l_wbdata_drop, l_dir_pop, l_write, l_read, l_getS, l_getM = (23, 24, 25, 26, 27, 28)
let l_evict, l_drop = (29, 30)

let label_names =
  [| "defer"; "dir"; "dataS"; "dataS-drop"; "dataE"; "dataE-drop"; "acks"; "acks-drop";
     "invack"; "invack-drop"; "fwdS"; "fwdS-wb"; "fwdS-stale"; "fwdM"; "fwdM-wb"; "fwdM-stale";
     "inv"; "unblock"; "unblock-drop"; "wbgrant"; "wbgrant-stale"; "wbcancel"; "wbdata";
     "wbdata-drop"; "dir-pop"; "write"; "read"; "getS"; "getM"; "evict"; "drop" |]

let initial_state p =
  {
    cs =
      List.init p.caches (fun _ -> { st = I; ver = 0; tr = TNone; wb = None; wb_serial = 0 });
    dir =
      {
        owner = None;
        sharers = 0;
        busy = false;
        cur = None;
        txn_next = 0;
        defer = [];
        wb_from = None;
      };
    memver = 0;
    net = [];
    written = 0;
    reqs = [ 0; 0 ];
  }

let bits_to_list bits n = List.filter (fun i -> bits land (1 lsl i) <> 0) (List.init n (fun i -> i))

(* Send messages if the network has room. *)
let send p s msgs =
  if List.length s.net + List.length msgs > p.net_cap then None
  else Some { s with net = insert_all msgs s.net }

(* The directory serializes one transaction per block; this processes a
   request when the block is not busy. *)
let dir_process p s msg =
  let d = s.dir in
  assert (not d.busy);
  let txn = d.txn_next in
  match msg with
  | GetS { src } -> (
    let claim s =
      Some
        {
          s with
          dir =
            {
              d with
              busy = true;
              cur = Some (src, txn);
              txn_next = txn + 1;
              sharers = d.sharers lor (1 lsl src);
            };
        }
    in
    match d.owner with
    | Some o when o <> src -> (
      (* 3-hop indirection through the current owner. *)
      match send p s [ FwdS { dst = o; req = src; txn } ] with
      | None -> None
      | Some s -> claim s)
    | Some _ | None -> (
      match send p s [ DataS { dst = src; ver = s.memver; txn } ] with
      | None -> None
      | Some s -> claim s))
  | GetM { src } -> (
    let invs = bits_to_list (d.sharers land lnot (1 lsl src)) p.caches in
    let inv_msgs = List.map (fun c -> Inv { dst = c; req = src }) invs in
    let nacks = List.length invs in
    let finish s =
      Some
        {
          s with
          dir =
            {
              d with
              busy = true;
              cur = Some (src, txn);
              txn_next = txn + 1;
              owner = Some src;
              sharers = 0;
            };
        }
    in
    match d.owner with
    | Some o when o <> src -> (
      (* invalidation-ack counts ride the owner's data response: the
         requester must not complete before the owner's copy dies (the
         early-grant race this model originally caught) *)
      match send p s (FwdM { dst = o; req = src; acks = nacks; txn } :: inv_msgs) with
      | None -> None
      | Some s -> finish s)
    | Some _ -> (
      (* Upgrade by the current owner: permissions and acks only. *)
      match send p s (AckCount { dst = src; acks = nacks; txn } :: inv_msgs) with
      | None -> None
      | Some s -> finish s)
    | None -> (
      match send p s (DataE { dst = src; ver = s.memver; acks = nacks; txn } :: inv_msgs) with
      | None -> None
      | Some s -> finish s))
  | WbReq { src; serial } -> (
    if d.owner = Some src then
      match send p s [ WbGrant { dst = src; serial } ] with
      | None -> None
      | Some s -> Some { s with dir = { d with busy = true; wb_from = Some src } }
    else
      match send p s [ WbCancel { dst = src; serial } ] with
      | None -> None
      | Some s -> Some { s with dir = { d with busy = false } })
  | _ -> assert false

(* The txn id a message carries, or [max_int]. *)
let txn_of = function
  | DataS { txn; _ } | DataE { txn; _ } | AckCount { txn; _ }
  | FwdS { txn; _ } | FwdM { txn; _ } | Unblock { txn; _ } ->
    txn
  | GetS _ | GetM _ | Inv _ | InvAck _ | WbReq _ | WbGrant _ | WbCancel _ | WbData _ -> max_int

let shift_txn off = function
  | DataS r -> DataS { r with txn = r.txn - off }
  | DataE r -> DataE { r with txn = r.txn - off }
  | AckCount r -> AckCount { r with txn = r.txn - off }
  | FwdS r -> FwdS { r with txn = r.txn - off }
  | FwdM r -> FwdM { r with txn = r.txn - off }
  | Unblock r -> Unblock { r with txn = r.txn - off }
  | (GetS _ | GetM _ | Inv _ | InvAck _ | WbReq _ | WbGrant _ | WbCancel _ | WbData _) as m -> m

(* Rebase every serial by its cache's offset and every txn id by
   [toff] (see [normalize]). *)
let rebase p s ~toff =
  let smin = Array.make p.caches max_int in
  let note c serial = if serial < smin.(c) then smin.(c) <- serial in
  List.iteri (fun c cache -> if cache.wb <> None then note c cache.wb_serial) s.cs;
  let note_msg = function
    | WbReq { src = i; serial } | WbGrant { dst = i; serial } | WbCancel { dst = i; serial } ->
      note i serial
    | _ -> ()
  in
  List.iter note_msg s.net;
  List.iter note_msg s.dir.defer;
  let soff = Array.map (fun m -> if m = max_int then 0 else m - 1) smin in
  let cs =
    List.mapi
      (fun c cache ->
        let tr =
          match cache.tr with
          | TWaitM { have_data; got; need; txn = Some t } ->
            TWaitM { have_data; got; need; txn = Some (t - toff) }
          | (TWaitM _ | TWaitS | TNone) as tr -> tr
        in
        let wb_serial = if cache.wb <> None then cache.wb_serial - soff.(c) else 0 in
        { cache with tr; wb_serial })
      s.cs
  in
  let net =
    List.map
      (function
        | WbReq { src; serial } -> WbReq { src; serial = serial - soff.(src) }
        | WbGrant { dst; serial } -> WbGrant { dst; serial = serial - soff.(dst) }
        | WbCancel { dst; serial } -> WbCancel { dst; serial = serial - soff.(dst) }
        | m -> shift_txn toff m)
      s.net
  in
  (* Known defect, kept so the graph stays comparable with every
     recorded directory row: WbReqs parked in [defer] are not rebased,
     though their serials count towards the offsets above. A deferred
     WbReq can then disagree with its cache's rebased buffer. In the
     3-cache model (net_cap 3), after
       getM2;getM0;dir;dataE;evict2;unblock;dir;fwdM-wb;getM2;dataE;
       unblock;dir;dir;fwdM;dataE;evict2;defer;wbcancel
     cache 2's buffer is #1 while its only writeback request, deferred,
     still says #2: the grant comes back stale, the buffer never drains,
     and cache 2 can never request again. Rebasing them changes the
     directory graph and every directory row. *)
  let dir =
    {
      s.dir with
      txn_next = s.dir.txn_next - toff;
      cur = (match s.dir.cur with Some (c, t) -> Some (c, t - toff) | None -> None);
      defer = List.map (shift_txn toff) s.dir.defer;
    }
  in
  { s with cs; net = norm_net net; dir }

(* Writeback serials and transaction ids grow without bound; only their
   relative order matters, so rebase them to keep the state space finite
   (an order-preserving symmetry reduction): each cache's smallest live
   serial becomes 1 (0 = "no buffer") and the smallest live txn id 0.

   One allocation-free pass over the caches, the network and the
   deferral queue finds whether any offset is non-zero. Most successors
   need no rebase and are returned as they are: their network is already
   sorted, since every update inserts into or removes from a sorted
   list. *)
let normalize p s =
  (* bit i of [live]: cache i holds a live serial; of [ones]: one of
     them is 1. A cache's offset is zero when it holds none, or when
     its smallest is 1 (serials below 1 and stray serials on an empty
     buffer take the rebase path too). *)
  let live = ref 0 and ones = ref 0 and odd = ref false in
  let tmin = ref s.dir.txn_next in
  (match s.dir.cur with Some (_, t) -> if t < !tmin then tmin := t | None -> ());
  let cs = ref s.cs and i = ref 0 in
  while !cs != [] do
    match !cs with
    | [] -> ()
    | cache :: rest ->
      (match cache.wb with
      | Some _ ->
        live := !live lor (1 lsl !i);
        if cache.wb_serial = 1 then ones := !ones lor (1 lsl !i)
        else if cache.wb_serial < 1 then odd := true
      | None -> if cache.wb_serial <> 0 then odd := true);
      (match cache.tr with
      | TWaitM { txn = Some t; _ } -> if t < !tmin then tmin := t
      | TWaitM _ | TWaitS | TNone -> ());
      cs := rest;
      incr i
  done;
  (* the network, then the deferral queue *)
  let msgs = ref s.net and in_defer = ref false in
  while !msgs != [] || not !in_defer do
    match !msgs with
    | [] ->
      in_defer := true;
      msgs := s.dir.defer
    | m :: rest ->
      (match m with
      | WbReq { src = c; serial } | WbGrant { dst = c; serial } | WbCancel { dst = c; serial } ->
        live := !live lor (1 lsl c);
        if serial = 1 then ones := !ones lor (1 lsl c) else if serial < 1 then odd := true
      | _ ->
        let t = txn_of m in
        if t < !tmin then tmin := t);
      msgs := rest
  done;
  if !live land lnot !ones = 0 && (not !odd) && !tmin = 0 then s else rebase p s ~toff:!tmin

(* Caches other than the designated writer (0) and reader (1) are
   interchangeable; the directory/memory is the home and has no index
   in [cs]. *)
let movable p = List.init (max 0 (p.caches - 2)) (fun i -> i + 2)

let apply_perm p f s =
  let permute_positions l =
    match l with
    | [] -> []
    | hd :: _ ->
      let out = Array.make p.caches hd in
      List.iteri (fun i x -> out.(f i) <- x) l;
      Array.to_list out
  in
  let fbits bits =
    List.fold_left
      (fun acc i -> acc lor (1 lsl f i))
      0
      (bits_to_list bits p.caches)
  in
  let fmsg = function
    | GetS { src } -> GetS { src = f src }
    | GetM { src } -> GetM { src = f src }
    | DataS r -> DataS { r with dst = f r.dst }
    | DataE r -> DataE { r with dst = f r.dst }
    | FwdS r -> FwdS { r with dst = f r.dst; req = f r.req }
    | FwdM r -> FwdM { r with dst = f r.dst; req = f r.req }
    | Inv { dst; req } -> Inv { dst = f dst; req = f req }
    | InvAck { dst } -> InvAck { dst = f dst }
    | AckCount r -> AckCount { r with dst = f r.dst }
    | Unblock r -> Unblock { r with src = f r.src }
    | WbReq r -> WbReq { r with src = f r.src }
    | WbGrant r -> WbGrant { r with dst = f r.dst }
    | WbCancel r -> WbCancel { r with dst = f r.dst }
    | WbData r -> WbData { r with src = f r.src }
  in
  {
    s with
    cs = permute_positions s.cs;
    dir =
      {
        s.dir with
        owner = Option.map f s.dir.owner;
        sharers = fbits s.dir.sharers;
        cur = Option.map (fun (c, t) -> (f c, t)) s.dir.cur;
        defer = List.map fmsg s.dir.defer;  (* FIFO: order is meaningful, keep it *)
        wb_from = Option.map f s.dir.wb_from;
      };
    net = norm_net (List.map fmsg s.net);
  }

let canonicalize p = Symmetry.canonical ~apply:(apply_perm p) ~movable:(movable p)

(* Visited-set key (see {!Explore.MODEL.key}): the directory's scalars
   share two ints, then one int per cache and per message, at field
   widths that [Explore.field] checks. *)
let pack_st = function I -> 0 | S -> 1 | O -> 2 | E -> 3 | M -> 4
let pack_opt w = function None -> 0 | Some i -> Explore.field w (i + 1)

let pack_cache c =
  let open Explore in
  let tr =
    match c.tr with
    | TNone -> 0
    | TWaitS -> 1
    | TWaitM { have_data; got; need; txn } ->
      2 lor (Bool.to_int have_data lsl 2) lor (field 6 got lsl 3) lor (pack_opt 7 need lsl 9)
      lor (pack_opt 11 txn lsl 16)
  in
  let wb = match c.wb with None -> 0 | Some (st, v) -> 1 lor (pack_st st lsl 1) lor (field 6 v lsl 4) in
  pack_st c.st lor (field 6 c.ver lsl 3) lor (tr lsl 9) lor (wb lsl 36)
  lor (field 12 c.wb_serial lsl 46)

let pack_msg m =
  let open Explore in
  let f8 x = field 8 x and f16 x = field 16 x in
  match m with
  | GetS { src } -> 0 lor (f8 src lsl 4)
  | GetM { src } -> 1 lor (f8 src lsl 4)
  | DataS { dst; ver; txn } -> 2 lor (f8 dst lsl 4) lor (f8 ver lsl 12) lor (f16 txn lsl 20)
  | DataE { dst; ver; acks; txn } ->
    3 lor (f8 dst lsl 4) lor (f8 ver lsl 12) lor (f8 acks lsl 20) lor (f16 txn lsl 28)
  | FwdS { dst; req; txn } -> 4 lor (f8 dst lsl 4) lor (f8 req lsl 12) lor (f16 txn lsl 20)
  | FwdM { dst; req; acks; txn } ->
    5 lor (f8 dst lsl 4) lor (f8 req lsl 12) lor (f8 acks lsl 20) lor (f16 txn lsl 28)
  | Inv { dst; req } -> 6 lor (f8 dst lsl 4) lor (f8 req lsl 12)
  | InvAck { dst } -> 7 lor (f8 dst lsl 4)
  | AckCount { dst; acks; txn } -> 8 lor (f8 dst lsl 4) lor (f8 acks lsl 12) lor (f16 txn lsl 20)
  | Unblock { src; txn } -> 9 lor (f8 src lsl 4) lor (f16 txn lsl 12)
  | WbReq { src; serial } -> 10 lor (f8 src lsl 4) lor (f16 serial lsl 12)
  | WbGrant { dst; serial } -> 11 lor (f8 dst lsl 4) lor (f16 serial lsl 12)
  | WbCancel { dst; serial } -> 12 lor (f8 dst lsl 4) lor (f16 serial lsl 12)
  | WbData { src; ver; valid } ->
    13 lor (f8 src lsl 4) lor (f8 ver lsl 12) lor (Bool.to_int valid lsl 20)

let key s =
  let open Explore in
  let d = s.dir in
  let h =
    step seed
      (field 8 s.memver lor (field 8 s.written lsl 8)
      lor (field 8 (bits 2 Fun.id s.reqs) lsl 16)
      lor (pack_opt 9 d.owner lsl 24)
      lor (Bool.to_int d.busy lsl 33)
      lor (pack_opt 9 d.wb_from lsl 34))
  in
  let cur = match d.cur with None -> 0 | Some (c, t) -> 1 lor (field 8 c lsl 1) lor (field 16 t lsl 9) in
  let h = step (step h (cur lor (field 16 d.txn_next lsl 25))) d.sharers in
  let h = step_list pack_cache h s.cs in
  let h = step_list pack_msg h s.net in
  finish (step_list pack_msg h d.defer)

(* The largest serial of cache [c] among [msgs], or [acc]. *)
let rec max_serial c acc = function
  | [] -> acc
  | m :: rest ->
    let acc =
      match m with
      | WbReq { src = i; serial } | WbGrant { dst = i; serial } | WbCancel { dst = i; serial }
        when i = c ->
        max acc serial
      | _ -> acc
    in
    max_serial c acc rest

let flat_sym p : (module Explore.MODEL with type state = state) =
  (module struct
    type nonrec state = state

    let name = Printf.sprintf "Flat directory MOESI (%d caches)" p.caches
    let initial = [ initial_state p ]

    (* a TWaitM completes only once its grant (with txn id) arrived *)
    let try_complete_m c =
      match c.tr with
      | TWaitM { have_data = true; got; need = Some n; txn = Some txn } when got >= n ->
        Some ({ c with st = M; tr = TNone }, txn)
      | TWaitM _ | TWaitS | TNone -> None

    (* Deliver network message index [i]. *)
    let deliver s i msg =
      let s = { s with net = remove_nth s.net i } in
      let cache dst = nth s.cs dst in
      let setc dst c = { s with cs = set_nth s.cs dst c } in
      match msg with
      | GetS _ | GetM _ | WbReq _ ->
        if s.dir.busy then
          Some (Label.bare l_defer, { s with dir = { s.dir with defer = s.dir.defer @ [ msg ] } })
        else Option.map (fun s -> (Label.bare l_dir, s)) (dir_process p s msg)
      | DataS { dst; ver; txn } -> (
        let c = cache dst in
        match c.tr with
        | TWaitS ->
          let s = setc dst { c with st = S; ver; tr = TNone } in
          Option.map (fun s -> (Label.bare l_dataS, s)) (send p s [ Unblock { src = dst; txn } ])
        | TWaitM _ | TNone -> Some (Label.bare l_dataS_drop, s))
      | DataE { dst; ver; acks; txn } -> (
        let c = cache dst in
        match c.tr with
        | TWaitM { have_data = _; got; need; txn = _ } ->
          let need = Some (acks + match need with Some n -> n | None -> 0) in
          let c = { c with ver; tr = TWaitM { have_data = true; got; need; txn = Some txn } } in
          let c, completed =
            match try_complete_m c with Some (c, txn) -> (c, Some txn) | None -> (c, None)
          in
          let s = setc dst c in
          (match completed with
          | Some txn ->
            Option.map (fun s -> (Label.bare l_dataE, s)) (send p s [ Unblock { src = dst; txn } ])
          | None -> Some (Label.bare l_dataE, s))
        | TWaitS | TNone -> Some (Label.bare l_dataE_drop, s))
      | AckCount { dst; acks; txn } -> (
        let c = cache dst in
        match c.tr with
        | TWaitM { have_data; got; need; txn = _ } ->
          let have_data = have_data || (match c.st with O | E | M -> true | S | I -> false) in
          let need = Some (acks + match need with Some n -> n | None -> 0) in
          let c = { c with tr = TWaitM { have_data; got; need; txn = Some txn } } in
          let c, completed =
            match try_complete_m c with Some (c, txn) -> (c, Some txn) | None -> (c, None)
          in
          let s = setc dst c in
          (match completed with
          | Some txn ->
            Option.map (fun s -> (Label.bare l_acks, s)) (send p s [ Unblock { src = dst; txn } ])
          | None -> Some (Label.bare l_acks, s))
        | TWaitS | TNone -> Some (Label.bare l_acks_drop, s))
      | InvAck { dst } -> (
        let c = cache dst in
        match c.tr with
        | TWaitM { have_data; got; need; txn } ->
          let c = { c with tr = TWaitM { have_data; got = got + 1; need; txn } } in
          let c, completed =
            match try_complete_m c with Some (c, txn) -> (c, Some txn) | None -> (c, None)
          in
          let s = setc dst c in
          (match completed with
          | Some txn ->
            Option.map (fun s -> (Label.bare l_invack, s)) (send p s [ Unblock { src = dst; txn } ])
          | None -> Some (Label.bare l_invack, s))
        | TWaitS | TNone -> Some (Label.bare l_invack_drop, s))
      | FwdS { dst; req; txn } -> (
        let c = cache dst in
        match c.st with
        | M | E | O ->
          let st = match c.st with M -> O | E -> S | other -> other in
          let s = setc dst { c with st } in
          Option.map
            (fun s -> (Label.bare l_fwdS, s))
            (send p s [ DataS { dst = req; ver = c.ver; txn } ])
        | S | I -> (
          match c.wb with
          | Some (wst, wver) ->
            let wst = match wst with M -> O | E -> S | other -> other in
            let s = setc dst { c with wb = Some (wst, wver) } in
            Option.map
              (fun s -> (Label.bare l_fwdS_wb, s))
              (send p s [ DataS { dst = req; ver = wver; txn } ])
          | None -> Some (Label.bare l_fwdS_stale, s)))
      | FwdM { dst; req; acks; txn } -> (
        let c = cache dst in
        match c.st with
        | M | E | O ->
          let s = setc dst { c with st = I } in
          Option.map
            (fun s -> (Label.bare l_fwdM, s))
            (send p s [ DataE { dst = req; ver = c.ver; acks; txn } ])
        | S | I -> (
          match c.wb with
          | Some (_, wver) ->
            let s = setc dst { c with wb = None; wb_serial = 0 } in
            Option.map
              (fun s -> (Label.bare l_fwdM_wb, s))
              (send p s [ DataE { dst = req; ver = wver; acks; txn } ])
          | None -> Some (Label.bare l_fwdM_stale, s)))
      | Inv { dst; req } ->
        let c = cache dst in
        let c = match c.st with S | O -> { c with st = I } | M | E | I -> c in
        (* an upgrade in flight loses its cached data with the copy *)
        let c =
          match c.tr with
          | TWaitM { have_data = true; got; need; txn } when c.st = I ->
            { c with tr = TWaitM { have_data = false; got; need; txn } }
          | TWaitM _ | TWaitS | TNone -> c
        in
        let s = setc dst c in
        Option.map (fun s -> (Label.bare l_inv, s)) (send p s [ InvAck { dst = req } ])
      | Unblock { src; txn } ->
        if s.dir.cur = Some (src, txn) then
          Some (Label.bare l_unblock, { s with dir = { s.dir with busy = false; cur = None } })
        else Some (Label.bare l_unblock_drop, s)
      | WbGrant { dst; serial } -> (
        let c = cache dst in
        match c.wb with
        | Some (_, wver) when serial = c.wb_serial ->
          let s = setc dst { c with wb = None; wb_serial = 0 } in
          Option.map
            (fun s -> (Label.bare l_wbgrant, s))
            (send p s [ WbData { src = dst; ver = wver; valid = true } ])
        | Some _ | None ->
          (* stale grant for an already-consumed buffer instance *)
          Option.map
            (fun s -> (Label.bare l_wbgrant_stale, s))
            (send p s [ WbData { src = dst; ver = 0; valid = false } ]))
      | WbCancel { dst; serial } ->
        let c = cache dst in
        (* a cancel may only kill the buffer instance it answers *)
        let c =
          if serial = c.wb_serial && c.wb <> None then { c with wb = None; wb_serial = 0 }
          else c
        in
        Some (Label.bare l_wbcancel, setc dst c)
      | WbData { src; ver; valid } ->
        let d = s.dir in
        if d.wb_from = Some src then begin
          let d =
            if valid then { d with owner = None; busy = false; wb_from = None }
            else { d with busy = false; wb_from = None }
          in
          Some (Label.bare l_wbdata, { s with dir = d; memver = (if valid then ver else s.memver) })
        end
        else Some (Label.bare l_wbdata_drop, s)

    let next s =
      let moves = ref [] in
      let add label st = moves := (label, normalize p st) :: !moves in
      (* deliveries *)
      List.iteri
        (fun i msg -> match deliver s i msg with Some (l, st) -> add l st | None -> ())
        s.net;
      (* directory pops a deferred request once idle *)
      (match s.dir.defer with
      | first :: rest when not s.dir.busy -> (
        let s' = { s with dir = { s.dir with defer = rest } } in
        match dir_process p s' first with Some st -> add (Label.bare l_dir_pop) st | None -> ())
      | _ -> ());
      (* cache-initiated actions *)
      List.iteri
        (fun c cache ->
          if cache.tr = TNone then begin
            (* requests: goal requesters re-request until their goal
               operation lands (an Inv can race ahead of it); others
               request freely *)
            let may_request = if c = writer || c = reader then nth s.reqs c <= 1 else true in
            if may_request && cache.wb = None then begin
              (if cache.st = I then
                 let tr = TWaitS in
                 let s' = { s with cs = set_nth s.cs c { cache with tr } } in
                 let s' =
                   if c = writer || c = reader then { s' with reqs = set_nth s.reqs c 1 }
                   else s'
                 in
                 match send p s' [ GetS { src = c } ] with
                 | Some st -> if c <> writer then add (Label.indexed l_getS c) st
                 | None -> ());
              match cache.st with
              | I | S | O ->
                let have_data = cache.st <> I in
                let tr = TWaitM { have_data; got = 0; need = None; txn = None } in
                let s' = { s with cs = set_nth s.cs c { cache with tr } } in
                let s' =
                  if c = writer || c = reader then { s' with reqs = set_nth s.reqs c 1 } else s'
                in
                (match send p s' [ GetM { src = c } ] with
                | Some st -> if c <> reader then add (Label.indexed l_getM c) st
                | None -> ())
              | E | M -> ()
            end;
            (* evictions *)
            match cache.st with
            | M | E | O when cache.wb = None -> (
              (* a fresh serial must exceed every serial still in
                 flight for this cache, or a floating stale cancel
                 could collide with the new buffer *)
              let serial = 1 + max_serial c (max_serial c 0 s.net) s.dir.defer in
              let s' =
                {
                  s with
                  cs =
                    set_nth s.cs c
                      { cache with st = I; wb = Some (cache.st, cache.ver); wb_serial = serial };
                }
              in
              match send p s' [ WbReq { src = c; serial } ] with
              | Some st -> add (Label.indexed l_evict c) st
              | None -> ())
            | S ->
              add
                (Label.indexed l_drop c)
                { s with cs = set_nth s.cs c { cache with st = I } }
            | M | E | O | I -> ()
          end)
        s.cs;
      (* goal operations *)
      let w = nth s.cs writer in
      if nth s.reqs writer = 1 && (w.st = M || w.st = E) && s.written < p.max_writes then
        add (Label.bare l_write)
          {
            s with
            written = s.written + 1;
            cs = set_nth s.cs writer { w with st = M; ver = s.written + 1 };
            reqs = set_nth s.reqs writer 2;
          };
      let r = nth s.cs reader in
      if nth s.reqs reader = 1 && r.st <> I && r.tr = TNone then
        add (Label.bare l_read) { s with reqs = set_nth s.reqs reader 2 };
      !moves

    let invariant s =
      let excl =
        List.length (List.filter (fun c -> c.st = M || c.st = E) s.cs)
      in
      let valid = List.filter (fun c -> c.st <> I) s.cs in
      if excl > 1 then Error "two exclusive copies"
      else if excl = 1 && List.length valid > 1 then Error "exclusive copy alongside other copies"
      else if List.exists (fun c -> c.st <> I && c.ver <> s.written) s.cs then
        Error "readable copy with stale data (serial view broken)"
      else if
        List.exists
          (fun m ->
            match m with
            | DataS { ver; _ } | DataE { ver; _ } -> ver <> s.written
            | WbData { ver; valid = true; _ } -> ver <> s.written
            | _ -> false)
          s.net
      then Error "in-flight data is stale (serial view broken)"
      else Ok ()

    let goal s = s.reqs = [ 2; 2 ]
    let canonicalize = canonicalize p
    let key = key
    let label = Label.render label_names

    let pp fmt s =
      let st_name = function I -> "I" | S -> "S" | O -> "O" | E -> "E" | M -> "M" in
      Format.fprintf fmt "written=%d memver=%d reqs=%s@." s.written s.memver
        (String.concat "," (List.map string_of_int s.reqs));
      Format.fprintf fmt "  dir: owner=%s sharers=%x busy=%b cur=%s wb_from=%s defer=%d@."
        (match s.dir.owner with Some o -> string_of_int o | None -> "-")
        s.dir.sharers s.dir.busy
        (match s.dir.cur with Some (c, t) -> Printf.sprintf "%d.t%d" c t | None -> "-")
        (match s.dir.wb_from with Some c -> string_of_int c | None -> "-")
        (List.length s.dir.defer);
      List.iteri
        (fun i c ->
          Format.fprintf fmt "  cache%d: %s ver=%d tr=%s wb=%s#%d@." i (st_name c.st) c.ver
            (match c.tr with
            | TNone -> "-"
            | TWaitS -> "WaitS"
            | TWaitM { have_data; got; need; txn } ->
              Printf.sprintf "WaitM(data=%b,got=%d,need=%s,txn=%s)" have_data got
                (match need with Some n -> string_of_int n | None -> "?")
                (match txn with Some t -> string_of_int t | None -> "?"))
            (match c.wb with
            | Some (st, v) -> Printf.sprintf "%s@v%d" (st_name st) v
            | None -> "-")
            c.wb_serial)
        s.cs;
      List.iter
        (fun m ->
          Format.fprintf fmt "  net: %s@."
            (match m with
            | GetS { src } -> Printf.sprintf "GetS(%d)" src
            | GetM { src } -> Printf.sprintf "GetM(%d)" src
            | DataS { dst; ver; txn } -> Printf.sprintf "DataS(dst=%d,v=%d,t%d)" dst ver txn
            | DataE { dst; ver; acks; txn } ->
              Printf.sprintf "DataE(dst=%d,v=%d,acks=%d,t%d)" dst ver acks txn
            | FwdS { dst; req; txn } -> Printf.sprintf "FwdS(dst=%d,req=%d,t%d)" dst req txn
            | FwdM { dst; req; acks; txn } ->
              Printf.sprintf "FwdM(dst=%d,req=%d,acks=%d,t%d)" dst req acks txn
            | Inv { dst; req } -> Printf.sprintf "Inv(dst=%d,req=%d)" dst req
            | InvAck { dst } -> Printf.sprintf "InvAck(dst=%d)" dst
            | AckCount { dst; acks; txn } -> Printf.sprintf "AckCount(dst=%d,%d,t%d)" dst acks txn
            | Unblock { src; txn } -> Printf.sprintf "Unblock(%d,t%d)" src txn
            | WbReq { src; serial } -> Printf.sprintf "WbReq(%d,#%d)" src serial
            | WbGrant { dst; serial } -> Printf.sprintf "WbGrant(%d,#%d)" dst serial
            | WbCancel { dst; serial } -> Printf.sprintf "WbCancel(%d,#%d)" dst serial
            | WbData { src; ver; valid } -> Printf.sprintf "WbData(%d,v=%d,valid=%b)" src ver valid))
        s.net
  end)

let flat p = (flat_sym p :> (module Explore.MODEL))

let fallback_loc = function `Token -> 330 | `Directory -> 390 | `Recovery -> 280

let model_loc which =
  let file =
    match which with
    | `Token -> "lib/mc/token_model.ml"
    | `Directory -> "lib/mc/dir_model.ml"
    | `Recovery -> "lib/mc/recovery_model.ml"
  in
  let count path =
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line <> "" && not (String.length line >= 2 && String.sub line 0 2 = "(*") then incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  in
  let candidates = [ file; Filename.concat ".." file; Filename.concat "../.." file ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> ( try count path with Sys_error _ -> fallback_loc which)
  | None -> fallback_loc which
