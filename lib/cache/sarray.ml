(* Structure of arrays, one slot per line, row-major by set: a probe of
   a set reads one contiguous run of [tags] and touches [states] only on
   a tag match, so the broadcast no-op probe (block absent) never leaves
   the tag run. A free slot holds [None] in [states] and -1 in [tags];
   its stamp is stale and never read. *)
type 'a t = {
  nsets : int;
  nways : int;
  tags : Addr.t array;
  stamps : int array; (* LRU: tick of the last insert/touch *)
  states : 'a option array;
  mutable tick : int;
  mutable population : int;
}

let create ~sets ~ways =
  assert (sets > 0 && ways > 0);
  let n = sets * ways in
  {
    nsets = sets;
    nways = ways;
    tags = Array.make n (-1);
    stamps = Array.make n 0;
    states = Array.make n None;
    tick = 0;
    population = 0;
  }

let population t = t.population
let sets t = t.nsets
let ways t = t.nways

let base t a = Addr.set_index ~sets:t.nsets a * t.nways

(* Slot holding [a], or -1. A loop, not a local recursive function,
   which would allocate a closure per probe. *)
let slot t a =
  let i = ref (base t a) and found = ref (-1) in
  let last = !i + t.nways in
  while !i < last do
    if t.tags.(!i) = a && t.states.(!i) != None then begin
      found := !i;
      i := last
    end
    else incr i
  done;
  !found

let find t a =
  let i = slot t a in
  if i < 0 then None else t.states.(i)

let mem t a = slot t a >= 0

let touch t a =
  let i = slot t a in
  if i >= 0 then begin
    t.tick <- t.tick + 1;
    t.stamps.(i) <- t.tick
  end

(* Replacement slot of [a]'s set: the first free way, else the least
   recently used one. *)
let lru_slot t a =
  let b = base t a in
  let best = ref b in
  for i = b + 1 to b + t.nways - 1 do
    if t.states.(i) == None then begin
      if t.states.(!best) != None then best := i
    end
    else if t.states.(!best) != None && t.stamps.(i) < t.stamps.(!best) then best := i
  done;
  !best

let victim_for t a =
  if mem t a then None
  else
    let i = lru_slot t a in
    match t.states.(i) with None -> None | Some st -> Some (t.tags.(i), st)

let insert t a st =
  if mem t a then invalid_arg "Sarray.insert: block already resident";
  let i = lru_slot t a in
  if t.states.(i) != None then invalid_arg "Sarray.insert: set full";
  t.tags.(i) <- a;
  t.states.(i) <- Some st;
  t.tick <- t.tick + 1;
  t.stamps.(i) <- t.tick;
  t.population <- t.population + 1

let remove t a =
  let i = slot t a in
  if i >= 0 then begin
    t.states.(i) <- None;
    t.tags.(i) <- -1;
    t.population <- t.population - 1
  end

let iter f t =
  Array.iteri (fun i st -> match st with None -> () | Some st -> f t.tags.(i) st) t.states
