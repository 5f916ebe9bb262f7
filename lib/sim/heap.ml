(* 4-ary min-heap over parallel int arrays. Heap position [i] holds the
   entry [(keys.(i), seqs.(i))] whose value is [values.(slots.(i))];
   its children are positions [4i+1 .. 4i+4]. Four children per node
   halve the depth of a binary heap, and a sift-down compares the
   children in one contiguous run of [keys].

   Values never move: a sift moves only unboxed ints, so it runs no
   write barrier, and no entry record is allocated per push or chased
   per comparison. [slots] is always a permutation of [0 .. capacity-1]:
   positions [0 .. size-1] name the occupied value slots and positions
   [size ..] the free ones, so a push takes the slot parked at position
   [size] and a pop parks the freed slot at the position it vacates. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable values : 'a array;
  mutable size : int;
}

(* Filler for free [values] slots. They are never read, so one
   immediate stands in for every element type; it also keeps [values]
   an ordinary (non-float) array. Blanking a slot as soon as its value
   leaves keeps popped closures collectable instead of pinned for the
   array's lifetime. *)
let blank () : 'a = Obj.magic 0

let create () = { keys = [||]; seqs = [||]; slots = [||]; values = [||]; size = 0 }
let length h = h.size
let is_empty h = h.size = 0

(* Only called when full, so every slot is occupied and the new ones
   [old .. capacity-1] are free, parked at their own positions. *)
let grow h =
  let old = Array.length h.keys in
  let capacity = max 64 (2 * old) in
  let extend a fill =
    let b = Array.make capacity fill in
    Array.blit a 0 b 0 old;
    b
  in
  h.keys <- extend h.keys 0;
  h.seqs <- extend h.seqs 0;
  h.values <- extend h.values (blank ());
  let slots = Array.init capacity Fun.id in
  Array.blit h.slots 0 slots 0 old;
  h.slots <- slots

(* The sift loops index only positions below [size], so their array
   reads and writes skip the bounds check. They are loops rather than
   local recursive functions, which would allocate a closure per call. *)
let push h ~key ~seq value =
  if h.size >= Array.length h.keys then grow h;
  let keys = h.keys and seqs = h.seqs and slots = h.slots in
  let slot = slots.(h.size) in
  h.values.(slot) <- value;
  (* Sift a hole up from the new last position, then fill it. *)
  let i = ref h.size and rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pk = Array.unsafe_get keys p in
    if key < pk || (key = pk && seq < Array.unsafe_get seqs p) then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set slots !i (Array.unsafe_get slots p);
      i := p
    end
    else rising := false
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  slots.(!i) <- slot;
  h.size <- h.size + 1

(* Remove the root entry, whose value the caller has already taken:
   sift a hole down from the root, drop the former last entry into it,
   and park the root's slot, now free, at the vacated last position. *)
let remove_min h =
  let n = h.size - 1 in
  h.size <- n;
  let keys = h.keys and seqs = h.seqs and slots = h.slots in
  let freed = slots.(0) in
  h.values.(freed) <- blank ();
  if n > 0 then begin
    let k = keys.(n) and s = seqs.(n) and last = slots.(n) in
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let c = (4 * !i) + 1 in
      if c >= n then sinking := false
      else begin
        (* Least of the up-to-four children [c .. c+3]. *)
        let m = ref c in
        for j = c + 1 to min (c + 3) (n - 1) do
          let kj = Array.unsafe_get keys j and km = Array.unsafe_get keys !m in
          if kj < km || (kj = km && Array.unsafe_get seqs j < Array.unsafe_get seqs !m) then
            m := j
        done;
        let m = !m in
        let km = Array.unsafe_get keys m in
        if km < k || (km = k && Array.unsafe_get seqs m < s) then begin
          Array.unsafe_set keys !i km;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs m);
          Array.unsafe_set slots !i (Array.unsafe_get slots m);
          i := m
        end
        else sinking := false
      end
    done;
    keys.(!i) <- k;
    seqs.(!i) <- s;
    slots.(!i) <- last
  end;
  slots.(n) <- freed

let empty_pop () = invalid_arg "Sim.Heap.pop: heap is empty"

let pop_value h =
  if h.size = 0 then empty_pop ();
  let v = h.values.(h.slots.(0)) in
  remove_min h;
  v

let pop h =
  if h.size = 0 then empty_pop ();
  let k = h.keys.(0) and s = h.seqs.(0) and v = h.values.(h.slots.(0)) in
  remove_min h;
  (k, s, v)

let peek_key h = if h.size = 0 then None else Some h.keys.(0)
let min_key h = if h.size = 0 then max_int else h.keys.(0)

let clear h =
  for i = 0 to h.size - 1 do
    h.values.(h.slots.(i)) <- blank ()
  done;
  h.size <- 0
