(* Reference priority queue for the differential tests: a plain binary
   min-heap of boxed [(key, seq, value)] entries, ordered by [(key,
   seq)]. It is the simplest correct realisation of the order
   [Sim.Heap] must reproduce. *)

type 'a entry = { key : int; seq : int; value : 'a }
type 'a t = { mutable data : 'a entry option array; mutable size : int }

let create () = { data = [||]; size = 0 }
let is_empty h = h.size = 0

let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)
let get h i = Option.get h.data.(i)

let push h ~key ~seq value =
  if h.size >= Array.length h.data then begin
    let data = Array.make (max 16 (2 * h.size)) None in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end;
  let entry = { key; seq; value } in
  let rec up i =
    let parent = (i - 1) / 2 in
    if i > 0 && less entry (get h parent) then begin
      h.data.(i) <- h.data.(parent);
      up parent
    end
    else h.data.(i) <- Some entry
  in
  up h.size;
  h.size <- h.size + 1

let pop h =
  let top = get h 0 in
  h.size <- h.size - 1;
  let last = get h h.size in
  h.data.(h.size) <- None;
  if h.size > 0 then begin
    let rec down i =
      let left = (2 * i) + 1 in
      let right = left + 1 in
      let child =
        if right < h.size && less (get h right) (get h left) then right else left
      in
      if left < h.size && less (get h child) last then begin
        h.data.(i) <- h.data.(child);
        down child
      end
      else h.data.(i) <- Some last
    in
    down 0
  end;
  (top.key, top.seq, top.value)
