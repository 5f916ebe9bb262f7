(** The event queue: a 4-ary min-heap keyed by [(key, seq)] pairs.

    [seq] breaks ties so that elements with equal keys pop in insertion
    order, which keeps event processing deterministic.

    Keys and seqs live in parallel int arrays, next to a third int
    array that names each entry's slot in a values array. A sift moves
    only integers and a value stays in its slot from push to pop, so
    push and pop allocate nothing (apart from doubling the arrays when
    they fill) and run no write barrier while sifting. A popped or
    cleared value is dropped from its slot at once, so the heap never
    keeps dead values reachable. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** [push h ~key ~seq v] inserts [v] with priority [(key, seq)]. *)
val push : 'a t -> key:int -> seq:int -> 'a -> unit

(** [pop h] removes and returns the minimum element.
    @raise Invalid_argument if the heap is empty. *)
val pop : 'a t -> int * int * 'a

(** [pop_value h] removes the minimum element and returns only its
    value, without allocating a tuple; read {!min_key} first for its
    key. The engine's run loop pops this way.
    @raise Invalid_argument if the heap is empty. *)
val pop_value : 'a t -> 'a

(** [peek_key h] returns the minimum key without removing it. *)
val peek_key : 'a t -> int option

(** Non-allocating {!peek_key}: the minimum key, or [max_int] when the
    heap is empty (keys are simulated times, far below [max_int]). *)
val min_key : 'a t -> int

val clear : 'a t -> unit
