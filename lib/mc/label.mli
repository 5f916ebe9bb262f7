(** Transition labels packed into an int.

    A model's [next] returns one label per successor, and the explorer
    keeps one per interned state, but a label is read only when a trace
    is rendered. Packing a primitive (an index into the model's table
    of primitive names) with up to two node indices keeps successor
    generation allocation-free; {!render} rebuilds the label string. *)

(** [bare p] renders as the primitive name alone, e.g. ["recv"]. *)
val bare : int -> int

(** [indexed p i] renders as the name followed by [i], e.g. ["issue0"]. *)
val indexed : int -> int -> int

(** [edge p src dst] renders as ["name(src->dst)"], e.g. ["all(2->0)"]. *)
val edge : int -> int -> int -> int

(** [render names l] is the string of label [l], whose primitive indexes
    [names]. Node indices must lie in [0, 65535]. *)
val render : string array -> int -> string
