(** List helpers shared by the protocol models, whose states hold
    per-node lists and a network kept as a sorted multiset.

    The updates rebuild only the prefix before the touched position and
    share the rest with the input, and every result is structurally
    equal to the obvious [List.mapi]/[List.sort] formulation. *)

val nth : 'a list -> int -> 'a

(** [set_nth l i v] replaces element [i]; a list equal to [l] if [i] is
    out of range. *)
val set_nth : 'a list -> int -> 'a -> 'a list

(** [remove_nth l i] drops element [i]; a list equal to [l] if [i] is
    out of range. *)
val remove_nth : 'a list -> int -> 'a list

(** [insert x l] adds [x] to the sorted (by [compare]) list [l]. *)
val insert : 'a -> 'a list -> 'a list

(** [insert_all xs l] inserts every element of [xs] into sorted [l]. *)
val insert_all : 'a list -> 'a list -> 'a list

(** Sort a network multiset (after a relabeling that may reorder it). *)
val norm_net : 'a list -> 'a list
