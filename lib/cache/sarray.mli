(** Set-associative cache array with true-LRU replacement.

    The array stores one ['a] of protocol-specific block state per
    resident block. Replacement is split into two steps so that the
    protocol can perform a writeback before the victim disappears:
    {!victim_for} names the block that would have to leave, the protocol
    handles it, then calls {!remove} and {!insert}.

    The lines are stored as three flat arrays (tags, LRU stamps,
    states), set by set, so a lookup that misses reads only the set's
    run of integer tags. Creating an array is three allocations however
    large it is. *)

type 'a t

val create : sets:int -> ways:int -> 'a t

(** Total blocks currently resident. *)
val population : 'a t -> int

val sets : 'a t -> int
val ways : 'a t -> int

(** [find t a] returns the state of [a] if resident. Does not touch LRU. *)
val find : 'a t -> Addr.t -> 'a option

val mem : 'a t -> Addr.t -> bool

(** [touch t a] marks [a] most-recently used. No-op if absent. *)
val touch : 'a t -> Addr.t -> unit

(** [victim_for t a] — if inserting [a] would require an eviction,
    returns the LRU block of [a]'s set and its state. Returns [None]
    when [a] is already resident or a free way exists. *)
val victim_for : 'a t -> Addr.t -> (Addr.t * 'a) option

(** [insert t a st] places [a] as most-recently-used.
    @raise Invalid_argument if [a] is resident or the set is full. *)
val insert : 'a t -> Addr.t -> 'a -> unit

(** [remove t a] evicts [a]; no-op if absent. *)
val remove : 'a t -> Addr.t -> unit

(** [iter f t] applies [f addr state] to every resident block. *)
val iter : (Addr.t -> 'a -> unit) -> 'a t -> unit
