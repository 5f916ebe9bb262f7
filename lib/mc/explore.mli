(** Generic explicit-state model checker (breadth-first reachability).

    Plays the role TLA+/TLC plays in Section 5 of the paper: exhaustive
    exploration of small protocol configurations, checking safety
    invariants on every reachable state and a liveness proxy — that
    from every reachable state some goal ("all requests satisfied")
    state remains reachable, i.e. the protocol has no doomed states.
    Under weak fairness of message delivery this implies the paper's
    "eventually all requests are satisfied" property on these finite
    graphs.

    Three orthogonal scale-up levers, all validated to produce stats
    identical to the exact serial sweep on closed graphs:
    - {b symmetry reduction}: states are interned through the model's
      {!MODEL.canonicalize} (identity for models without symmetry), so
      configurations that differ only by a permutation of
      interchangeable nodes collapse into one representative;
    - {b compacted visited sets} ({!Compact}): the visited set stores
      60-bit keys ({!MODEL.key}) instead of full states, Cleary/bit-state
      style; the frontier carries states explicitly, so no state is
      retained after expansion. Two distinct states may collide with
      probability bounded by {!stats.collision_bound} (reported per
      run), in which case part of the graph is silently skipped —
      verification verdicts should be confirmed in {!Exact} mode;
    - {b parallel frontier expansion} ([jobs > 1]): successor
      generation, canonicalization and keying for each BFS
      level fan out across domains ([Par.Pool]); interning happens on
      the calling domain in frontier order, so the resulting stats are
      bit-identical to the serial run. Requires the model's functions
      to be pure (all models in this library are). *)

module type MODEL = sig
  type state

  val name : string
  val initial : state list

  (** All successor states, each with its transition label packed into
      an int (see {!Label}). *)
  val next : state -> (int * state) list

  (** Render a label returned by {!next}. Called only to print a trace
      (a violation or doomed example); must be pure, since [next] may
      run on worker domains. *)
  val label : int -> string

  (** Safety check; [Error reason] reports a violation. *)
  val invariant : state -> (unit, string) result

  (** Goal states for the liveness proxy; return [false] everywhere to
      skip the check. *)
  val goal : state -> bool

  (** Render a state (used in violation reports). *)
  val pp : Format.formatter -> state -> unit

  (** Symmetry reduction hook: map a state to the canonical
      representative of its orbit under interchangeable-node
      permutation. Use the identity if the model has no symmetry (or
      none worth exploiting). Must be idempotent, must commute with
      {!next} up to relabeling, and must preserve {!invariant} and
      {!goal} verdicts. *)
  val canonicalize : state -> state

  (** Visited-set key: a 60-bit hash of the whole state, built by
      folding the state's fields, packed into a few ints, through
      {!step} from {!seed} and ending with {!finish}. Equal states must
      get equal keys. The {!Compact} store trusts the key alone, so the
      packing must be injective (fixed field widths, length-prefixed
      lists): distinct states then share a key only by a hash
      collision, which {!stats.collision_bound} bounds. Must be pure. *)
  val key : state -> int
end

(** Visited-set representation. [Exact] keys the set by full states
    (the historical semantics; states are retained for the run's
    lifetime). [Compact] keys it by 60-bit model keys and never
    retains states — memory drops from hundreds of bytes to ~25 bytes
    per state, at the cost of a bounded hash-collision probability. *)
type store = Exact | Compact

type stats = {
  states : int;
  transitions : int;
  diameter : int;  (** BFS depth of the deepest state *)
  violation : (string * string list) option;
      (** invariant failure and the transition-label trace reaching it *)
  violation_state : string option;  (** rendering of the violating state *)
  violation_path : string list;
      (** renderings of every state along the violating path *)
  doomed : int;  (** states from which no goal state is reachable *)
  doomed_example : string list option;
      (** transition trace to the first doomed state found *)
  goals : int;  (** reachable goal states *)
  truncated : bool;  (** hit [max_states] before closing the graph *)
  collision_bound : float;
      (** upper bound on the probability that any two distinct states
          shared a key ([Compact] store only; 0 for [Exact]) *)
}

module Make (M : MODEL) : sig
  (** [run ()] explores the model breadth-first. [store] selects the
      visited-set representation (default {!Exact}), [jobs] the number
      of domains expanding each BFS level (default 1, serial), [sym]
      whether {!MODEL.canonicalize} is applied (default [true]; set
      [false] to measure the unreduced graph). All combinations
      produce identical stats on closed graphs (modulo
      {!stats.collision_bound} for [Compact]). *)
  val run : ?max_states:int -> ?store:store -> ?jobs:int -> ?sym:bool -> unit -> stats
end

val pp_stats : Format.formatter -> stats -> unit

(** {2 Key mixing} for {!MODEL.key} *)

(** Initial accumulator. *)
val seed : int

(** [step h x] folds one packed int [x] into the accumulator [h]. *)
val step : int -> int -> int

(** Final avalanche, truncated to 60 bits: the visited set picks a
    table slot from the low bits of the result. *)
val finish : int -> int

(** [field w x] is [x], asserting that it fits in [w] bits (and is not
    negative): a packer shifts fields into place with it, so a field
    that outgrew its width fails loudly instead of aliasing. *)
val field : int -> int -> int

(** [step_list pack h l] folds the length of [l], then [pack x] for
    each element, into [h]: the length prefix keeps the concatenated
    encoding of a state's lists unambiguous. *)
val step_list : ('a -> int) -> int -> 'a list -> int

(** [bits w pack l] packs a short list into one int: a leading 1 bit
    (whose position encodes the length), then the [w]-bit field
    [pack x] of each element. Asserts that the result fits in 62 bits. *)
val bits : int -> ('a -> int) -> 'a list -> int
