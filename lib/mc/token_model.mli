(** Model-checkable abstractions of the TokenCMP correctness substrate.

    One block, [caches] caches plus memory, [tokens] tokens, data
    modeled as write-version numbers (data independence: two writes
    suffice to expose ordering violations). Performance policies are
    modeled nondeterministically: at any moment any holder may transfer
    any of the protocol's token-movement primitives (one token, all
    tokens, all-but-one) to anyone, so a verification result covers
    {e every} performance policy, exactly as in Section 5.

    Three substrate variants mirror the paper's TLA+ models:
    - {!safety}: no starvation-avoidance mechanism (safety only);
    - {!distributed}: persistent requests with distributed activation
      tables, fixed priority and wave marking;
    - {!arbiter}: persistent requests with a home arbiter and FIFO
      queue.

    Checked invariants: token conservation, owner-token uniqueness,
    owner-implies-data, and the serial view of memory (any readable
    copy, cached or in flight, carries the latest written version).
    Goal states for the liveness proxy: the designated writer and
    reader have both completed their persistent requests. *)

type params = {
  caches : int;  (** excluding memory *)
  tokens : int;  (** must exceed [caches] *)
  max_writes : int;  (** data-independence bound, 2 is enough *)
  net_cap : int;  (** max in-flight messages *)
}

val default_params : params

val safety : params -> (module Explore.MODEL)
val distributed : params -> (module Explore.MODEL)
val arbiter : params -> (module Explore.MODEL)

(** Primitive names of this model's transition labels, indexed by a
    label's primitive field (see {!Label}). *)
val label_names : string array

(** {2 Symmetry-reduction internals}

    Exposed (with [state] kept abstract) so the canonicalization
    properties — idempotence, permutation invariance, verdict
    preservation — can be tested from outside against states reached
    through {!Explore.MODEL.next}. *)

type state
type variant = Safety | Distributed | Arbiter

(** Same models as {!safety}/{!distributed}/{!arbiter}, with the state
    type exposed for the test hooks below. *)
val model : variant -> params -> (module Explore.MODEL with type state = state)

(** Interchangeable node indices (caches other than writer/reader). *)
val movable : params -> int list

(** Remap every node index [i] to [f i] ([f] must be a bijection fixing
    writer, reader and memory). *)
val apply_perm : params -> (int -> int) -> state -> state

(** Minimum of the orbit under {!apply_perm} over {!movable}
    permutations — the [canonicalize] the models install. *)
val canonicalize : params -> state -> state
