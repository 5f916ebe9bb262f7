(** Model-checkable abstraction of the token-recreation (recovery)
    substrate.

    One block, [caches] caches plus memory, [tokens] tokens with
    per-block {e epochs}: every token message is stamped with its
    sender's known epoch, stale-epoch arrivals are destroyed on
    receipt, and the memory controller may at any point run one
    recreation round — broadcast an epoch bump, collect an ack from
    every cache (each destroying its now-stale holdings), then mint a
    fresh full token set at the new epoch. The model injects at most
    one nondeterministic loss of an in-flight token message (the fault
    recreation exists to heal) and also lets recreation fire
    {e spuriously}, with no loss at all — the epoch scheme must keep
    even an unnecessary recreation safe.

    Checked invariants, per epoch: exact token conservation including
    lost and destroyed tokens (in particular {e no excess} — recreation
    must never double tokens), owner-token accounting, at most one
    write-capable node across epochs, owner-implies-data, and the
    serial view of memory restricted to {e deliverable} copies (a
    stale-epoch in-flight message is exempt: it will be discarded, not
    read). Goal states: the designated writer and reader have both
    completed, i.e. the loss was survived. *)

type params = {
  caches : int;  (** excluding memory *)
  tokens : int;
  max_writes : int;  (** data-independence bound, 2 is enough *)
  net_cap : int;  (** max in-flight messages *)
}

val default_params : params

val model : params -> (module Explore.MODEL)

(** Primitive names of this model's transition labels, indexed by a
    label's primitive field (see {!Label}). *)
val label_names : string array

(** {2 Symmetry-reduction internals} — see {!Token_model} for the
    contract; caches other than writer (0) and reader (1) are
    interchangeable. *)

type state

val model_sym : params -> (module Explore.MODEL with type state = state)
val movable : params -> int list
val apply_perm : params -> (int -> int) -> state -> state
val canonicalize : params -> state -> state
