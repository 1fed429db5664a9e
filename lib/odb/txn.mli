(** Transaction layer: begin/commit/abort, the undo log, object-level
    strict locking, and the §6 [before tcomplete] fixpoint.

    Depends on {!Store} (heap lookups for lock release and event
    targets) and {!Types}. Commit and abort must {e post} events —
    [before tcomplete], [before tabort], [after tcommit]/[after tabort]
    — which live a layer up in {!Engine}; those two upward calls are
    inverted through the hook refs below, which [Engine] fills at load
    time, keeping the compile-time dependency strictly
    Engine -> Txn. *)

module Value = Ode_base.Value
open Types

(** {1 Engine hooks} *)

val set_post_hook :
  (db -> txn -> obj -> Ode_event.Symbol.basic -> Value.t list -> bool) -> unit
(** Install the event-posting pipeline (set once, by [Engine] at load
    time). The function posts one basic event to one object inside the
    given transaction and returns whether any trigger fired. *)

val set_system_post_hook : (db -> oid list -> Ode_event.Symbol.basic -> unit) -> unit
(** Install the system-transaction poster used for [after tcommit] /
    [after tabort] (§5). *)

(** {1 Lifecycle} *)

val require_txn : db -> txn
(** The current transaction; raises {!Types.Ode_error} if none is
    active. *)

val begin_txn : db -> txn
(** Open a user transaction and make it current. *)

val begin_system : db -> txn
(** Open a system transaction (transaction events are not posted for
    it). Does {e not} make it current — the caller saves and restores
    [current] around the system work. *)

val switch_txn : db -> txn -> unit
val current_txn : db -> txn option
val txn_id : txn -> int

(** {1 Locks and undo} *)

val acquire : db -> txn -> obj -> Lock.request -> unit
(** Raises {!Types.Lock_conflict} on an incompatible request. *)

val acquire_for : db -> int -> obj -> Lock.request -> unit
(** {!acquire} on behalf of the transaction with this id. *)

val release_locks : db -> txn -> unit
val detach : db -> txn -> unit
val apply_undo : db -> undo_entry -> unit

(** {1 Commit and abort} *)

val abort : db -> txn -> unit
(** Posts [before tabort], undoes all effects, releases locks, then
    posts [after tabort] via a system transaction. *)

val commit : db -> txn -> (unit, [ `Aborted ]) result
(** Runs the [before tcomplete] rounds (bounded by the database's
    [max_tcomplete_rounds]; {!Types.Ode_error} on livelock), then
    commits and posts [after tcommit] via a system transaction. *)

val with_txn : db -> (txn -> 'a) -> ('a, [ `Aborted ]) result
