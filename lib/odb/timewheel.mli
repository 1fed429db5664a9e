(** Timewheel layer: the pending-timer structure for time events —
    insertion, due-date computation, periodic rescheduling, eager
    cancellation, and clock advancement.

    The queue is an ordered map from due instant to a bucket of that
    instant's timers in [tm_seq] order (see {!Types.timerq}),
    delivering in (due, [tm_seq]) order; nothing in it depends on the
    clock. Each delivery peeks the first bucket's head and pulls its
    (object, spec, instant) group through the per-object index — so a
    tick delivering N same-instant timers costs O(N), counted by
    {!nodes_visited}. Its executable reference, a sorted list, lives in
    the test suite as an oracle. (The name is the timing wheel's it
    replaced, kept because odebench's [timewheel.*] metrics carry it.)

    Depends on {!Store} (liveness checks for timer garbage-collection)
    and {!Clock} (calendar-pattern matching). Delivering a due timer
    means posting a time-event occurrence, which lives a layer up in
    {!Engine}; that single upward call is inverted through
    {!set_deliver_hook}, filled by [Engine] at load time. *)

open Types

val now : db -> int64

val set_deliver_hook : (db -> oid -> Ode_event.Symbol.time_spec -> unit) -> unit
(** Install the time-event delivery function (set once, by [Engine] at
    load time): post one [Time spec] occurrence to one object inside a
    fresh system transaction. *)

val insert_timer : db -> timer -> unit
(** Insert into the queue; delivery order is (due time, [tm_seq]) —
    equal due times keep insertion order. *)

val fresh_seq : db -> int
(** Allocate the next insertion stamp for a timer about to be
    inserted. *)

val first_due : Ode_event.Symbol.time_spec -> after:int64 -> int64 option
(** The first instant strictly after [after] at which the spec is due;
    [None] if it never fires (e.g. a non-positive period). *)

val reschedule : db -> timer -> fired_at:int64 -> timer option
(** The timer's next incarnation after firing: periodic [Every] and
    calendar [At] specs re-arm (with a fresh insertion stamp), one-shot
    [After_period] does not. *)

val schedule_trigger_timers : db -> obj -> active_trigger -> timer list
(** Insert one timer per time-event leaf of the trigger's event
    specification, anchored at the current clock (activation instant).
    Returns the armed timers so the caller can record them for undo. *)

val timer_alive : db -> timer -> bool
(** The timer's object is live and the watched trigger is still active
    in the same activation epoch. *)

val cancel_object : db -> oid -> timer list
(** Eagerly cancel every pending timer on one object (object deletion),
    returning the cancelled timers in (due, seq) order — re-inserting
    exactly that list (seqs preserved) restores the queue byte-for-byte,
    which is how [U_timers_cancelled] undoes an aborted cancellation. *)

val cancel_trigger : db -> oid -> string -> timer list
(** Eagerly cancel the pending timers of one trigger on one object
    (deactivation, or the epoch bump of a re-activation), returned in
    (due, seq) order as for {!cancel_object}. *)

val cancel_timer : db -> timer -> unit
(** Cancel one specific pending timer, matched by physical identity —
    the undo of [U_timers_armed]. Ignores timers no longer pending. *)

val pending : db -> timer list
(** The pending queue in (due, seq) order — the serialization order of
    the persist codec and the WAL. *)

val pending_count : db -> int
(** [List.length (pending db)], O(1). *)

val nodes_visited : db -> int
(** Queue nodes looked at so far: one per head peeked, one per newer
    node a sorted insert walks past, and one per node a same-instant
    group pull reads — the work counter behind the O(group) delivery
    claim. A queue rebuilt by {!replace} starts again from 0. *)

val replace : db -> timer list -> unit
(** Bulk-load the queue from a (due, seq)-sorted list (image load, WAL
    replay). The insertion counter resumes past the loaded stamps. *)

val set_clock : db -> int64 -> unit
(** Move the clock to an absolute instant without delivering anything.
    WAL replay calls it for each batch. *)

val advance_to : db -> int64 -> unit
(** Advance simulated time to an absolute instant, firing due timers in
    order; duplicate timers for one (object, spec, instant) deliver a
    single occurrence. Raises {!Types.Ode_error} on going backwards. *)

val advance_clock : db -> int64 -> unit
(** {!advance_to} by a relative span (ms). *)
