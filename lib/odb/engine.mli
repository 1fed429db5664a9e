(** Engine layer: the §5 event-posting pipeline — the compiled posting
    kernel (per-class candidate rows, packed classification codes,
    flat-table stepping) at both scopes, the firing pipeline,
    system-transaction posting — plus the object and trigger
    operations that compose the layers below (create/delete/call drive
    Store + Txn + the pipeline).

    Top of the subsystem stack: depends on {!Schema}, {!Store}, {!Txn}
    and {!Timewheel}, never the reverse. At load time it installs the
    posting hooks that [Txn] (commit/abort events) and [Timewheel]
    (time-event delivery) call upward through. *)

module Value = Ode_base.Value
open Types

(** {1 The posting pipeline} *)

val post : db -> txn -> obj -> Ode_event.Symbol.basic -> Value.t list -> bool
(** Post one basic-event occurrence to one object: record history,
    select candidates, classify once per shared detector, collect §9
    bindings, advance automata, then run fired actions in declaration
    order inside the posting transaction. Returns whether anything
    fired. *)

val post_db : db -> Ode_event.Symbol.basic -> Value.t list -> unit
(** Post to the database scope (§3): [after defclass], [after create],
    [before delete]. The database-scope triggers are the activations of
    one database object (the instance of [schema.db_class], outside
    every member table), so the post goes through the same kernel as
    {!post} — classified in the scratch of the member owning the
    affected oid — and fires through the same firing phase, in the
    current transaction if there is one ([f_txn] 0 otherwise). *)

val system_post : db -> oid list -> Ode_event.Symbol.basic -> unit
(** Post a transaction event to the listed objects inside a fresh system
    transaction (§5: commit/abort events belong to no user
    transaction). *)

(** {1 Batch posting}

    [post_many] drives the same three-phase pipeline over a whole batch:
    phase 0 (touch/lock/history/probes) and phase 3 (firing) run
    sequentially in batch order; the classify + step phases run one task
    per partition member, fanned out across up to {!post_domains}
    domains. Safe because a member task only mutates detection state of
    objects that member owns (§5: one automaton per trigger per object);
    committed-mode undo snapshots accumulate in per-member segments
    merged deterministically by {!Txn.merge_undo_segments}. *)

val post_many : db -> (oid * Ode_event.Symbol.basic * Value.t list) list -> int
(** Post a batch of basic events. Every event is classified and stepped
    against the detection state as of the start of the batch's step
    phase (events to the same object step in batch order); all fired
    actions run after the whole batch has stepped, in batch order then
    declaration order. The outcome — firing order included — is
    bit-identical whatever the domain or partition count. Dead or missing
    oids are skipped, like {!system_post}. Returns the number of
    firings. *)

val set_post_domains : db -> int -> unit
(** Target domain count for [post_many]'s step phase (default 1 —
    fully sequential). At use the count is clamped to the partition
    count and — while {!domain_clamp} holds — to
    [Domain.recommended_domain_count ()]; the cached pool is rebuilt on
    the next batch after a change. Raises {!Types.Ode_error} if < 1. *)

val post_domains : db -> int

val set_domain_clamp : db -> bool -> unit
(** Whether [post_many] protects the machine from oversubscription
    (default [true]): the effective domain count is clamped to
    [Domain.recommended_domain_count ()], and a batch of fewer than 32
    events steps sequentially (it loses more to the pool rendezvous
    than it gains from the fan-out). Disabling it lifts both, so the
    configured domains run for every batch — tests use this to drive
    the real multi-domain machinery on a 1-core box. *)

val domain_clamp : db -> bool

val shutdown_pool : db -> unit
(** Join and discard the cached domain pool, if any. Idempotent; the
    next parallel [post_many] respawns it. Call before discarding a
    database that ran multi-domain batches. *)

(** {1 Firing notification}

    The notification surface is subscription-based: register a callback
    with {!subscribe_firings} and every subsequent firing — object or
    database scope — is delivered to it synchronously, in subscription
    order, from inside the posting pipeline. *)

val subscribe_firings : db -> (firing -> unit) -> subscription
(** Register a callback invoked synchronously for every firing, in
    subscription order, after one-shot deactivation but interleaved with
    the fired actions of the same occurrence (each firing is notified
    immediately before its action runs). Callbacks must not raise;
    an exception propagates out of the posting operation. *)

val unsubscribe : db -> subscription -> unit
(** Remove a subscription. Safe to call twice; a subscription captured
    inside a callback list being walked is silenced immediately
    ([s_active] is cleared before removal). *)

val touch : db -> txn -> obj -> unit
(** Record first access and lazily post [after tbegin] (§3.1(4)). *)

(** {1 Schema registration} *)

val register_class : db -> Schema.class_builder -> unit
(** {!Schema.register_class}, then announce [after defclass] on the
    database scope. *)

(** {1 Objects} *)

val create : db -> string -> Value.t list -> oid
val delete : db -> oid -> unit
val set_field : db -> oid -> string -> Value.t -> unit
val call : db -> oid -> string -> Value.t list -> Value.t
val has_method : db -> oid -> string -> bool
val apply_fun : db -> string -> Value.t list -> Value.t

(** {1 Trigger activation} *)

val activate : db -> oid -> string -> Value.t list -> unit
val deactivate : db -> oid -> string -> unit
val is_active : db -> oid -> string -> bool
val trigger_state_words : db -> oid -> string -> int
val trigger_state : db -> oid -> string -> int array

val activate_db_trigger : db -> string -> Value.t list -> unit
val deactivate_db_trigger : db -> string -> unit
