(** An Ode-style active object database (paper §2, §5–§7).

    This is the substrate the paper's event machinery runs on: persistent
    objects with identity, classes with member functions and trigger
    declarations, flat transactions under object-level strict locking, a
    simulated clock for time events, and the event-posting pipeline of §5
    (basic events posted to objects, per-class automata advanced, fired
    triggers' actions executed inside the posting transaction; commit- and
    abort-events posted by a system transaction).

    {1 Conventions}

    - All object access happens inside a transaction; [after tbegin] is
      posted to an object lazily, immediately before the transaction's
      first access to it (§3.1).
    - Transaction events ([after tbegin], [before tcomplete],
      [after tcommit], [before tabort], [after tabort]) are posted only
      to objects whose class declares a trigger on them, or to every
      object while history recording is on ({!enable_history} counts
      as listening, so {!object_history} stays complete). To any other
      object such a post would advance no automaton. Which objects
      listen changes no transaction id.
    - A public member-function call on an object posts, in order:
      [before access], [before read]/[before update], [before f], the
      body, [after f], [after read]/[after update], [after access].
    - Trigger actions run immediately, as part of the transaction that
      posted the event. Actions of triggers fired by [after tcommit] /
      [after tabort] run in a {e system} transaction (§5), opened only
      when an accessed object listens to the event. A trigger action
      may raise {!Tabort} to abort the surrounding transaction.
    - [before tcomplete] is posted repeatedly at commit until a round
      fires no triggers (§6); then the transaction commits.
    - Masks are evaluated against the database with {e no} events posted:
      conditions are required to be side-effect-free (§7).

    {1 Architecture}

    This module is a thin facade: the implementation is layered into
    [Schema] (compiled class/trigger definitions and dispatch indexes),
    [Store] (the object heap, one table),
    [Txn] (transactions, undo, locks), [Engine] (the posting pipeline),
    [Timewheel] (timers), and the pluggable durability layer — [Persist]
    (the ODE1 full-image codec and backend) and [Wal] (the
    write-ahead-log backend) — with the mutually-recursive state knot
    tied in [Types]. See docs/INTERNALS.md for the layer diagram and
    the allowed dependency direction. *)

module Value = Ode_base.Value

type t
type txn
type oid = int

exception Tabort
(** Raised by trigger actions (or user code) to abort the transaction —
    O++'s [tabort] statement. *)

exception Lock_conflict of oid
(** An incompatible lock request; the requesting transaction should
    abort. Besides field writes and method calls, an event that advances
    a [Committed]-mode trigger's state takes its object's write lock
    (see {!trigger}), so it can raise this too — from {!call},
    {!post_many} or the [before tcomplete] rounds of {!commit} — and so
    does activating or deactivating such a trigger ({!activate},
    {!deactivate}). *)

exception Ode_error of string
(** Schema violations, use outside transactions, commit livelock, etc. *)

type method_kind = Read_only | Updating

(** {1 Schema definition} *)

type class_builder

val define_class :
  ?constructor:(t -> oid -> Value.t list -> unit) -> string -> class_builder
(** Start a class definition. The constructor body runs during
    {!create}, before [after create] is posted — the usual place to
    activate triggers. *)

val field : class_builder -> string -> Value.t -> class_builder
(** Declare a field with its default value. *)

val method_ :
  class_builder ->
  ?arity:int ->
  kind:method_kind ->
  string ->
  (t -> oid -> Value.t list -> Value.t) ->
  class_builder
(** Declare a public member function. [kind] drives the [read]/[update]
    basic events; [arity] (default: any) is checked at call time. *)

type fire_context = {
  fc_oid : oid;  (** the object the event was posted to *)
  fc_params : Value.t list;  (** activation-time trigger arguments *)
  fc_occurrence : Ode_event.Symbol.occurrence;
      (** the occurrence that completed the event — its [args] are the
          method parameters of the last basic event, usable by actions
          such as the paper's T2 [order(i)] *)
  fc_collected : (string * Value.t) list;
      (** the paper's §9 "incorporation of arguments into composite event
          specification": every formal declared by one of the trigger's
          logical events is bound to the argument of its most recent
          matching occurrence (rolled back on abort for [Committed]-mode
          triggers, reset on re-activation). *)
  fc_witnesses : (string * Value.t) list list option;
      (** [Some matches] for triggers declared with [~witnesses:true]:
          the full {!Ode_event.Provenance} of this firing — one binding
          environment per way the composite event matched. [None]
          otherwise. Witness tracking keeps growing partial-match state
          (it is not one word per object) and is not rolled back on
          abort nor persisted by {!save}. *)
}

val trigger :
  class_builder ->
  ?perpetual:bool ->
  ?mode:Ode_event.Detector.mode ->
  ?witnesses:bool ->
  string ->
  event:Ode_event.Expr.t ->
  action:(t -> fire_context -> unit) ->
  class_builder
(** Declare a trigger. The event specification is compiled to its
    automaton here — once per class (§5). [mode] selects whether the
    detection state observes the full history or only committed work
    (default [Full_history]); [perpetual] defaults to [false] (the
    trigger deactivates when it fires, §2).

    A [Committed]-mode activation's state is object data under the
    two-phase locking transactions already run: the first event of a
    transaction that advances it takes the object's write lock, held to
    commit or abort. A second transaction touching that object then
    gets {!Lock_conflict}, even through a [Read_only] method, instead
    of advancing state that the first one's abort would roll back over
    its own advance. {!activate} and {!deactivate} of such a trigger
    write the same state (its words, active flag and epoch) and take
    the same lock. Posts and (de)activations of system transactions
    (transaction-event fan-outs, time events) and of an aborting
    transaction's [before tabort] round take no such lock. *)

val trigger_str :
  class_builder ->
  ?perpetual:bool ->
  ?mode:Ode_event.Detector.mode ->
  ?witnesses:bool ->
  string ->
  event:string ->
  action:(t -> fire_context -> unit) ->
  class_builder
(** Like {!trigger} but the event is parsed from O++ concrete syntax.
    Raises {!Ode_error} on a parse error. *)

val register_class : t -> class_builder -> unit
(** Install the class: methods, triggers (compiling their detectors) and
    the per-class dispatch index — a map from each basic-event kind to
    the trigger definitions whose alphabet can react to it, built once
    here so that posting an occurrence touches only those triggers
    instead of scanning every activation on the object (§5's O(1)
    per-trigger claim, made per-event). The name [<database>] is
    reserved for the database scope's class; a class of that name raises
    {!Ode_error}. *)

val register_fun : t -> string -> (t -> Value.t list -> Value.t) -> unit
(** Register a database function callable from masks, e.g.
    [authorized(user())]. *)

(** {1 Database lifecycle} *)

type durability_spec = [ `Image | `Wal of Wal.config ]
(** Which durability backend to attach: [`Image] (the ODE1 full-image
    codec — {!save}/{!load} only, nothing written between saves) or
    [`Wal cfg] (a write-ahead log: every commit, abort, system
    transaction and clock advance appends a logical redo batch, group
    commits retire batches under [cfg]'s flush window, periodic
    snapshots truncate the log, and {!recover} rebuilds the database
    from snapshot + replay after a crash). Both present the same
    {!save}/{!load} surface and identical observable behaviour. *)

(** {2 The [Config] composition root}

    Every knob the database (and the [odes serve] network front door
    over it) accepts, gathered into one plain record — the single
    source of truth {!create_db} builds from. The post-hoc setter
    [Ode_obs.Registry.set_timing] adjusts a live database. *)
module Config : sig
  type backpressure = Block | Drop
  (** What a full per-subscriber firing outbox does to the server:
      [Block] stalls posting until the client drains (lossless),
      [Drop] discards the newest firing and counts it. *)

  type serve = {
    host : string;  (** bind address (default ["127.0.0.1"]) *)
    port : int;  (** TCP port; [0] binds an ephemeral port *)
    batch_window_ms : int;
        (** the longest incoming [post]s may linger before the server
            flushes them as one [post_many] batch — an upper bound: the
            server flushes sooner, as soon as a [select] round finds no
            connection with unread input; [0] flushes at the end of
            every read burst *)
    max_batch : int;
        (** flush regardless of window once this many events are
            pending *)
    outbox_bound : int;
        (** per-subscriber cap on queued firing notifications *)
    backpressure : backpressure;
        (** default policy for [subscribe] requests that name none *)
    max_frame_bytes : int;  (** cap on one wire frame's payload *)
  }
  (** The network front door's settings — carried here so [odes serve]
      is configured by the same record that configures the engine it
      serves. Ignored by {!create_db} itself. *)

  type t = {
    start_time : int64;
    max_tcomplete_rounds : int;
    trace_capacity : int;
    durability : durability_spec;
    partitions : int;
        (** Deprecated, and ignored: a database is one engine with one
            heap, whatever this says. The field is kept only so that
            callers which still set it compile; it will be removed. *)
    timing : bool;  (** force latency histograms on — see
        [Ode_obs.Registry.set_timing] *)
    serve : serve;
  }

  val default_serve : serve
  (** [127.0.0.1:7912], 2 ms batch window, 8192-event max batch,
      1024-firing outboxes, [Block] backpressure, 16 MiB frames. *)

  val default : t
  (** The documented defaults, environment ignored: image durability,
      timing off, {!default_serve}. *)

  val of_env : unit -> t
  (** {!default} with the environment override applied, raising
      {!Ode_error} with the variable named on a malformed value:
      [ODE_DURABILITY=image|wal|wal:<flush_ms>] sets [durability]
      ([wal] in a fresh temporary directory — how CI runs the whole
      suite under the log). *)
end

val create_db : ?config:Config.t -> unit -> t
(** Build a database from [config] (default: {!Config.of_env} — so a
    bare [create_db ()] honours the environment; override single
    fields with [~config:{ (Config.of_env ()) with ... }]).
    [max_tcomplete_rounds] (default 1000, must be >= 1) bounds the §6
    [before tcomplete] fixpoint at commit; when a commit's rounds
    exceed it, {!commit} raises {!Ode_error} naming the round count
    instead of livelocking. [trace_capacity] (default 1024, must be
    >= 1) sizes the observability trace ring — see {!observe}.
    [partitions] is not read. The chosen durability backend is
    attached (its [dur_attach]) before this returns: a WAL database
    starts logging from its very first commit. *)

val config_summary : t -> string
(** One operator-readable line describing what this instance {e is}:
    durability, observability state and the clock — e.g.
    ["durability=wal:/var/ode obs=off timing=off clock=0ms"].
    Surfaced by [odec schema] and the server's [status] verb. *)

val durability_name : t -> string
(** ["image"] or ["wal:<dir>"] — the [durability=] component of
    {!config_summary}, kept as a standalone accessor. *)

(** {1 Observability}

    Every database carries an {!Ode_obs.Registry.t}: pipeline counters
    (events posted per basic kind, dispatch-index work skipped,
    automaton transitions, firings, tcomplete rounds, undo entries,
    timer deliveries, lock conflicts), nanosecond latency histograms for
    [post]/[call]/[commit]/trigger actions, and a bounded ring of
    structured trace spans with pluggable sinks
    ({!Ode_obs.Trace.add_sink}). The registry is created {e disabled}
    and every probe is guarded, so the posting hot path pays one boolean
    load per probe site when off (the E10-obs-overhead experiment keeps
    this within noise of the E9-dispatch baseline). *)

val observe : t -> Ode_obs.Registry.t
(** The database's registry — inspect counters and histograms, read or
    clear the trace ring, attach sinks. *)

val set_observability : t -> bool -> unit
(** Turn the probes on or off (off at {!create_db}). Equivalent to
    [Ode_obs.Registry.set_enabled (observe db)]. *)

val now : t -> int64

val advance_clock : t -> int64 -> unit
(** Advance simulated time by a span (ms), firing due time events in
    order. Each timer delivery runs in its own system transaction. *)

val advance_to : t -> int64 -> unit

val save : t -> string -> unit
(** Persist all objects (fields, trigger activations and their automaton
    states), pending timers, the object counter and the clock, as one
    ODE1 image — whatever the attached durability backend (a WAL
    checkpoint-and-truncates as a side effect, so the image and the log
    never disagree). Fails if a transaction is open. Not saved: the
    schema itself (closures are code), database-scope trigger
    activations (re-activate after {!load}), the history log,
    provenance partial matches, and the {!enable_history} setting. *)

val load : t -> string -> unit
(** Restore a {!save}d image into a database whose classes have been
    registered again. Existing objects are discarded. *)

val image_bytes : t -> string
(** The exact bytes {!save} would write, in memory — the canonical
    state fingerprint: two databases in the same logical state (same
    objects, activations, automaton states, timers, counters, clock)
    produce equal bytes, whatever their durability backend.
    Usable with transactions open (unlike {!save}). *)

val recover : t -> unit
(** WAL backend only: rebuild the database state from the newest
    snapshot plus every intact redo batch in its log — call it after
    {!create_db} pointed [`Wal] at a directory left behind by a crashed
    process, once the classes are registered again. A damaged tail
    (torn write, bad checksum) stops the replay at the last intact
    batch; recovery then re-baselines the directory with a fresh
    snapshot so the damage cannot resurface. Raises {!Ode_error} on the
    image backend, with a transaction open, or when the directory holds
    no state. *)

val sync_durability : t -> unit
(** Force any buffered redo batches to disk now, regardless of the
    group-commit window. No-op on the image backend. *)

val close_durability : t -> unit
(** Flush and detach the durability backend: later commits emit nothing.
    No-op on the image backend; idempotent. *)

(** {1 Transactions} *)

val begin_txn : t -> txn
(** Also makes the new transaction current. Multiple transactions may be
    open (interleaved) at once; see {!switch_txn}. *)

val switch_txn : t -> txn -> unit
val current_txn : t -> txn option
val txn_id : txn -> int

val commit : t -> txn -> (unit, [ `Aborted ]) result
(** Runs the [before tcomplete] rounds over the accessed objects that
    listen to it, then commits and posts [after tcommit] via a system
    transaction to the accessed objects that listen to it. When none
    does, no system transaction is opened and the durability backend
    writes one batch instead of two; the system transaction's id is
    consumed all the same, so transaction ids do not depend on which
    classes listen. If a trigger action raises {!Tabort} during the
    rounds, the transaction is aborted instead and [Error `Aborted] is
    returned. *)

val abort : t -> txn -> unit
(** Posts [before tabort] to the accessed objects that listen to it,
    undoes all effects (fields, created/deleted objects, committed-mode
    trigger states), releases locks, then posts [after tabort] via a
    system transaction to the accessed objects that listen to it,
    opening none (but consuming its id, as {!commit} does) when no
    object listens. *)

val with_txn : t -> (txn -> 'a) -> ('a, [ `Aborted ]) result
(** [begin_txn]; run; [commit]. {!Tabort} (from an action or the body)
    aborts and yields [Error `Aborted]; {!Lock_conflict} likewise aborts
    and re-raises; any other exception aborts and re-raises. *)

(** {1 Objects} *)

val create : t -> string -> Value.t list -> oid
(** Instantiate a class: allocate identity, set field defaults, run the
    constructor, post [after create]. *)

val delete : t -> oid -> unit
(** Post [before delete], then delete. *)

val exists : t -> oid -> bool
val class_of : t -> oid -> string

val objects : t -> oid list
(** Live objects, ascending oid. *)

val objects_of_class : t -> string -> oid list

val call : t -> oid -> string -> Value.t list -> Value.t
(** Invoke a public member function, posting the §3.1 basic events around
    the body. *)

val has_method : t -> oid -> string -> bool

val apply_fun : t -> string -> Value.t list -> Value.t
(** Call a function registered with {!register_fun}; raises {!Ode_error}
    if unknown. *)

(** {1 Batch event posting}

    {!post_many} drives the §5 pipeline over a whole batch of basic
    events in three phases, each in batch order: touch/lock/history,
    then classify + automaton step, then all firing. *)

val post_many :
  t -> (oid * Ode_event.Symbol.basic * Value.t list) list -> int
(** Post a batch of basic events inside the current transaction. Events
    classify and step in batch order; fired actions all run after the
    whole batch has stepped, in batch order then declaration order. A
    failing mask raises {!Ode_error} at the first failing event in
    batch order, after the events before it stepped. Dead or missing
    oids are skipped. Returns the number of firings. Requires an active
    transaction. *)

val get_field : t -> oid -> string -> Value.t
(** Raw field read for method bodies and examples; posts no events. *)

val set_field : t -> oid -> string -> Value.t -> unit
(** Raw field write (undo-logged); posts no events. Must run inside a
    transaction. *)

(** {1 Triggers} *)

val activate : t -> oid -> string -> Value.t list -> unit
(** Activate a trigger by name with parameters — the paper's
    "invoking its name just as an ordinary member function". Time events
    in its specification are scheduled from the activation instant.
    On a [Committed]-mode trigger it takes the object's write lock, so
    it raises {!Lock_conflict} while another open transaction holds a
    lock on the object. *)

val deactivate : t -> oid -> string -> unit
(** Deactivate a trigger, cancelling its pending timers; a no-op when
    it was never activated on the object. Takes the object's write lock
    on a [Committed]-mode trigger, as {!activate} does. *)

val is_active : t -> oid -> string -> bool

val trigger_state_words : t -> oid -> string -> int
(** Number of state integers this activation stores — 1 for any trigger
    whose event has no composite masks (the §5 claim). *)

val trigger_state : t -> oid -> string -> int array
(** A copy of the activation's automaton state, for diagnostics and
    tests. *)

(** {1 Firing notification}

    The notification surface is subscription-based: register a callback
    with {!subscribe_firings} and every subsequent firing — object or
    database scope — is delivered to it synchronously from inside the
    posting pipeline, in subscription order, immediately before the
    fired trigger's action runs. *)

type firing = {
  f_trigger : string;
  f_class : string;  (** ["<database>"] for database-scope triggers *)
  f_oid : oid;
  f_at : int64;
  f_txn : int;
}

type subscription

val subscribe_firings : t -> (firing -> unit) -> subscription
(** Register a firing callback. Callbacks run synchronously inside the
    posting operation (and therefore inside its transaction); they
    should not raise — an exception propagates out of the posting call.
    Subscriptions are not persisted by {!save} but do survive
    {!load}. *)

val unsubscribe : t -> subscription -> unit
(** Remove a subscription; idempotent. Unsubscribing from inside a
    callback takes effect immediately (no further deliveries, including
    later subscribers' deliveries of the same firing batch). *)

val subscriber_count : t -> int
(** Live subscriptions — what the server's [status] verb reports, and
    what the connection-leak tests pin (a disconnected network client
    must take its subscription with it). *)

(** {1 Database-scope triggers (§3 "events have a scope")}

    Some events are not local to one object: schema modification and
    object creation/deletion across the database. Database-scope triggers
    observe, with the same event algebra:

    - [after defclass] — a class was registered (argument: class name);
    - [after create] — any object was created (arguments: oid, class);
    - [before delete] — any object is being deleted (arguments: oid,
      class).

    They are always [Full_history] (no per-transaction rollback: schema
    events may happen outside transactions) and their actions run in
    whatever transaction — possibly none — posted the event ([f_txn] is
    then 0). Any other event is rejected when the trigger is declared,
    since the database scope is never posted it and the trigger could
    never fire: a time event with [Ode_error "database trigger T: time
    events need an object scope"] (timers are armed per object), any
    other with [Ode_error "database trigger T: E is never posted at
    database scope"]. *)

val db_trigger :
  t ->
  ?perpetual:bool ->
  ?witnesses:bool ->
  string ->
  event:Ode_event.Expr.t ->
  action:(t -> fire_context -> unit) ->
  unit
(** [witnesses] (default false) tracks full per-match provenance exactly
    as for object-scope triggers: the action's [fc_witnesses] becomes
    [Some matches]. Reset when the trigger is re-activated. *)

val db_trigger_str :
  t ->
  ?perpetual:bool ->
  ?witnesses:bool ->
  string ->
  event:string ->
  action:(t -> fire_context -> unit) ->
  unit

val activate_db_trigger : t -> string -> Value.t list -> unit
val deactivate_db_trigger : t -> string -> unit

(** {1 Event histories (§9)} *)

val enable_history : t -> limit:int -> unit
(** Keep the last [limit] basic events posted to each object (the {e
    true} history of §6: aborted transactions' events included). Query
    with {!object_history} and {!History}. *)

val object_history : t -> oid -> History.t
(** Oldest first; empty when recording is disabled. *)

(** {1 Statistics} *)

type stats = {
  n_objects : int;
  n_classes : int;
  n_active_triggers : int;
  n_timers : int;
  state_bytes : int;
      (** Detection-state footprint: 8 bytes per automaton state word of
          every activation (object- and database-scope), plus
          [24 + length name] bytes per collected §9 binding, plus the
          committed-mode shadow copies pinned by open transactions' undo
          logs (state-word and binding charges alike). See
          {!Store.stats} for the precise accounting. *)
}

val stats : t -> stats
