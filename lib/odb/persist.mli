(** Persist layer: the ODE1 save/load codec.

    Depends on {!Schema} (classes are re-resolved by name at load),
    {!Store} (heap reconstruction) and {!Timewheel} (timer re-insertion)
    — never on {!Engine}: persistence moves state, it posts no
    events.

    The per-entity writers/readers ([write_obj]/[read_obj_raw]/
    [install_obj], [write_timer]/[read_timer]) are the {e only} codec
    path for object and timer state: the full image below and the
    {!Wal} backend's redo records both go through them, so a WAL
    snapshot of a state and a {!save} of the same state are
    bit-identical by construction. *)

open Types

val magic : string
(** The image header, ["ODE1"]. *)

val save : db -> string -> unit
(** Persist all live objects (fields, trigger activations and their
    automaton states), pending timers, the oid/txn counters and the
    clock — {!image_bytes}, streamed to the file. Raises
    {!Types.Ode_error} if a transaction is open. Not saved: the schema
    itself (closures are code), database-scope trigger activations,
    the history log, provenance partial matches, and the
    history-recording setting. *)

val load : db -> string -> unit
(** Restore a {!save}d image ({!load_image}) into a database whose
    classes have been registered again. Existing objects and timers
    are discarded. Raises [Codec.Corrupt] on a bad image or a schema
    mismatch, and then leaves the database as it was. *)

val image_bytes : db -> string
(** The exact bytes {!save} would write, without touching the
    filesystem or checking for open transactions — the state
    fingerprint the equivalence and crash-recovery suites compare:
    the live objects in ascending oid, then the timers in (due, seq)
    order. *)

val write_image : db -> string -> int
(** Write {!image_bytes}[ db] to a file, streamed object by object
    rather than built as one string first, atomically (temp file, then
    rename); returns the number of bytes written. The {!Wal} checkpoint
    snapshot writer. Like {!image_bytes}, it does not check for open
    transactions. *)

val load_image : db -> string -> unit
(** [load] from in-memory bytes: parse fully and check every object
    against the schema, then reset the heap and the timer queue and
    install each object and timer. A [Codec.Corrupt] raised by the
    parse or the check leaves the database untouched. *)

val write_obj : Ode_base.Codec.writer -> obj -> unit
(** Serialize one object: oid, class name, sorted fields, sorted
    trigger activations (params, state words,
    collected §9 bindings, active flag, epoch). *)

val read_obj_raw :
  Ode_base.Codec.reader ->
  int
  * string
  * (string * Ode_base.Value.t) list
  * (string
    * Ode_base.Value.t list
    * int array
    * (string * Ode_base.Value.t) list
    * bool
    * int)
    list
(** Parse what {!write_obj} wrote without resolving anything against a
    schema — [(oid, class, fields, triggers)]. [odec wal-dump] decodes
    records with this, no database required. *)

val install_obj :
  db ->
  int
  * string
  * (string * Ode_base.Value.t) list
  * (string
    * Ode_base.Value.t list
    * int array
    * (string * Ode_base.Value.t) list
    * bool
    * int)
    list ->
  unit
(** Materialize a {!read_obj_raw} result into the heap: re-resolve the
    class by name, give each activation a fresh detection-state slot,
    restore the saved state words, [Store.add_obj]. Raises
    [Codec.Corrupt] — before touching the heap — on an unregistered
    class, an unknown trigger, or state words
    {!Ode_event.Detector.check_state} rejects. *)

val write_timer : Ode_base.Codec.writer -> timer -> unit
val read_timer : Ode_base.Codec.reader -> timer

val image_backend : unit -> durability_backend
(** The full-image codec as a durability backend: [dur_save]/[dur_load]
    are {!save}/{!load}, commit emission is a no-op, [dur_recover]
    raises (there is no log). The default of [Database.create_db]. *)

val write_time_spec : Ode_base.Codec.writer -> Ode_event.Symbol.time_spec -> unit
val read_time_spec : Ode_base.Codec.reader -> Ode_event.Symbol.time_spec
