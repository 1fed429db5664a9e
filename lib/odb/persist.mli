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
    clock — {!group_image_bytes}, so a partition group saves the
    merged image. Raises {!Types.Ode_error} if a transaction is open. Not
    saved: the schema itself (closures are code), database-scope trigger
    activations, the history log, provenance partial matches, and the
    history-recording setting. *)

val load : db -> string -> unit
(** Restore a {!save}d image ({!group_load_image}) into a database
    whose classes have been registered again. Existing objects and
    timers are discarded. Raises [Codec.Corrupt] on a bad image or a
    schema mismatch, and then leaves the database as it was. *)

val image_bytes : db -> string
(** The exact bytes {!save} would write for an unpartitioned db (a
    member's own slice for a partition member), without touching the
    filesystem or checking for open transactions — the shared snapshot
    writer ({!Wal} checkpoints call this) and the state fingerprint the
    equivalence and crash-recovery suites compare. *)

val load_image : db -> string -> unit
(** [load] from in-memory bytes: parse fully and check every object
    against the schema, then reset the heap and install. A
    [Codec.Corrupt] raised by the parse or the check leaves the
    database untouched. Member-local for a partition member (its WAL
    recovery restores only its own slice); see {!group_load_image}. *)

(** {1 Partition-group images}

    A partitioned database ([Engine_group]) holds its heap and timer
    queue spread over member slices. The group writers below merge the
    slices back into ascending-oid / (due, seq) order, so the merged
    image is byte-identical to what a single-engine run of the same
    history would save — and they collapse to the plain functions when
    the db is unpartitioned. *)

val group_image_bytes : db -> string
val group_load_image : db -> string -> unit

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
    raises (there is no log). The default of [Database.create_db] at
    any partition count. *)

val write_time_spec : Ode_base.Codec.writer -> Ode_event.Symbol.time_spec -> unit
val read_time_spec : Ode_base.Codec.reader -> Ode_event.Symbol.time_spec
