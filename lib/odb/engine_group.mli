(** Engine group: the partition-aware composition root.

    [make] builds [partitions] engine members slicing one logical
    database by oid ([oid mod n = k] lives on member [k]); member 0 is
    the facade returned to the caller. Members share the schema,
    transaction, engine and observability records (they are record
    copies of member 0), and each owns a store slice, a timer wheel
    and a durability log. With [partitions = 1] this is exactly
    {!Types.make_db} — every routing helper collapses to the identity.

    The group WAL backend below replaces [Wal.backend] for a
    partitioned database; [Database.create_db] picks it when
    [Config.partitions > 1]. ([Persist.image_backend] serves every
    partition count.) *)

open Types

val make :
  partitions:int ->
  ?start_time:int64 ->
  ?max_tcomplete_rounds:int ->
  ?trace_capacity:int ->
  unit ->
  db
(** Build the member array and return the facade (member 0). Every
    member gets its own table, never shared. The facade is built with
    the no-op durability backend; callers install one (the group WAL
    below, [Persist.image_backend], or any other) and [dur_attach] it,
    exactly as [Database.create_db] does. Raises {!Types.Ode_error} if
    [partitions < 1]. *)

val wal_backend : partitions:int -> Wal.config -> durability_backend
(** One WAL per member under [<dir>/p<k>] plus a [group-manifest]
    pinning the partition count ([dur_attach] writes it when absent
    and refuses a mismatched directory). Commits split their footprint
    by owner — member 0 always logs, others only when their slice
    moved. [dur_recover] replays every member log, then reconciles the
    shared counters and clocks by taking the max across members. *)
