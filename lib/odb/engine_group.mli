(** Engine group: the partition-aware composition root.

    [make] builds [partitions] engine members slicing one logical
    database by oid ([oid mod n = k] lives on member [k]); member 0 is
    the facade returned to the caller. Members share the schema,
    transaction, engine and observability records (they are record
    copies of member 0), and each owns a store slice and a timer
    wheel. With [partitions = 1] this is exactly {!Types.make_db} —
    every routing helper collapses to the identity.

    Durability is not split: the facade's one backend logs or saves
    the whole group. [Wal.backend] writes one frame per commit holding
    the objects of every member it touched, so the group's log is the
    single-engine log and a commit is atomic across members by
    construction; [Persist.image_backend] likewise serves every
    partition count. *)

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
    the no-op durability backend; callers install one ([Wal.backend],
    [Persist.image_backend], or any other) and [dur_attach] it,
    exactly as [Database.create_db] does. Raises {!Types.Ode_error} if
    [partitions < 1]. *)
