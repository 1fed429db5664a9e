(** Write-ahead-log durability backend: logical redo batches appended at
    commit under a group-commit window, CRC-framed, with ODE1 snapshots
    + log truncation sized by the log's growth; recovery is snapshot +
    replay.

    A commit is one frame, hence atomic by construction; a torn tail
    loses whole transactions only.

    Sits beside {!Persist} in the layer stack (depends on {!Persist},
    {!Store}, {!Schema} state via replay, and {!Ode_obs}; never on
    {!Engine} — replay moves state, it posts no events). The layers
    below reach it only through the [durability_backend] closures
    installed by [Database.create_db].

    On-disk layout per database directory — one current generation [g]:

    - [snap-<g>.ode1] — a full image, the {e exact} [Persist.save]
      bytes (one codec path, property-tested in [test/test_wal.ml]);
    - [wal-<g>.log] — the ["ODEW1"] header, then frames
      [[len:4 LE][crc32:4 LE][payload]], one frame per batch.

    The checkpoint protocol writes [snap-<g+1>] atomically, then an
    empty [wal-<g+1>], then removes the old pair; recovery picks the
    largest generation with {e both} files present and ends by
    checkpointing the recovered state into a fresh generation, so a
    damaged log tail is never appended to.

    {b When a generation checkpoints.} After a batch is framed, and
    while no transaction is open, once the frame bytes appended to the
    current log reach
    [max (checkpoint_percent * snapshot_bytes / 100) checkpoint_floor],
    where [snapshot_bytes] is the length of the generation's own
    snapshot. The snapshot's cost is paid for by at least as many
    logged bytes, so checkpoint work is amortised O(1) per logged byte;
    and the log replayed after a crash is at most
    [checkpoint_percent]% of the snapshot plus [checkpoint_floor] plus
    one batch. [save], [load] and recovery checkpoint as well. *)

open Types

type config = {
  dir : string;  (** the database's log directory; created on attach *)
  flush_ms : int;
      (** group-commit window in ms: batches buffer in memory until a
          batch arrives at least this long after the last flush. [0] =
          write + sync every batch. *)
  sync_on_flush : bool;  (** [fsync] after each physical write *)
  on_batch : (db -> unit) option;
      (** test hook, called after each batch is framed (and, under
          [flush_ms = 0], flushed) — the crash harness captures shadow
          snapshots here *)
}

val config :
  ?flush_ms:int -> ?sync_on_flush:bool -> ?on_batch:(db -> unit) -> string -> config
(** [config dir] with defaults [flush_ms = 50], [sync_on_flush = true].
    When to checkpoint is not configured: see {!checkpoint_percent}. *)

val checkpoint_percent : int
(** [100]. A generation checkpoints once its log has grown by this
    percentage of its snapshot's bytes, or by {!checkpoint_floor}
    bytes, whichever is larger. 100 is the default of Redis's
    [auto-aof-rewrite-percentage]. *)

val checkpoint_floor : int
(** [1 MiB], the least log growth that checkpoints: a near-empty
    database, whose snapshot is a few bytes, does not checkpoint on
    every commit. *)

val backend : config -> durability_backend
(** Pack a fresh WAL instance (own buffer, generation counter and
    group-commit window; no file descriptor held between flushes).
    [dur_attach] baselines an empty
    directory at generation 0, or — when the directory already holds
    WAL state — arms on the latest generation and defers to an
    explicit [dur_recover] (register the classes first). [dur_save]
    checkpoints, then copies the new snapshot to the caller's path, so
    the heap is serialized once; [dur_load] re-baselines the log on
    the loaded state. [dur_attach] and [dur_recover] raise
    {!Types.Ode_error} on a directory in the older per-member layout
    of partitioned databases (a [group-manifest] and no generation
    pair at the root). *)

val member_dir : string -> int -> string
(** [member_dir dir k] is [<dir>/p<k>], where the older per-member
    layout kept partition [k]'s log. Nothing writes there now; its one
    caller is [bench/e2e/wl_durable.ml]. *)

(** {1 Introspection — recovery, the crash harness, [odec wal-dump]} *)

val header : string
(** The log-file header, ["ODEW1"]. *)

val snap_path : string -> int -> string
val wal_path : string -> int -> string

val latest_gen : string -> int option
(** Largest generation in a directory with both its snapshot and its
    log present; [None] for a missing/empty directory. *)

type damage =
  | Bad_header
  | Truncated of { offset : int }
      (** an incomplete frame starts at [offset] *)
  | Bad_crc of { index : int; offset : int }

type scan_result = {
  frames : string list;  (** complete, CRC-valid payloads, log order *)
  damage : damage option;  (** why the scan stopped early, if it did *)
}

val scan_bytes : string -> scan_result
val scan_file : string -> scan_result
(** Walk the framing without decoding payloads — the single definition
    of "how many batches survive" shared by recovery, the harness and
    [wal-dump]. *)

val apply_batch : db -> string -> unit
(** Replay one scanned payload: set the counters and clock, upsert or
    remove each carried object, replace the timer queue if carried.
    Raises [Codec.Corrupt] on a malformed payload (a CRC-valid frame
    written by this module always decodes). *)

val crc32 : string -> int

type entry_summary =
  | Upsert of { oid : int; class_name : string; n_triggers : int }
  | Delete of int

type batch_summary = {
  s_next_oid : int;
  s_next_txn : int;
  s_clock_ms : int64;
  s_entries : entry_summary list;
  s_timers : int option;  (** [Some n]: the batch carries n timers *)
}

val decode_summary : string -> batch_summary
(** Schema-free decode of one payload for pretty-printing. Raises
    [Codec.Corrupt] on malformed bytes. *)
