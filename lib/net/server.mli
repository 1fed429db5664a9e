(** [odes serve] — the streaming RPC front door over one database
    (docs/PROTOCOL.md).

    One thread runs a [select] loop that owns the database outright:
    accepting connections, decoding frames, executing verbs and
    draining per-client outboxes all happen on that thread, so the
    engine below never sees concurrent callers — client concurrency is
    multiplexed into a single serialized request stream.

    The coalescer is what makes the wire path fast: [post] /
    [post_many] requests from clients with no open transaction
    accumulate into one pending batch, flushed as a single
    [Database.post_many] — through the compiled posting kernel — as
    soon as a [select] round leaves no connection with unread input,
    and at the latest when the configured window closes, the batch cap
    is reached, or a non-post verb arrives (every other verb is a
    barrier, so the observable order equals arrival order). Each
    contributing request is answered after its batch commits, in the
    same loop round.

    The hot path builds no JSON tree: [post]/[post_many] frames are
    decoded in place from the read buffer ({!Protocol.decode_post}),
    and replies and firings are written straight into one reused
    buffer and framed with a single allocation. Each round writes each
    connection's queued frames with one [write(2)] per 64 KiB.

    Firing delivery: a [subscribe]d connection gets every firing as a
    [{"firing": ...}] frame, queued on a bounded per-client outbox.
    When the outbox is full the client's chosen {!Protocol.policy}
    applies: [Block] makes the server drain that client synchronously
    from inside the posting pipeline (lossless — one stuck subscriber
    stalls the server, which is what "block" means), [Drop] discards
    the newest firing, counts it ([Net_outbox_dropped], and the
    per-connection count is reported to the client as a
    [{"lagged": k}] frame once space frees up).

    A client disconnect — detected on read {e or} mid-write — tears the
    connection down completely: its subscription is unsubscribed, its
    open transaction aborted, its outbox freed. The connection-leak
    test pins [Database.subscriber_count] and [stats.state_bytes] flat
    across a connect/subscribe/disconnect storm. *)

module D = Ode_odb.Database

type t

val create : ?db:D.t -> config:D.Config.t -> unit -> t
(** Bind and listen on [config.serve.host : config.serve.port] (port 0
    binds an ephemeral port — see {!port}). [db] defaults to
    [D.create_db ~config ()]; pass one to serve a database whose
    schema was registered natively. Raises [Unix.Unix_error] when the
    address is taken. *)

val port : t -> int
(** The actually-bound TCP port. *)

val db : t -> D.t

val run : t -> unit
(** The serve loop; blocks until {!stop} is called or a [shutdown]
    verb arrives, then closes every connection and the listener.
    Pending batches are flushed and outboxes drained (best-effort,
    bounded wait) before returning. *)

val start : t -> unit
(** Spawn {!run} on a background thread (for tests and the in-process
    soak bench). *)

val stop : t -> unit
(** Ask the loop to exit and — when {!start} was used — join it.
    Idempotent; safe from any thread. *)

type stats = {
  s_connections : int;  (** currently connected clients *)
  s_accepted : int;  (** connections accepted since start *)
  s_requests : int;  (** requests handled *)
  s_batches : int;  (** coalesced post_many flushes *)
  s_dropped : int;  (** firings discarded by Drop-policy outboxes *)
}

val stats : t -> stats
(** Read by tests after quiescing; the loop thread owns the counters. *)
