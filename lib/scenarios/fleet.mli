(** Fleet monitoring (ROADMAP item 2): a calendar-heavy workload where
    nearly every live object keeps timers armed.

    Each vehicle activates one perpetual heartbeat trigger — [every
    time(MS=50)], [MS=250] or [MS=1000], assigned round-robin — whose
    action bumps its [beats] field, plus (by default) a one-shot
    service check [after time(MS=30000)] bumping [alerts]. A fleet of
    n vehicles therefore holds ~2n pending timers, which is the
    workload the timing wheel representation exists for (odebench's
    [fleet_timers] workload runs it). *)

module D = Ode_odb.Database

type t = { db : D.t; vehicles : D.oid array }

val cadences : (string * int) array
(** Heartbeat trigger names and their periods in ms. *)

val service_after_ms : int
(** Due delay of the one-shot service check. *)

val cadence_of : int -> string
(** The heartbeat trigger assigned to the [i]-th vehicle. *)

val setup : ?db:D.t -> ?vehicles:int -> ?service:bool -> unit -> t
(** Register the vehicle class and create the fleet in bounded-size
    transactions. [db] defaults to a fresh [D.create_db ()] (so the
    usual ODE_* environment knobs apply); [vehicles] defaults to 1000;
    [service:false] skips the one-shot service timers. *)

val size : t -> int
val tick : t -> int64 -> unit
(** Advance the fleet's clock by a span (ms), delivering due timers. *)

val idle : t -> stride:int -> unit
(** Deactivate the heartbeat of every [stride]-th vehicle — with the
    wheel this cancels the pending timers eagerly. *)

val resume : t -> stride:int -> unit
(** Re-activate the heartbeats that {!idle} stopped (an epoch bump:
    stale timers are cancelled, fresh ones armed). *)

val retire : t -> stride:int -> unit
(** Delete every [stride]-th vehicle outright. *)

val beats : t -> int -> int
val alerts : t -> int -> int
(** Per-vehicle counters, by fleet index. *)

val total_beats : t -> int
val total_alerts : t -> int
(** Counter sums over the surviving fleet (O(n) field reads). *)
