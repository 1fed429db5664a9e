(** The paper's §3.5 stockroom, with all eight triggers T1–T8.

    Two classes: [item] (name, balance, economic-order-quantity) and
    [stockRoom] (deposit/withdraw plus the bookkeeping member functions
    the triggers call). The trigger events are written in O++ concrete
    syntax exactly as in the paper (with the [#define]s expanded):

    - T1: only authorized users may withdraw, else the transaction aborts
    - T2: ordering when an item falls below its economic order quantity
    - T3: a summary at the end of the day (17:00)
    - T4: every transaction after the 5th in the same day is reported
    - T5: averages updated every 5 accesses
    - T6: all large withdrawals (quantity > 100) are logged
    - T7: a summary after the 5th large withdrawal in the same day
    - T8: print the log when a deposit is immediately followed by a
      withdrawal *)

module D = Ode_odb.Database

type t = {
  db : D.t;
  mutable stockroom : D.oid;
  mutable current_user : string;
  authorized_users : (string, unit) Hashtbl.t;
}

val day_start : int64
(** 1992-06-02 00:00, the simulated first day. *)

val setup : ?config:D.Config.t -> ?activate:bool -> unit -> t
(** Build the database, register classes and functions, create the
    stockroom object. The constructor activates all eight triggers (the
    paper's [T1(); T2(); …]) unless [activate:false]. [config] defaults
    to [D.Config.of_env ()]; its [start_time] is replaced by
    {!day_start}. *)

val new_item : t -> name:string -> eoq:int -> balance:int -> D.oid
(** Register an item with the stockroom (own transaction). *)

val deposit : t -> item:D.oid -> qty:int -> (unit, [ `Aborted ]) result
val withdraw : t -> item:D.oid -> qty:int -> (unit, [ `Aborted ]) result
(** Each runs in its own transaction, as the paper's client code would. *)

val counter : t -> string -> int
(** Observable action counters on the stockroom object: ["orders"],
    ["logs"], ["reports"], ["summaries"], ["printlogs"], ["avg_updates"].
    Raises [Ode_error] for other names. *)

val item_balance : t -> D.oid -> int
