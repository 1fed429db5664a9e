(* Thin facade over the layered subsystems. All behaviour lives below:

     Schema    — class builders, trigger definitions, detector
                 compilation, dispatch-index construction
     Store     — the object heap (one table, oid allocation, field
                 access, histories, stats)
     Txn       — begin/commit/abort, undo log, locks, the §6
                 [before tcomplete] fixpoint
     Engine    — the §5 posting pipeline (the compiled kernel),
                 firing, system transactions
     Timewheel — timers and simulated-time advancement
     Persist   — the ODE1 full-image codec and the image durability
                 backend
     Wal       — the write-ahead-log durability backend (redo batches,
                 group commit, snapshots, crash recovery)

   This module only re-exports (plus the composition root, [create_db],
   which builds the database and attaches the durability backend);
   keep it free of logic so the public API stays a stable surface over
   the layers. *)

module Value = Ode_base.Value

type t = Types.db
type txn = Types.txn
type oid = int
type method_kind = Types.method_kind = Read_only | Updating

exception Tabort = Types.Tabort
exception Lock_conflict = Types.Lock_conflict
exception Ode_error = Types.Ode_error

type fire_context = Types.fire_context = {
  fc_oid : oid;
  fc_params : Value.t list;
  fc_occurrence : Ode_event.Symbol.occurrence;
  fc_collected : (string * Value.t) list;
  fc_witnesses : (string * Value.t) list list option;
}

type firing = Types.firing = {
  f_trigger : string;
  f_class : string;
  f_oid : oid;
  f_at : int64;
  f_txn : int;
}

(* Schema definition *)

type class_builder = Schema.class_builder

let define_class = Schema.define_class
let field = Schema.field
let method_ = Schema.method_
let trigger = Schema.trigger
let trigger_str = Schema.trigger_str
let register_class = Engine.register_class
let register_fun = Schema.register_fun

(* Observability *)

let observe (db : t) = db.Types.obs

let set_observability (db : t) flag =
  Ode_obs.Registry.set_enabled db.Types.obs flag

(* Lifecycle *)

type durability_spec = [ `Image | `Wal of Wal.config ]

(* A fresh unique directory for an env-selected WAL — each database
   must own its log (a shared one would interleave generations). *)
let fresh_wal_dir () =
  let f = Filename.temp_file "ode-wal" "" in
  Sys.remove f;
  f

module Config = struct
  type backpressure = Block | Drop

  type serve = {
    host : string;
    port : int;
    batch_window_ms : int;
    max_batch : int;
    outbox_bound : int;
    backpressure : backpressure;
    max_frame_bytes : int;
  }

  type t = {
    start_time : int64;
    max_tcomplete_rounds : int;
    trace_capacity : int;
    durability : durability_spec;
    partitions : int;  (* deprecated, ignored by [create_db] *)
    timing : bool;
    serve : serve;
  }

  let default_serve =
    {
      host = "127.0.0.1";
      port = 7912;
      batch_window_ms = 2;
      max_batch = 8192;
      outbox_bound = 1024;
      backpressure = Block;
      max_frame_bytes = 16 * 1024 * 1024;
    }

  (* These mirror [Types.make_db] and the engine-state initializers —
     a bare [create_db ()] and a [create_db ~config:Config.default ()]
     are the same database. *)
  let default =
    {
      start_time = 0L;
      max_tcomplete_rounds = 1000;
      trace_capacity = 1024;
      durability = `Image;
      partitions = 1;
      timing = false;
      serve = default_serve;
    }

  (* CI runs the whole suite against the WAL backend with
     ODE_DURABILITY=wal (optionally wal:<flush_ms>). *)
  let durability_of_env () : durability_spec =
    match Sys.getenv_opt "ODE_DURABILITY" with
    | None | Some "" | Some "image" -> `Image
    | Some "wal" -> `Wal (Wal.config (fresh_wal_dir ()))
    | Some s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "wal" -> (
        match
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
        with
        | Some ms when ms >= 0 ->
          `Wal (Wal.config ~flush_ms:ms (fresh_wal_dir ()))
        | Some _ | None ->
          Types.ode_error "ODE_DURABILITY: bad flush window in %S" s)
      | Some _ | None -> Types.ode_error "ODE_DURABILITY: unknown backend %S" s)

  let of_env () = { default with durability = durability_of_env () }
end

let create_db ?config () =
  (* composition root: resolve one [Config.t], then build the database
     and attach the durability backend — [Types] holds the latter
     abstractly and cannot depend on [Persist] or [Wal]. *)
  let c = match config with Some c -> c | None -> Config.of_env () in
  let db =
    Types.make_db ~start_time:c.Config.start_time
      ~max_tcomplete_rounds:c.Config.max_tcomplete_rounds
      ~trace_capacity:c.Config.trace_capacity ()
  in
  db.Types.durability <-
    (match c.Config.durability with
    | `Image -> Persist.image_backend ()
    | `Wal cfg -> Wal.backend cfg);
  if c.Config.timing then Ode_obs.Registry.set_timing db.Types.obs true;
  db.Types.durability.Types.dur_attach db;
  db

let durability_name (db : t) = db.Types.durability.Types.dur_name

let config_summary (db : t) =
  let onoff b = if b then "on" else "off" in
  Printf.sprintf "durability=%s obs=%s timing=%s clock=%Ldms"
    (durability_name db)
    (onoff (Ode_obs.Registry.enabled db.Types.obs))
    (onoff (Ode_obs.Registry.timing db.Types.obs))
    db.Types.wheel.Types.clock_ms

let now = Timewheel.now
let advance_clock = Timewheel.advance_clock
let advance_to = Timewheel.advance_to
let image_bytes = Persist.image_bytes
let save (db : t) path = db.Types.durability.Types.dur_save db path
let load (db : t) path = db.Types.durability.Types.dur_load db path
let recover (db : t) = db.Types.durability.Types.dur_recover db
let sync_durability (db : t) = db.Types.durability.Types.dur_sync db
let close_durability (db : t) = db.Types.durability.Types.dur_close db

(* Transactions *)

let begin_txn = Txn.begin_txn
let switch_txn = Txn.switch_txn
let current_txn = Txn.current_txn
let txn_id = Txn.txn_id
let commit = Txn.commit
let abort = Txn.abort
let with_txn = Txn.with_txn

(* Objects *)

let create = Engine.create
let delete = Engine.delete
let exists = Store.exists
let class_of = Store.class_of
let objects = Store.objects
let objects_of_class = Store.objects_of_class
let call = Engine.call
let has_method = Engine.has_method
let apply_fun = Engine.apply_fun
let post_many = Engine.post_many
let get_field = Store.get_field
let set_field = Engine.set_field

(* Triggers *)

let activate = Engine.activate
let deactivate = Engine.deactivate
let is_active = Engine.is_active
let trigger_state_words = Engine.trigger_state_words
let trigger_state = Engine.trigger_state

(* Firing notification *)

type subscription = Types.subscription

let subscribe_firings = Engine.subscribe_firings
let unsubscribe = Engine.unsubscribe

let subscriber_count (db : t) =
  List.length db.Types.engine.Types.subscribers

(* Database-scope triggers (§3) *)

let db_trigger = Schema.db_trigger
let db_trigger_str = Schema.db_trigger_str
let activate_db_trigger = Engine.activate_db_trigger
let deactivate_db_trigger = Engine.deactivate_db_trigger

(* Event histories (§9) *)

let enable_history = Store.enable_history
let object_history = Store.object_history

(* Statistics *)

type stats = Store.stats = {
  n_objects : int;
  n_classes : int;
  n_active_triggers : int;
  n_timers : int;
  state_bytes : int;
}

let stats = Store.stats
