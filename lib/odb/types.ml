(* The cross-layer knot of the Ode database.

   The database state is mutually recursive by nature — an object knows
   its class, a class knows its trigger definitions, a trigger action
   closes over the database — so the type definitions live together in
   this one small module. Everything else is layered: the {e state} of
   each subsystem is grouped into its own sub-record of [db]
   ([schema_state], [store_state], [txn_state], [engine_state],
   [wheel_state]) and the {e code} owning each sub-record lives in its
   own compilation unit ([Schema], [Store], [Txn], [Engine],
   [Timewheel], [Persist]), with the public API re-exported by the
   [Database] facade. Allowed dependency direction:
   Schema -> Store -> Txn -> Engine; [Engine] may depend on everything
   below it, never the reverse (the two upward calls — event posting
   from [Txn]'s commit/abort and timer delivery from [Timewheel] — are
   inverted through hook refs that [Engine] fills at load time).

   Examples and tests should not use this module directly. *)

module Value = Ode_base.Value
module Symbol = Ode_event.Symbol
module Detector = Ode_event.Detector

type oid = int
type method_kind = Read_only | Updating
type txn_status = Active | Committed | Aborted

type db = {
  schema : schema_state;
  store : store_state;
  txns : txn_state;
  engine : engine_state;
  wheel : wheel_state;
  mutable durability : durability_backend;
      (* the persistence strategy behind [Database.save]/[load] and the
         commit-time redo emission; mutable so [create_db] can install
         the resolved backend after the knot is tied *)
  obs : Ode_obs.Registry.t;
      (* observability registry (counters, latency histograms, trace
         ring). Created disabled; every probe in the layers guards on
         [Ode_obs.Registry.enabled] so the hot path stays untouched. *)
  mutable part : partition_state option;
      (* [Some _] when this db is a member of an oid-partitioned engine
         group ([Engine_group]). Members share the schema, txn, engine
         and obs records (built by record copy of member 0, the facade
         handed to callers); each member privately owns its store slice
         (oids with [oid mod n = p_index]), SoA blocks, timer wheel and
         durability directory. [None] — the common case — means a plain
         single-engine database; every routing helper below collapses
         to the identity then. *)
}

(* The partition group: members in owner order. Member 0 is the facade
   — the db callers hold and the home of shared counters (oid/txn
   allocation, timer sequence numbers). *)
and partition_state = { p_members : db array; p_index : int }

(* [Schema]: compiled class and trigger definitions. Written at class
   registration, read-only on the posting hot path. *)
and schema_state = {
  classes : (string, klass) Hashtbl.t;
  functions : (string, db -> Value.t list -> Value.t) Hashtbl.t;
  db_class : klass;
      (* the database scope (§3) as one more class, named
         [db_class_name]: its triggers are the database-scope
         definitions, recompiled in place by each [Schema.db_trigger] *)
}

(* [Store]: this member's slice of the object heap — one hashtable
   and one mutex guarding its structural mutation. The partition member
   is the unit the engine's batch pipeline parallelises over: all
   activations of one object live in exactly one member (its owner,
   [oid mod n_partitions]), so one domain per member steps automata
   with no shared mutable state. The engine only mutates the tables from
   sequential phases, so lookups (which parallel phases do perform)
   need no lock — a hashtable that nobody resizes is safe to read
   concurrently. [Store] owns the code. *)
and store_state = {
  table : (oid, obj) Hashtbl.t;
  lock : Mutex.t;
  mutable next_oid : int;
  mutable n_live : int;  (* stored objects with [o_deleted = false] *)
  mutable history_limit : int;  (* 0 = recording off *)
  soa : (int, soa_block) Hashtbl.t;
      (* detector uid -> the structure-of-arrays block packing the
         fixed-width automaton state vectors of every activation of
         that detector on this member's objects (paper §5: "one integer
         per active trigger per object", one per level for hierarchical
         automata). Only sequential pipeline phases allocate or free
         slots; the parallel step phase of [post_many] only touches
         blocks of its own member. *)
}

(* One packed state block: slot [i] of an activation occupies the
   [blk_words] cells at [blk_state.(i * blk_words ..)] — one word per
   automaton level plus the top (1 for mask-free detectors). Slots are
   recycled through a free list when an activation is undone or its
   object removed. *)
and soa_block = {
  blk_words : int;  (* words per activation: the detector's n_state_words *)
  mutable blk_state : int array;
  mutable blk_n : int;  (* high-water slot count *)
  mutable blk_free : int list;
}

(* [Txn]: transaction bookkeeping. *)
and txn_state = {
  mutable next_txn_id : int;
  mutable current : txn option;
  mutable open_txns : txn list;
  mutable in_abort : bool;  (* guards against tabort-during-abort loops *)
  mutable max_tcomplete_rounds : int;
      (* livelock bound on the §6 [before tcomplete] fixpoint *)
}

(* [Engine]: the posting pipeline's own state. *)
and engine_state = {
  db_obj : obj;
      (* the database scope's one object, instance of
         [schema.db_class]: its activations are the database-scope
         ones. Outside every member table, so [reset_heap] and images
         never see it. *)
  mutable subscribers : subscription list;
      (* firing subscribers in subscription order *)
  mutable next_sub_id : int;
  mutable post_domains : int;
      (* default parallelism of [post_many]'s classify/step phase *)
  mutable clamp_domains : bool;
      (* clamp the effective parallelism to
         [Domain.recommended_domain_count ()] and step batches smaller
         than [Engine.inline_batch] inline (default true):
         requesting more domains than the box has cores buys only
         contention, and below a member's worth of events the pool
         barrier costs more than it buys. [ODE_POST_DOMAINS] turns both
         off — an explicit test override must exercise the parallel
         machinery even on a 1-core box. *)
  mutable pool : Pool.t option;
      (* lazily created domain pool backing [post_many]; sized
         [post_domains] (or the call's [?domains]) and rebuilt when that
         changes. [Engine.shutdown_pool] releases the domains. *)
  mutable q_items : int array;
      (* reusable per-member event queues, rebuilt each batch by a
         counting sort in phase 0: item indices grouped by owner
         member, so a member task walks only its own events — one int
         per event, no closures *)
  mutable q_off : int array;
      (* member k owns [q_items.(q_off.(k) .. q_off.(k+1) - 1)] *)
  mutable q_cur : int array;  (* counting-sort fill cursors *)
  mutable scratch : scratch array;
      (* per-member reusable classify/step buffers, built lazily by
         [Engine]; the sequential [post] path uses the posted object's
         owner's scratch, [post_many]'s step tasks each own their
         member's — never two users at once *)
  kind_names : (Symbol.basic, string) Hashtbl.t;
      (* memoized pretty-printed basic-event keys for the observability
         probes ([Format.asprintf] per post would dominate the enabled
         cost); written only from the sequential posting phases *)
}

(* Reusable per-member posting buffers: a mask environment whose field
   reads resolve against whatever object [sc_obj] currently holds, and a
   grow-only classification-code buffer (one packed code per distinct
   detector of the candidate row). This is what makes the steady-state
   kernel path allocation-free. *)
and scratch = {
  sc_obj : obj ref;
  sc_env : Ode_event.Mask.env;
  mutable sc_codes : int array;
  mutable sc_classified : int;
  mutable sc_skipped : int;
  mutable sc_transitions : int;
      (* counter accumulators, flushed to the registry once per post
         phase (per member task under [post_many]) instead of per
         candidate — the atomics stay exact, off the inner loop *)
}

(* [Timewheel]: simulated time. *)
and wheel_state = {
  mutable clock_ms : int64;
  mutable tq : twheel;  (* the pending timers; rebuilt on bulk load *)
  mutable timers_dirty : bool;
      (* set whenever the pending set changes (insert, pop, cancel,
         load), cleared when a durability batch captures the queue — so
         WAL batches only carry the timer queue when it moved *)
  mutable tm_next_seq : int;
      (* group-wide insertion counter stamping [tm_seq]; only the
         facade's copy is read, so equal-due timers scattered across
         member wheels merge back in exactly the single-engine order *)
}

(* The pending-timer structure: a hierarchical hashed timing wheel
   (Varghese–Lauck) — O(1) arming and cancellation, cascade-on-advance,
   delivery in (due, seq) order; [Timewheel] owns the code. The wheel
   has [wheel_levels] bucket levels of [wheel_slots] slots each; level l's
   slots are 64^l ticks (ms) wide, and a timer lives at the lowest
   level whose current rotation covers its due instant — so a level-0
   slot holds exactly one instant. Buckets are intrusive doubly-linked
   node lists (O(1) unlink for eager cancellation via [tw_index]).
   [tw_ovf] holds timers beyond the top level's rotation; [tw_past]
   holds every timer due at or before the current clock, sorted by
   (due, seq): the due run. Advancing the clock moves the timers due
   at the new instant there, so its head is the minimum and delivery
   reads it first. *)
and twheel = {
  tw_slots : tnode option array array;  (* level -> slot -> bucket head *)
  tw_counts : int array;  (* pending nodes per level *)
  mutable tw_ovf : tnode option;  (* beyond the top rotation *)
  mutable tw_ovf_n : int;
  mutable tw_past : tnode option;  (* due <= clock, (due, seq)-sorted *)
  mutable tw_past_last : tnode option;  (* its tail, for sorted inserts *)
  mutable tw_past_n : int;
  mutable tw_n : int;  (* total pending nodes *)
  mutable tw_peek : tnode option;
      (* cached minimum-(due, seq) pending node; [None] = unknown
         (recomputed lazily) — kept so the per-delivery head probe in
         [Timewheel.advance_to] is O(1) between mutations *)
  tw_index : (oid, tnode list) Hashtbl.t;
      (* live handles per object — the eager-cancellation index and the
         same-instant group pull; holds only linked nodes (delivery and
         cancellation both unlink) *)
  mutable tw_visited : int;
      (* nodes looked at by minimum scans, sorted inserts and group
         pulls: the wheel's work counter, read by
         [Timewheel.nodes_visited] *)
}

(* One pending timer's wheel handle. [tn_level] is the bucket address:
   0..L-1 a wheel level, -1 the overflow list, -3 the past list, -2
   detached (popped or cancelled). *)
and tnode = {
  tn_timer : timer;
  mutable tn_prev : tnode option;
  mutable tn_next : tnode option;
  mutable tn_level : int;
  mutable tn_slot : int;
}

(* [Durability]: the persistence strategy, held abstractly as a record
   of backend operations.
   [Persist] packs the full-image ODE1 codec, [Wal] the write-ahead-log
   backend; [Database.create_db] resolves [Config.durability]. The
   default installed by [make_db] is a no-op: raw-layer users (tests,
   benches) pay nothing, and batch emission from [Txn]/[Engine]/
   [Timewheel] goes through [dur_commit] without those layers depending
   on [Persist] or [Wal]. *)
and durability_backend = {
  dur_name : string;  (* "none", "image" or "wal:<dir>" *)
  dur_attach : db -> unit;
      (* called once by [create_db] right after construction — the WAL
         backend baselines its directory (initial snapshot + empty log)
         here so a crash before the first commit still recovers *)
  dur_commit : db -> oid list -> unit;
      (* emit one redo batch covering the listed objects (plus counters,
         clock and — when dirty — the timer queue). Called at the end of
         every transaction (user commit and abort, system transactions,
         timer deliveries) and after clock advancement. *)
  dur_save : db -> string -> unit;
  dur_load : db -> string -> unit;
  dur_recover : db -> unit;
      (* rebuild state from the backend's own storage (WAL: latest
         snapshot + log replay); classes must be registered first *)
  dur_sync : db -> unit;  (* force buffered group-commit batches to disk *)
  dur_close : db -> unit;
}

and klass = {
  k_name : string;
  k_fields : (string * Value.t) list;  (* declaration order, with defaults *)
  k_methods : (string, meth) Hashtbl.t;
  k_triggers : (string, trigger_def) Hashtbl.t;
      (* by name; its size is the length of each object's [o_acts] *)
  k_rows : (Symbol.basic_key, krow) Hashtbl.t;
      (* §5 hot-path index, built at schema registration (the database
         class's again at each [Schema.db_trigger]): posted
         basic -> the posting kernel's compiled candidate row of trigger
         definitions whose alphabet can react to it, in declaration
         order, with the distinct shared detectors factored out so one
         post classifies each detector exactly once and never
         allocates. Activation state is consulted
         through [o_acts], so trigger (de)activation needs no
         invalidation. *)
  k_constructor : (db -> oid -> Value.t list -> unit) option;
}

(* One compiled candidate row: the trigger definitions of one class that
   can react to one [basic_key], in declaration order, plus their
   distinct detectors (shared detectors classify once per post). *)
and krow = {
  kr_defs : trigger_def array;  (* declaration order *)
  kr_dets : Detector.t array;  (* distinct detectors, first-use order *)
  kr_det_of : int array;  (* kr_defs index -> kr_dets index *)
}

and meth = {
  m_name : string;
  m_kind : method_kind;
  m_arity : int option;  (* None = variadic *)
  m_impl : db -> oid -> Value.t list -> Value.t;
}

and trigger_def = {
  t_name : string;
  t_class : string;
  t_event : Ode_event.Expr.t;
  t_detector : Detector.t;  (* compiled once per class, as in §5 *)
  t_perpetual : bool;
  t_witnesses : bool;  (* track full per-match provenance (§9) *)
  t_action : db -> fire_context -> unit;
  mutable t_index : int;
      (* dense per-class slot, assigned by [Schema]'s class compiler in
         declaration order; indexes [o_acts] on every object of the
         class, the database object included *)
}

and fire_context = {
  fc_oid : oid;  (* the object the event was posted to *)
  fc_params : Value.t list;  (* activation-time trigger arguments *)
  fc_occurrence : Symbol.occurrence;  (* the occurrence completing the event *)
  fc_collected : (string * Value.t) list;
      (* formal-name bindings collected across the constituent logical
         events (paper §9), latest occurrence winning *)
  fc_witnesses : (string * Value.t) list list option;
      (* full per-match provenance when the trigger was declared with
         [~witnesses:true]; one binding list per way the event matched *)
}

and active_trigger = {
  at_def : trigger_def;
  mutable at_params : Value.t list;  (* activation arguments, passed to the action *)
  at_blk : soa_block;
  at_slot : int;
      (* the automaton state vector lives at
         [at_blk.blk_state.(at_slot * at_blk.blk_words ..)]: an object's
         activation in its owner member's block for the detector, a
         database-scope activation in a private one-slot block *)
  mutable at_collected : (string * Value.t) list;  (* §9 parameter collection *)
  mutable at_provenance : Ode_event.Provenance.t option;  (* when t_witnesses *)
  mutable at_last_witnesses : (string * Value.t) list list;
  mutable at_active : bool;
  mutable at_epoch : int;  (* bumped on (re)activation; stale timers check it *)
}

and obj = {
  o_id : oid;
  o_class : klass;
  o_fields : (string, Value.t) Hashtbl.t;
  o_triggers : (string, active_trigger) Hashtbl.t;
  mutable o_acts : active_trigger option array;
      (* activations by [t_index] — the kernel's candidate rows resolve
         through this dense array instead of the name hashtable. Only
         the database object's ever grows: [Schema.db_trigger] adds a
         definition to its class after it was made. *)
  mutable o_n_active : int;  (* activations with [at_active = true] *)
  mutable o_deleted : bool;
  mutable o_lock : Lock.t;
  mutable o_history : History.record list;  (* newest first; see §9 *)
  mutable o_history_len : int;
}

and txn = {
  tx_id : int;
  tx_system : bool;  (* transaction events are not posted for system txns *)
  mutable tx_status : txn_status;
  mutable tx_accessed : oid list;  (* reverse order of first access *)
  tx_seen : (oid, unit) Hashtbl.t;  (* membership mirror of tx_accessed *)
  mutable tx_undo : undo_entry list;  (* newest first *)
  mutable tx_dirty : oid list;
      (* objects whose durable state this txn changed outside the
         access path (trigger (de)activation carries no object access
         semantics, so it must not enter [tx_accessed] and the event
         fan-outs) — unioned into the redo-batch footprint at emission *)
}

and undo_entry =
  | U_field of obj * string * Value.t
  | U_create of obj
  | U_delete of obj
  | U_trigger_state of active_trigger * int array
      (* snapshot of the state words *)
  | U_trigger_collected of active_trigger * (string * Value.t) list
  | U_trigger_active of obj * active_trigger * bool
      (* the owning object, so undo can keep [o_n_active] exact *)
  | U_trigger_added of obj * string
  | U_trigger_epoch of active_trigger * int
      (* the epoch before a re-activation bumped it, so an abort
         revives the timers the restored [U_timers_cancelled] entries
         put back *)
  | U_timers_cancelled of timer list
      (* timers eagerly cancelled inside the txn (deactivate / delete /
         re-activation epoch bump); undo re-inserts them with their
         original seqs, so an abort restores the exact queue bytes *)
  | U_timers_armed of timer list
      (* timers armed inside the txn; undo cancels them (matched by
         physical equality, so a re-armed equal timer is untouched) *)

and timer = {
  tm_due : int64;
  tm_seq : int;
      (* insertion order among equal due times, allocated group-wide
         from the facade wheel — the tiebreak that keeps the merged
         delivery order of partitioned wheels identical to the single
         queue (and survives a save/load round trip) *)
  tm_oid : oid;
  tm_trigger : string;
  tm_epoch : int;
  tm_spec : Symbol.time_spec;
  tm_anchor : int64;  (* activation time, for Every/After_period *)
}

and firing = {
  f_trigger : string;
  f_class : string;
  f_oid : oid;
  f_at : int64;
  f_txn : int;
}

and subscription = {
  s_id : int;
  s_fn : firing -> unit;
  mutable s_active : bool;
}

exception Tabort
exception Lock_conflict of oid
exception Ode_error of string

let ode_error fmt = Format.kasprintf (fun s -> raise (Ode_error s)) fmt

(* The durability backend installed when nobody chose one: emission is
   free, and save/load point the caller at [Database.Config.durability]
   (raw [make_db] users drive [Persist] directly). *)
let noop_durability =
  {
    dur_name = "none";
    dur_attach = (fun _ -> ());
    dur_commit = (fun _ _ -> ());
    dur_save = (fun _ _ -> ode_error "no durability backend attached");
    dur_load = (fun _ _ -> ode_error "no durability backend attached");
    dur_recover = (fun _ -> ode_error "no durability backend attached");
    dur_sync = (fun _ -> ());
    dur_close = (fun _ -> ());
  }

(* Geometry of the timing wheel: [wheel_levels] levels of [wheel_slots]
   slots ([Timewheel] owns the algorithms). *)
let wheel_levels = 8
let wheel_slots = 64

let make_wheel () =
  {
    tw_slots = Array.init wheel_levels (fun _ -> Array.make wheel_slots None);
    tw_counts = Array.make wheel_levels 0;
    tw_ovf = None;
    tw_ovf_n = 0;
    tw_past = None;
    tw_past_last = None;
    tw_past_n = 0;
    tw_n = 0;
    tw_peek = None;
    tw_index = Hashtbl.create 64;
    tw_visited = 0;
  }

(* The database scope's class: [f_class] of its firings, and the
   scope [Engine] reads off a definition. *)
let db_class_name = "<database>"

let new_class ?constructor name fields =
  {
    k_name = name;
    k_fields = fields;
    k_methods = Hashtbl.create 8;
    k_triggers = Hashtbl.create 8;
    k_rows = Hashtbl.create 16;
    k_constructor = constructor;
  }

(* A fresh object record with the class's field defaults installed,
   not yet in any heap. *)
let new_obj k oid =
  let obj =
    {
      o_id = oid;
      o_class = k;
      o_fields = Hashtbl.create 8;
      o_triggers = Hashtbl.create 4;
      o_acts = Array.make (Hashtbl.length k.k_triggers) None;
      o_n_active = 0;
      o_deleted = false;
      o_lock = Lock.Free;
      o_history = [];
      o_history_len = 0;
    }
  in
  List.iter (fun (name, v) -> Hashtbl.replace obj.o_fields name v) k.k_fields;
  obj

let make_store ~next_oid =
  {
    table = Hashtbl.create 64;
    lock = Mutex.create ();
    next_oid;
    n_live = 0;
    history_limit = 0;
    soa = Hashtbl.create 8;
  }

(* The composition root: every layer's state record, initialized empty.
   Lives here because only the knot module sees all the sub-records. *)
let make_db ?(start_time = 0L) ?(max_tcomplete_rounds = 1000)
    ?(trace_capacity = 1024) () =
  if max_tcomplete_rounds < 1 then
    ode_error "max_tcomplete_rounds must be >= 1";
  let db_class = new_class db_class_name [] in
  let db =
    {
      schema =
        { classes = Hashtbl.create 8; functions = Hashtbl.create 8; db_class };
      store = make_store ~next_oid:1;
      txns =
        {
          next_txn_id = 1;
          current = None;
          open_txns = [];
          in_abort = false;
          max_tcomplete_rounds;
        };
      engine =
        {
          db_obj = new_obj db_class 0;
          subscribers = [];
          next_sub_id = 1;
          post_domains = 1;
          clamp_domains = true;
          pool = None;
          q_items = [||];
          q_off = [||];
          q_cur = [||];
          scratch = [||];
          kind_names = Hashtbl.create 16;
        };
      wheel =
        {
          clock_ms = start_time;
          tq = make_wheel ();
          timers_dirty = false;
          tm_next_seq = 0;
        };
      durability = noop_durability;
      obs = Ode_obs.Registry.create ~trace_capacity ();
      part = None;
    }
  in
  db

(* ------------------------------------------------------------------ *)
(* Partition routing                                                  *)
(*                                                                    *)
(* The only group-awareness the inner layers need: which member owns  *)
(* an oid's heap slice, and where the shared counters live. Both are  *)
(* the identity for an unpartitioned db, so every existing call path  *)
(* pays one [match] and nothing else.                                 *)
(* ------------------------------------------------------------------ *)

let n_partitions db =
  match db.part with Some p -> Array.length p.p_members | None -> 1

(* The facade: member 0, home of group-wide counters and the db-scope
   automata. Identity when unpartitioned. *)
let primary db = match db.part with Some p -> p.p_members.(0) | None -> db

(* The member whose store/wheel slice owns this oid. *)
let owner_db db oid =
  match db.part with
  | Some p -> p.p_members.(oid mod Array.length p.p_members)
  | None -> db

(* ------------------------------------------------------------------ *)
(* Detection-state accessors                                          *)
(*                                                                    *)
(* All reads and writes of an activation's state words outside the    *)
(* kernel's inner loop go through these: undo snapshots, persistence  *)
(* images and the public [trigger_state] API.                         *)
(* ------------------------------------------------------------------ *)

let[@inline] at_off at = at.at_slot * at.at_blk.blk_words

let at_state_copy at = Array.sub at.at_blk.blk_state (at_off at) at.at_blk.blk_words

let at_state_restore at w =
  Array.blit w 0 at.at_blk.blk_state (at_off at) at.at_blk.blk_words

let at_state_reset at =
  Detector.write_initial at.at_def.t_detector at.at_blk.blk_state (at_off at)

let at_top_state at = at.at_blk.blk_state.(at_off at + at.at_blk.blk_words - 1)
let at_state_len at = at.at_blk.blk_words

(* Single point maintaining the per-object active count next to the
   flag. *)
let set_trigger_active obj at v =
  if at.at_active <> v then begin
    obj.o_n_active <- obj.o_n_active + (if v then 1 else -1);
    at.at_active <- v
  end

(* ------------------------------------------------------------------ *)
(* Activation lifecycle, at either scope                              *)
(* ------------------------------------------------------------------ *)

let fresh_provenance def =
  if def.t_witnesses then Some (Ode_event.Provenance.make def.t_event) else None

(* A fresh, active activation of [def] whose words live in slot
   [at_slot] of [at_blk] (already initial). *)
let new_activation def (at_blk, at_slot) params =
  { at_def = def; at_params = params; at_blk; at_slot; at_collected = [];
    at_provenance = fresh_provenance def; at_last_witnesses = [];
    at_active = true; at_epoch = 0 }

(* Install [at] on [obj], by name and by slot. *)
let attach obj at =
  if at.at_active then obj.o_n_active <- obj.o_n_active + 1;
  Hashtbl.add obj.o_triggers at.at_def.t_name at;
  obj.o_acts.(at.at_def.t_index) <- Some at

(* Re-activation re-arms in place: initial words, no bindings or
   witnesses, active, a new epoch (orphaning the previous incarnation's
   timers) and the new arguments. *)
let rearm obj at params =
  at_state_reset at;
  at.at_collected <- [];
  at.at_provenance <- fresh_provenance at.at_def;
  at.at_last_witnesses <- [];
  set_trigger_active obj at true;
  at.at_epoch <- at.at_epoch + 1;
  at.at_params <- params

(* Errors name a trigger the way its scope declares it. *)
let trigger_label cls name =
  if cls = db_class_name then "database trigger " ^ name
  else Printf.sprintf "trigger %s.%s" cls name

(* Whether [obj] listens to transaction event [basic]: its class
   declares a trigger whose alphabet holds the event (the class's
   dispatch row exists), or history recording is on, so
   [object_history] keeps listing every event. First touch, commit and
   abort post a transaction event only to listeners: to anyone else the
   post would step no automaton and record nothing (§5). *)
let listens db obj basic =
  db.store.history_limit > 0 || Hashtbl.mem obj.o_class.k_rows (Symbol.basic_key basic)
