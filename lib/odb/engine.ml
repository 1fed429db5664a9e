module Value = Ode_base.Value
module Symbol = Ode_event.Symbol
module Mask = Ode_event.Mask
module Detector = Ode_event.Detector
module Registry = Ode_obs.Registry
module Trace = Ode_obs.Trace
open Types

(* ------------------------------------------------------------------ *)
(* Observability probes                                                 *)
(* ------------------------------------------------------------------ *)

(* Every probe below is guarded by the caller on
   [Registry.enabled db.obs]; with observability off the pipeline pays
   one boolean load per probe site (E10-obs-overhead in EXPERIMENTS.md
   keeps this honest against the E9-dispatch baseline). *)

(* Memoized per database: formatting the key with [Format.asprintf] on
   every enabled post would dominate the probe cost. Only the sequential
   posting phases call this, so the table needs no lock. *)
let kind_name db basic =
  match Hashtbl.find_opt db.engine.kind_names basic with
  | Some s -> s
  | None ->
    let s = Format.asprintf "%a" Symbol.pp_basic_key (Symbol.basic_key basic) in
    Hashtbl.add db.engine.kind_names basic s;
    s

(* Per-member scratch buffers, built on first kernel post; the member
   count is fixed at database creation, so the array never resizes.
   Each scratch is built against its member (lookups route group-wide
   either way; the siting keeps member tasks touching only their own
   slice). *)
let ensure_scratch db =
  if Array.length db.engine.scratch = 0 then
    db.engine.scratch <- Array.map Store.make_scratch (Store.members db);
  db.engine.scratch

(* Retire a scratch's accumulated counter bumps to the registry: one
   atomic add per counter per post phase (per member task under
   [post_many]) instead of one per candidate. *)
let flush_scratch_counters obs sc =
  if sc.sc_classified <> 0 then begin
    Registry.add obs Registry.Classified sc.sc_classified;
    sc.sc_classified <- 0
  end;
  if sc.sc_skipped <> 0 then begin
    Registry.add obs Registry.Index_skipped sc.sc_skipped;
    sc.sc_skipped <- 0
  end;
  if sc.sc_transitions <> 0 then begin
    Registry.add obs Registry.Transitions sc.sc_transitions;
    sc.sc_transitions <- 0
  end

(* ------------------------------------------------------------------ *)
(* Firing notification: subscriptions                                  *)
(* ------------------------------------------------------------------ *)

let subscribe_firings db fn =
  let s = { s_id = db.engine.next_sub_id; s_fn = fn; s_active = true } in
  db.engine.next_sub_id <- s.s_id + 1;
  db.engine.subscribers <- db.engine.subscribers @ [ s ];
  s

let unsubscribe db s =
  s.s_active <- false;
  db.engine.subscribers <-
    List.filter (fun x -> not (x == s)) db.engine.subscribers

(* ------------------------------------------------------------------ *)
(* The three pipeline phases                                           *)
(* ------------------------------------------------------------------ *)

(* §5 observes that detection state is one integer per active trigger
   per object, so the pipeline factors into:

     1. {e classify} — map the occurrence to a symbol of each candidate's
        alphabet, once per distinct shared detector. Read-only (guard
        masks may be evaluated; detection state is never touched).
     2. {e step} — advance each candidate activation's automaton and
        collect §9 bindings. Independent per activation; this is the
        phase [post_many] fans out across domains, one member per task.
     3. {e fire} — deactivate one-shots and run fired actions, strictly
        sequential, in batch then declaration order.

   [post] runs all three inline on one occurrence; [post_many] runs
   phase 1+2 per partition member (possibly in parallel) and phase 3
   once. Both go through the compiled kernel below. *)

let mask_error at msg =
  ode_error "%s: mask evaluation failed: %s"
    (trigger_label at.at_def.t_class at.at_def.t_name) msg

(* ------------------------------------------------------------------ *)
(* The compiled posting kernel                                         *)
(* ------------------------------------------------------------------ *)

(* The per-event path with everything hoisted to registration or
   activation time: candidate resolution is one hashtable probe into the
   class's prebuilt [krow]; classification runs once per distinct shared
   detector, producing a packed int code in the member scratch's buffer;
   stepping a mask-free detector is one flat-table load on its SoA
   block. The helpers are top-level and tail-recursive (not closures)
   and the counters accumulate in the scratch, so a steady-state post
   that fires nothing allocates nothing beyond the occurrence and the
   dispatch key.

   Candidates run in declaration order, and every classification (so
   every mask evaluation, and any mask error) happens before any
   automaton steps — masks are side-effect-free (§7), so the hoisting
   is unobservable. *)

let unclassified = min_int

let rec count_candidates (defs : trigger_def array)
    (o_acts : active_trigger option array) i acc =
  if i >= Array.length defs then acc
  else
    let acc =
      match o_acts.(defs.(i).t_index) with
      | Some at when at.at_active -> acc + 1
      | Some _ | None -> acc
    in
    count_candidates defs o_acts (i + 1) acc

(* Classification pass: walk candidates in declaration order, classify
   each distinct detector on first use. Mask failures are attributed to
   the first candidate using the detector. *)
let rec classify_pass sc (row : krow) (o_acts : active_trigger option array)
    occurrence i =
  if i < Array.length row.kr_defs then begin
    (match o_acts.(row.kr_defs.(i).t_index) with
    | Some at when at.at_active ->
      let j = row.kr_det_of.(i) in
      if sc.sc_codes.(j) = unclassified then
        sc.sc_codes.(j) <-
          (try Detector.classify_code row.kr_dets.(j) ~env:sc.sc_env occurrence
           with Mask.Eval_error msg -> mask_error at msg)
    | Some _ | None -> ());
    classify_pass sc row o_acts occurrence (i + 1)
  end

(* §9 parameter collection: the formals this occurrence binds, latest
   occurrence winning. *)
let collect_bindings at det code occurrence =
  List.iter
    (fun (name, v) ->
      at.at_collected <- (name, v) :: List.remove_assoc name at.at_collected)
    (Detector.collect_code det code occurrence)

(* Advance one activation on a classified occurrence, at either scope:
   collect §9 bindings, feed provenance, step its slot, then count and
   trace the advance. Committed-mode snapshots go to [undo] (database
   triggers are always Full_history, so they never take one); an
   irrelevant occurrence provably changes neither the automaton state
   nor the collected bindings, so the snapshots are only taken for
   relevant ones. Masks are evaluated in [sc]'s environment; callers
   attribute a [Mask.Eval_error] to the trigger (kept out of here so
   the helper inlines into the kernel's step pass). *)
let[@inline] advance db ~undo ~on sc (at : active_trigger) code oid occurrence =
  let det = at.at_def.t_detector in
  let relevant = Detector.code_relevant code in
  let old_top = if on then at_top_state at else 0 in
  if relevant then begin
    if det.Detector.mode = Detector.Committed then
      undo :=
        U_trigger_collected (at, at.at_collected)
        :: U_trigger_state (at, at_state_copy at)
        :: !undo;
    if det.Detector.has_formals then collect_bindings at det code occurrence
  end;
  (match at.at_provenance with
  | Some prov ->
    at.at_last_witnesses <-
      Ode_event.Provenance.post prov ~env:sc.sc_env occurrence
  | None -> ());
  let fired =
    Detector.post_code det at.at_blk.blk_state (at_off at) ~env:sc.sc_env code
  in
  if on && relevant then begin
    sc.sc_transitions <- sc.sc_transitions + 1;
    Registry.span db.obs
      (Trace.Advanced
         { scope =
             (if at.at_def.t_class = db_class_name then Trace.Db
              else Trace.Obj oid);
           trigger = at.at_def.t_name; old_state = old_top;
           new_state = at_top_state at })
  end;
  fired

(* Step pass: advance each active candidate in declaration order,
   accumulating the fired set in reverse (steady state: no cons).
   Committed-mode snapshots go to [undo] — the caller's segment, merged
   into the transaction log afterwards (a per-member segment under
   [post_many]). Mutates only this object's activations, so distinct
   objects step safely in parallel. *)
let rec step_pass db ~undo ~on sc (row : krow) obj occurrence i acc =
  if i >= Array.length row.kr_defs then List.rev acc
  else
    match obj.o_acts.(row.kr_defs.(i).t_index) with
    | Some at when at.at_active ->
      let code = sc.sc_codes.(row.kr_det_of.(i)) in
      let fired =
        try advance db ~undo ~on sc at code obj.o_id occurrence
        with Mask.Eval_error msg -> mask_error at msg
      in
      let acc = if fired then at :: acc else acc in
      step_pass db ~undo ~on sc row obj occurrence (i + 1) acc
    | Some _ | None ->
      step_pass db ~undo ~on sc row obj occurrence (i + 1) acc

(* One occurrence through the kernel. Returns the fired activations in
   declaration order; committed-mode undo snapshots go to [undo];
   counter bumps accumulate in [sc] for the caller to flush once per
   phase. *)
let kernel_post_one db ~undo ~on sc obj (occurrence : Symbol.occurrence) =
  match
    Hashtbl.find_opt obj.o_class.k_rows (Symbol.basic_key occurrence.basic)
  with
  | None ->
    if on then sc.sc_skipped <- sc.sc_skipped + obj.o_n_active;
    []
  | Some row ->
    (* dispatch accounting first — complete before a mask can blow up
       mid-classification *)
    let n_cand = count_candidates row.kr_defs obj.o_acts 0 0 in
    if on then begin
      sc.sc_classified <- sc.sc_classified + n_cand;
      sc.sc_skipped <- sc.sc_skipped + (obj.o_n_active - n_cand)
    end;
    if n_cand = 0 then []
    else begin
      let n_dets = Array.length row.kr_dets in
      if Array.length sc.sc_codes < n_dets then
        sc.sc_codes <- Array.make (max 16 (2 * n_dets)) unclassified
      else Array.fill sc.sc_codes 0 n_dets unclassified;
      (* the ref retains the last posted object of the member until the
         next post: clearing it afterwards would need a protect closure *)
      sc.sc_obj := obj;
      classify_pass sc row obj.o_acts occurrence 0;
      step_pass db ~undo ~on sc row obj occurrence 0 []
    end

(* ------------------------------------------------------------------ *)
(* The firing pipeline                                                 *)
(* ------------------------------------------------------------------ *)

(* Run one fired action. The span is emitted whenever observability is
   on; the clock is only read — and the histogram only fed — when
   timing has a consumer ([Registry.timing]), so an enabled registry
   without a sink costs no clock reads here. *)
let run_action db (at : active_trigger) ~scope ctx =
  let obs = db.obs in
  if not (Registry.enabled obs) then at.at_def.t_action db ctx
  else if Registry.timing obs then begin
    let t0 = Registry.now_ns () in
    at.at_def.t_action db ctx;
    let ns = Registry.now_ns () - t0 in
    Registry.record_ns obs Registry.Action ns;
    Registry.span obs
      (Trace.Action_ran { scope; trigger = at.at_def.t_name; ns })
  end
  else begin
    at.at_def.t_action db ctx;
    Registry.span obs
      (Trace.Action_ran { scope; trigger = at.at_def.t_name; ns = 0 })
  end

(* Phase 3 at either scope: deactivate one-shots, notify the firing to
   the registry and the subscribers (in subscription order), and run
   the actions of the set that fired, in declaration order. [oid] is the
   firing's object — the posted one, or the affected one at database
   scope — and [txn] the posting transaction, if any ([f_txn] 0 without
   one). *)
let post_fired db ~oid ~scope txn obj occurrence fired =
  let obs = db.obs in
  let f_txn = match txn with Some tx -> tx.tx_id | None -> 0 in
  List.iter
    (fun at ->
      let def = at.at_def in
      if not def.t_perpetual then begin
        (match txn with
        | Some tx when def.t_detector.Detector.mode = Detector.Committed ->
          tx.tx_undo <- U_trigger_active (obj, at, at.at_active) :: tx.tx_undo
        | Some _ | None -> ());
        set_trigger_active obj at false
      end;
      let f_at = db.wheel.clock_ms in
      if Registry.enabled obs then begin
        Registry.incr obs Registry.Firings;
        Registry.span obs
          (Trace.Fired { scope; trigger = def.t_name; txn = f_txn; at_ms = f_at })
      end;
      let f =
        { f_trigger = def.t_name; f_class = def.t_class; f_oid = oid; f_at; f_txn }
      in
      List.iter (fun s -> if s.s_active then s.s_fn f) db.engine.subscribers;
      run_action db at ~scope
        {
          fc_oid = oid;
          fc_params = at.at_params;
          fc_occurrence = occurrence;
          fc_collected = at.at_collected;
          fc_witnesses = (if def.t_witnesses then Some at.at_last_witnesses else None);
        })
    fired

(* The §5 monitoring pipeline: advance the automaton of every active
   trigger the occurrence can concern (per the class's candidate rows),
   collect the set that fired, then execute their actions (order
   unspecified in the paper; we use declaration order). Returns whether
   anything fired. *)
let post db tx obj (basic : Symbol.basic) args =
  let obs = db.obs in
  let on = Registry.enabled obs in
  let timed = Registry.timing obs in
  let t0 = if timed then Registry.now_ns () else 0 in
  let occurrence = { Symbol.basic; args; at = db.wheel.clock_ms } in
  Store.record_history db tx obj occurrence;
  if on then begin
    Registry.incr obs Registry.Posts;
    Registry.incr_kind obs (kind_name db basic);
    Registry.span obs
      (Trace.Posted
         { scope = Trace.Obj obj.o_id; basic = kind_name db basic; txn = tx.tx_id;
           at_ms = occurrence.Symbol.at })
  end;
  let sc = (ensure_scratch db).(obj.o_id mod Types.n_partitions db) in
  let undo = ref [] in
  (* the undo segment is merged even when a mask blows up mid-walk, so
     an abort still restores the already-stepped committed-mode
     candidates *)
  let merge () =
    if !undo <> [] then begin
      tx.tx_undo <- !undo @ tx.tx_undo;
      undo := []
    end
  in
  let fired =
    match kernel_post_one db ~undo ~on sc obj occurrence with
    | fired ->
      merge ();
      if on then flush_scratch_counters obs sc;
      fired
    | exception e ->
      merge ();
      if on then flush_scratch_counters obs sc;
      raise e
  in
  (* the common no-fire path builds neither [Some tx] nor a scope *)
  if fired <> [] then
    post_fired db ~oid:obj.o_id ~scope:(Trace.Obj obj.o_id) (Some tx) obj
      occurrence fired;
  if timed then Registry.record_ns obs Registry.Post (Registry.now_ns () - t0);
  fired <> []

(* The database scope's one object, its slot array grown to its class
   when a [Schema.db_trigger] declared since the last use added a
   definition. *)
let db_obj db =
  let obj = db.engine.db_obj in
  let n = Hashtbl.length obj.o_class.k_triggers in
  let have = Array.length obj.o_acts in
  if have < n then obj.o_acts <- Array.append obj.o_acts (Array.make (n - have) None);
  obj

(* Post to the database scope (§3): the database object goes through
   the kernel like any object, classified {e at the event's origin} —
   in the scratch of the member owning the affected oid (the first [Oid]
   argument, member 0 without one) — and fires through [post_fired]
   into whatever transaction, possibly none, posted the event.
   Database triggers are always Full_history, so the kernel takes no
   undo snapshot here. *)
let post_db db (basic : Symbol.basic) args =
  let obs = db.obs in
  let on = Registry.enabled obs in
  let txn = db.txns.current in
  if on then begin
    Registry.incr obs Registry.Db_posts;
    Registry.incr_kind obs (kind_name db basic);
    Registry.span obs
      (Trace.Posted
         { scope = Trace.Db; basic = kind_name db basic;
           txn = (match txn with Some tx -> tx.tx_id | None -> 0);
           at_ms = db.wheel.clock_ms })
  end;
  let obj = db_obj db in
  let occurrence = { Symbol.basic; args; at = db.wheel.clock_ms } in
  let affected = match args with Value.Oid o :: _ -> o | _ -> 0 in
  let sc = (ensure_scratch db).(affected mod Types.n_partitions db) in
  let fired =
    match kernel_post_one db ~undo:(ref []) ~on sc obj occurrence with
    | fired ->
      if on then flush_scratch_counters obs sc;
      fired
    | exception e ->
      if on then flush_scratch_counters obs sc;
      raise e
  in
  if fired <> [] then post_fired db ~oid:affected ~scope:Trace.Db txn obj occurrence fired

(* ------------------------------------------------------------------ *)
(* Database-scope trigger activation (§3)                              *)
(* ------------------------------------------------------------------ *)

let activate_db_trigger db name params =
  let obj = db_obj db in
  match Hashtbl.find_opt obj.o_triggers name with
  | Some at -> rearm obj at params
  | None -> (
    match Hashtbl.find_opt obj.o_class.k_triggers name with
    | None -> ode_error "no database trigger %s" name
    | Some def ->
      attach obj (new_activation def (Store.private_slot def.t_detector) params))

let deactivate_db_trigger db name =
  let obj = db_obj db in
  match Hashtbl.find_opt obj.o_triggers name with
  | Some at -> set_trigger_active obj at false
  | None -> ()

(* Class registration announces itself on the database scope. *)
let register_class db b =
  Schema.register_class db b;
  post_db db
    (Symbol.Method (After, "defclass"))
    [ Value.String (Schema.builder_name b) ]

(* ------------------------------------------------------------------ *)
(* System transactions                                                 *)
(* ------------------------------------------------------------------ *)

(* A system transaction's redo batch must cover its fan-out targets
   too: [post] delivers to them without [touch], so they never enter
   [tx_accessed], yet their automatons advanced. Order-preserving
   union: fan-out targets first, then the accessed set the actions
   grew. *)
let union_oids oids accessed =
  let seen = Hashtbl.create 16 in
  List.iter (fun o -> Hashtbl.replace seen o ()) oids;
  oids
  @ List.filter
      (fun o ->
        if Hashtbl.mem seen o then false
        else begin
          Hashtbl.replace seen o ();
          true
        end)
      accessed

(* Detach a finished system transaction, give the caller back its
   current transaction, and emit one durability batch over [oids] plus
   everything the system transaction touched. *)
let end_system db oids sys saved =
  (* [Txn.detach] would reset current; restore by hand *)
  db.txns.open_txns <- List.filter (fun t -> not (t == sys)) db.txns.open_txns;
  db.txns.current <- saved;
  db.durability.dur_commit db (union_oids oids (List.rev sys.tx_accessed @ List.rev sys.tx_dirty))

(* Post [basic] to [target] inside a fresh system transaction (§5:
   commit/abort and time events belong to no user transaction), via
   [post_to db sys target basic]. A [Tabort] raised by an action aborts
   only the system transaction; any other exception aborts it too and
   is re-raised once the transaction is detached and its batch is out.
   [post_to] is a top-level function, not a closure, so a delivery
   allocates nothing for it. *)
let in_system_txn db oids post_to target basic =
  let sys = Txn.begin_system db in
  let saved = db.txns.current in
  db.txns.current <- Some sys;
  match post_to db sys target basic with
  | () ->
    sys.tx_status <- Committed;
    Txn.release_locks db sys;
    end_system db oids sys saved
  | exception Tabort ->
    (* [Txn.abort] emitted a batch for [sys.tx_accessed]; the union
       batch additionally captures the fan-out targets whose
       full-history advances survived the undo *)
    Txn.abort db sys;
    end_system db oids sys saved
  | exception e ->
    Txn.abort db sys;
    end_system db oids sys saved;
    raise e

let post_live db sys oids basic =
  List.iter
    (fun oid ->
      match Store.live_obj_opt db oid with
      | Some obj -> ignore (post db sys obj basic [])
      | None -> ())
    oids

let post_obj db sys obj basic = ignore (post db sys obj basic [])

(* Post a transaction event to the objects of a finished transaction
   that listen to it ([Txn.finish] picks them). *)
let system_post db oids basic = in_system_txn db oids post_live oids basic

(* Deliver one time-event occurrence to an object, inside a system
   transaction so fired actions can mutate objects transactionally. *)
let deliver_time_event db oid spec =
  match Store.live_obj_opt db oid with
  | Some obj -> in_system_txn db [ oid ] post_obj obj (Symbol.Time spec)
  | None -> ()

(* Wire the upward calls: Txn's commit/abort and Timewheel's delivery
   post through the pipeline defined above. *)
let () =
  Txn.set_post_hook post;
  Txn.set_system_post_hook system_post;
  Timewheel.set_deliver_hook deliver_time_event

(* ------------------------------------------------------------------ *)
(* Objects                                                             *)
(* ------------------------------------------------------------------ *)

(* Lazy [after tbegin]: posted to an object immediately before the
   transaction's first access to it (§3.1(4)). *)
(* First-touch test via the [tx_seen] hash mirror: O(1) per access where
   the old [List.mem tx.tx_accessed] walk made a transaction touching n
   objects quadratic. [tx_accessed] itself is kept (and stays the only
   ordered record) for the commit fixpoint, lock release and the
   transaction-event fan-outs, which all need deterministic first-access
   order. *)
let touch db tx obj =
  if not (Hashtbl.mem tx.tx_seen obj.o_id) then begin
    Hashtbl.add tx.tx_seen obj.o_id ();
    tx.tx_accessed <- obj.o_id :: tx.tx_accessed;
    if (not tx.tx_system) && listens db obj Symbol.Tbegin then
      ignore (post db tx obj Symbol.Tbegin [])
  end

(* ------------------------------------------------------------------ *)
(* Batch posting: post_many and the domain pool                         *)
(* ------------------------------------------------------------------ *)

let set_post_domains db n =
  if n < 1 then ode_error "post_domains must be >= 1 (got %d)" n;
  db.engine.post_domains <- n

let post_domains db = db.engine.post_domains

(* Below this many events a batch steps inline on the caller while the
   clamp is on: under a member's worth of events the pool barrier costs
   more than it amortizes. *)
let inline_batch = 32

let set_domain_clamp db flag = db.engine.clamp_domains <- flag
let domain_clamp db = db.engine.clamp_domains

let shutdown_pool db =
  match db.engine.pool with
  | Some p ->
    db.engine.pool <- None;
    Pool.shutdown p
  | None -> ()

(* The pool is lazily built and cached on the database; resized (torn
   down and respawned) only when [set_post_domains] changed the target
   size since the last batch. *)
let ensure_pool db ~size =
  match db.engine.pool with
  | Some p when Pool.size p = size -> p
  | Some _ | None ->
    shutdown_pool db;
    let p = Pool.create ~size in
    db.engine.pool <- Some p;
    p

(* Post a batch of basic events in one sweep of the three-phase
   pipeline. Phase 0 (here) and phase 3 (firing) are strictly
   sequential in {e batch order}; phases 1+2 (classify + step) run one
   task per partition member — in parallel across up to
   [post_domains db] domains — which is safe because a member task only
   mutates detection state of objects it owns (§5: one automaton per
   trigger per object) and never touches the heap structurally.

   Batch semantics: every event in the batch is classified and stepped
   against the detection state {e as of the start of the batch's step
   phase}; fired actions all run after the whole batch has stepped.
   Events addressed to the same object step in batch order. The result
   is bit-identical — firing order included — whatever the domain or
   partition count, and equals the 1-domain sequential sweep by
   construction. Dead or missing oids are skipped, like [system_post].
   Returns the number of firings. *)
let post_many_nonempty db items =
  let tx = Txn.require_txn db in
  let obs = db.obs in
  let on = Registry.enabled obs in
  let timed = Registry.timing obs in
  let t0 = if timed then Registry.now_ns () else 0 in
  let scratch = ensure_scratch db in
  (* Phase 0 — sequential, batch order: resolve targets, first-touch
     [after tbegin], write locks, §9 history, Posted probes. *)
  let resolved =
    List.filter_map
      (fun (oid, basic, args) ->
        match Store.live_obj_opt db oid with
        | None -> None
        | Some obj ->
          touch db tx obj;
          (* a transaction re-posting to an object it already holds
             exclusively skips the acquire round-trip *)
          (match obj.o_lock with
          | Lock.Exclusive holder when holder = tx.tx_id -> ()
          | Lock.Free | Lock.Shared _ | Lock.Exclusive _ ->
            Txn.acquire db tx obj Lock.Write);
          let occurrence = { Symbol.basic; args; at = db.wheel.clock_ms } in
          Store.record_history db tx obj occurrence;
          if on then begin
            Registry.incr obs Registry.Posts;
            Registry.incr_kind obs (kind_name db basic);
            Registry.span obs
              (Trace.Posted
                 { scope = Trace.Obj obj.o_id; basic = kind_name db basic;
                   txn = tx.tx_id; at_ms = occurrence.Symbol.at })
          end;
          Some (obj, occurrence))
      items
  in
  let resolved = Array.of_list resolved in
  let n = Array.length resolved in
  let nm = Types.n_partitions db in
  (* Still phase 0: route each event to its owner member's queue — a
     counting sort of item indices into reusable engine buffers, one int
     per event and no closures — so a member task walks only its own
     events instead of filtering the whole batch. *)
  let eng = db.engine in
  if Array.length eng.q_off < nm + 1 then begin
    eng.q_off <- Array.make (nm + 1) 0;
    eng.q_cur <- Array.make nm 0
  end;
  if Array.length eng.q_items < n then
    eng.q_items <- Array.make (max 64 (2 * n)) 0;
  let q_off = eng.q_off
  and q_cur = eng.q_cur
  and q_items = eng.q_items in
  Array.fill q_off 0 (nm + 1) 0;
  for i = 0 to n - 1 do
    let obj, _ = resolved.(i) in
    let k = obj.o_id mod nm in
    q_off.(k + 1) <- q_off.(k + 1) + 1
  done;
  for k = 0 to nm - 1 do
    q_off.(k + 1) <- q_off.(k + 1) + q_off.(k);
    q_cur.(k) <- q_off.(k)
  done;
  for i = 0 to n - 1 do
    let obj, _ = resolved.(i) in
    let k = obj.o_id mod nm in
    q_items.(q_cur.(k)) <- i;
    q_cur.(k) <- q_cur.(k) + 1
  done;
  (* Phases 1+2 — one task per member, each sweeping its queue in batch
     order; fired sets land in a per-item slot (disjoint writes),
     committed-mode undo snapshots in a per-member segment.
     [Fun.protect] flushes the segment even when a mask blows up
     mid-member, so the merge below always sees every snapshot that was
     taken. *)
  let fired = Array.make n [] in
  let segments = Array.make nm [] in
  let step_member k =
    let undo = ref [] in
    let lo = q_off.(k) and hi = q_off.(k + 1) in
    (* the member task owns its scratch; counters batch there and flush
       once per task, so the inner loop's only shared writes are the
       disjoint [fired] slots *)
    let sc = scratch.(k) in
    Fun.protect
      ~finally:(fun () ->
        segments.(k) <- !undo;
        if on then flush_scratch_counters obs sc)
      (fun () ->
        for j = lo to hi - 1 do
          let i = q_items.(j) in
          let obj, occurrence = resolved.(i) in
          fired.(i) <- kernel_post_one db ~undo ~on sc obj occurrence
        done)
  in
  (* Effective parallelism: never more domains than members; and while
     the clamp is on ([set_domain_clamp] opts out for tests), never more
     than the box has cores (oversubscription buys only contention) and
     just one for a batch below [inline_batch] events. *)
  let domains =
    let d = min db.engine.post_domains nm in
    if not db.engine.clamp_domains then d
    else if n < inline_batch then 1
    else min d (Domain.recommended_domain_count ())
  in
  let merge () = Txn.merge_undo_segments tx (Array.to_list segments) in
  (match
     if domains <= 1 || n = 0 then
       for k = 0 to nm - 1 do
         step_member k
       done
     else Pool.run_static (ensure_pool db ~size:domains) ~tasks:nm step_member
   with
  | () -> merge ()
  | exception e ->
    merge ();
    raise e);
  (* Phase 3 — sequential firing: batch order, declaration order within
     one event (preserved by construction above). *)
  let count = ref 0 in
  for i = 0 to n - 1 do
    match fired.(i) with
    | [] -> ()
    | ats ->
      let obj, occurrence = resolved.(i) in
      count := !count + List.length ats;
      post_fired db ~oid:obj.o_id ~scope:(Trace.Obj obj.o_id) (Some tx) obj
        occurrence ats
  done;
  if timed then Registry.record_ns obs Registry.Post (Registry.now_ns () - t0);
  !count

(* An empty batch is a true no-op past the open-transaction check: no
   queue rebuild, no scratch, no pool wake — and, for callers batching
   at a durability boundary, nothing marks the transaction dirty, so a
   barrier-only wire flush emits no WAL record. *)
let post_many db items =
  if items = [] then begin
    ignore (Txn.require_txn db);
    0
  end
  else post_many_nonempty db items

let create db cname args =
  let tx = Txn.require_txn db in
  let k =
    match Schema.find_class db cname with
    | Some k -> k
    | None -> ode_error "no such class %s" cname
  in
  let oid = Store.alloc_oid db in
  let obj = new_obj k oid in
  Store.add_obj db obj;
  tx.tx_undo <- U_create obj :: tx.tx_undo;
  touch db tx obj;
  Txn.acquire db tx obj Lock.Write;
  (match k.k_constructor with None -> () | Some body -> body db oid args);
  ignore (post db tx obj Symbol.Create args);
  post_db db Symbol.Create [ Value.Oid oid; Value.String cname ];
  oid

let delete db oid =
  let tx = Txn.require_txn db in
  let obj = Store.live_obj db oid in
  touch db tx obj;
  Txn.acquire db tx obj Lock.Write;
  ignore (post db tx obj Symbol.Delete []);
  post_db db Symbol.Delete [ Value.Oid oid; Value.String obj.o_class.k_name ];
  Store.mark_deleted db obj;
  tx.tx_undo <- U_delete obj :: tx.tx_undo;
  (* eager cancellation: a deleted object's timers leave the queue now,
     not at their due instant (the [timer_alive] check stays as the
     delivery-time backstop for e.g. firing-path auto-deactivation) *)
  (match Timewheel.cancel_object db oid with
  | [] -> ()
  | cancelled -> tx.tx_undo <- U_timers_cancelled cancelled :: tx.tx_undo)

let set_field db oid name v =
  let tx = Txn.require_txn db in
  let obj = Store.live_obj db oid in
  touch db tx obj;
  Txn.acquire db tx obj Lock.Write;
  match Hashtbl.find_opt obj.o_fields name with
  | None -> ode_error "class %s has no field %s" obj.o_class.k_name name
  | Some prev ->
    tx.tx_undo <- U_field (obj, name, prev) :: tx.tx_undo;
    Hashtbl.replace obj.o_fields name v

let call db oid mname args =
  let obs = db.obs in
  let timed = Registry.timing obs in
  let t0 = if timed then Registry.now_ns () else 0 in
  let tx = Txn.require_txn db in
  let obj = Store.live_obj db oid in
  let meth =
    match Hashtbl.find_opt obj.o_class.k_methods mname with
    | Some m -> m
    | None -> ode_error "class %s has no method %s" obj.o_class.k_name mname
  in
  (match meth.m_arity with
  | Some a when a <> List.length args ->
    ode_error "%s.%s expects %d arguments, got %d" obj.o_class.k_name mname a
      (List.length args)
  | Some _ | None -> ());
  touch db tx obj;
  let request, rw_event =
    match meth.m_kind with
    | Read_only -> (Lock.Read, fun q -> Symbol.Read q)
    | Updating -> (Lock.Write, fun q -> Symbol.Update q)
  in
  Txn.acquire db tx obj request;
  ignore (post db tx obj (Symbol.Access Before) []);
  ignore (post db tx obj (rw_event Symbol.Before) []);
  ignore (post db tx obj (Symbol.Method (Before, mname)) args);
  let result = meth.m_impl db oid args in
  ignore (post db tx obj (Symbol.Method (After, mname)) args);
  ignore (post db tx obj (rw_event Symbol.After) []);
  ignore (post db tx obj (Symbol.Access After) []);
  if timed then Registry.record_ns obs Registry.Call (Registry.now_ns () - t0);
  result

let has_method db oid mname =
  let obj = Store.live_obj db oid in
  Hashtbl.mem obj.o_class.k_methods mname

let apply_fun db name args =
  match Schema.find_fun db name with
  | Some f -> f db args
  | None -> ode_error "unknown database function %s" name

(* ------------------------------------------------------------------ *)
(* Trigger activation                                                  *)
(* ------------------------------------------------------------------ *)

let activate db oid tname params =
  let tx = Txn.require_txn db in
  let obj = Store.live_obj db oid in
  let def =
    match Hashtbl.find_opt obj.o_class.k_triggers tname with
    | Some d -> d
    | None -> ode_error "class %s has no trigger %s" obj.o_class.k_name tname
  in
  (* durable state changes below, but activation is not an object
     access (no [after tbegin], no event fan-out membership) — record
     the oid for the redo-batch footprint only *)
  tx.tx_dirty <- oid :: tx.tx_dirty;
  let at =
    match Hashtbl.find_opt obj.o_triggers tname with
    | Some at ->
      tx.tx_undo <-
        U_trigger_state (at, at_state_copy at)
        :: U_trigger_active (obj, at, at.at_active)
        :: U_trigger_epoch (at, at.at_epoch)
        :: tx.tx_undo;
      rearm obj at params;
      (* the epoch bump orphans the previous incarnation's timers: cancel
         them now instead of letting them ride to their due instant *)
      (match Timewheel.cancel_trigger db oid tname with
      | [] -> ()
      | cancelled -> tx.tx_undo <- U_timers_cancelled cancelled :: tx.tx_undo);
      at
    | None ->
      let at = new_activation def (Store.soa_slot db oid def.t_detector) params in
      attach obj at;
      tx.tx_undo <- U_trigger_added (obj, tname) :: tx.tx_undo;
      at
  in
  match Timewheel.schedule_trigger_timers db obj at with
  | [] -> ()
  | armed -> tx.tx_undo <- U_timers_armed armed :: tx.tx_undo

let deactivate db oid tname =
  let tx = Txn.require_txn db in
  let obj = Store.live_obj db oid in
  match Hashtbl.find_opt obj.o_triggers tname with
  | None -> ()
  | Some at ->
    tx.tx_dirty <- oid :: tx.tx_dirty;
    tx.tx_undo <- U_trigger_active (obj, at, at.at_active) :: tx.tx_undo;
    set_trigger_active obj at false;
    (* eager cancellation: the deactivated trigger's pending timers
       leave the queue now (undo re-inserts them, seqs intact) *)
    (match Timewheel.cancel_trigger db oid tname with
    | [] -> ()
    | cancelled -> tx.tx_undo <- U_timers_cancelled cancelled :: tx.tx_undo)

let is_active db oid tname =
  let obj = Store.live_obj db oid in
  match Hashtbl.find_opt obj.o_triggers tname with
  | Some at -> at.at_active
  | None -> false

let trigger_state_words db oid tname =
  let obj = Store.live_obj db oid in
  match Hashtbl.find_opt obj.o_triggers tname with
  | Some at -> at_state_len at
  | None -> ode_error "trigger %s not activated on @%d" tname oid

let trigger_state db oid tname =
  let obj = Store.live_obj db oid in
  match Hashtbl.find_opt obj.o_triggers tname with
  | Some at -> at_state_copy at
  | None -> ode_error "trigger %s not activated on @%d" tname oid
