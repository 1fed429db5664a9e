module Value = Ode_base.Value
module Symbol = Ode_event.Symbol
module Registry = Ode_obs.Registry
module Trace = Ode_obs.Trace
open Types

(* ------------------------------------------------------------------ *)
(* Engine hooks                                                        *)
(* ------------------------------------------------------------------ *)

(* Commit and abort post events ([before tcomplete], [before tabort],
   [after tcommit]/[after tabort]) to the accessed objects that listen
   ([Types.listens]) — an upward call into the posting pipeline. The
   compile-time dependency stays Engine -> Txn; [Engine] fills these at
   load time. *)

let post_hook : (db -> txn -> obj -> Symbol.basic -> Value.t list -> bool) ref =
  ref (fun _ _ _ _ _ -> false)

let system_post_hook : (db -> oid list -> Symbol.basic -> unit) ref =
  ref (fun _ _ _ -> ())

let set_post_hook f = post_hook := f
let set_system_post_hook f = system_post_hook := f

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let require_txn db =
  match db.txns.current with
  | Some tx when tx.tx_status = Active -> tx
  | Some _ | None -> ode_error "this operation requires an active transaction"

let fresh_txn db ~system =
  let tx =
    {
      tx_id = db.txns.next_txn_id;
      tx_system = system;
      tx_status = Active;
      tx_accessed = [];
      tx_seen = Hashtbl.create 16;
      tx_undo = [];
      tx_dirty = [];
    }
  in
  db.txns.next_txn_id <- db.txns.next_txn_id + 1;
  db.txns.open_txns <- tx :: db.txns.open_txns;
  if Registry.enabled db.obs then
    Registry.span db.obs (Trace.Txn_begin { txn = tx.tx_id; system });
  tx

let begin_txn db =
  let tx = fresh_txn db ~system:false in
  db.txns.current <- Some tx;
  tx

let begin_system db = fresh_txn db ~system:true

let switch_txn db tx =
  if tx.tx_status <> Active then ode_error "cannot switch to a finished transaction";
  if not (List.memq tx db.txns.open_txns) then ode_error "transaction is not open here";
  db.txns.current <- Some tx

let current_txn db = db.txns.current
let txn_id tx = tx.tx_id

(* ------------------------------------------------------------------ *)
(* Locks and undo                                                      *)
(* ------------------------------------------------------------------ *)

let acquire_for db holder obj request =
  match Lock.acquire obj.o_lock ~holder request with
  | Some l -> obj.o_lock <- l
  | None ->
    if Registry.enabled db.obs then
      Registry.incr db.obs Registry.Lock_conflicts;
    raise (Lock_conflict obj.o_id)

let acquire db tx obj request = acquire_for db tx.tx_id obj request

(* Accessed objects, and the (de)activation targets of [tx_dirty],
   which may hold a committed-mode activation's write lock. *)
let release_locks db tx =
  let release oid =
    match Store.find_obj db oid with
    | Some obj -> obj.o_lock <- Lock.release obj.o_lock ~holder:tx.tx_id
    | None -> ()
  in
  List.iter release tx.tx_accessed;
  List.iter release tx.tx_dirty

let detach db tx =
  db.txns.open_txns <- List.filter (fun t -> not (t == tx)) db.txns.open_txns;
  match db.txns.current with
  | Some cur when cur == tx ->
    db.txns.current <- (match db.txns.open_txns with t :: _ -> Some t | [] -> None)
  | Some _ | None -> ()

let apply_undo db entry =
  match entry with
  | U_field (obj, name, prev) -> Hashtbl.replace obj.o_fields name prev
  | U_create obj ->
    Store.remove_obj db obj.o_id;
    (* the object never existed: drop any timer it armed *)
    ignore (Timewheel.cancel_object db obj.o_id)
  | U_delete obj -> Store.unmark_deleted db obj
  | U_timers_cancelled tms ->
    (* re-insert with their original seqs: the queue (and so its
       serialized bytes) comes back exactly as before the cancel *)
    List.iter (Timewheel.insert_timer db) tms
  | U_timers_armed tms -> List.iter (Timewheel.cancel_timer db) tms
  | U_trigger_state (at, prev) -> at_state_restore at prev
  | U_trigger_collected (at, prev) -> at.at_collected <- prev
  | U_trigger_active (obj, at, prev) -> set_trigger_active obj at prev
  | U_trigger_epoch (at, prev) -> at.at_epoch <- prev
  | U_trigger_added (obj, name) -> (
    match Hashtbl.find_opt obj.o_triggers name with
    | None -> ()
    | Some at ->
      set_trigger_active obj at false;
      obj.o_acts.(at.at_def.t_index) <- None;
      Store.free_slot at;
      Hashtbl.remove obj.o_triggers name)

(* ------------------------------------------------------------------ *)
(* Abort and commit                                                    *)
(* ------------------------------------------------------------------ *)

(* Post [basic] to the live objects [tx] accessed that listen to it, in
   first-access order; whether any post fired a trigger. *)
let post_listeners db tx basic =
  List.fold_left
    (fun fired oid ->
      match Store.live_obj_opt db oid with
      | Some obj when listens db obj basic -> !post_hook db tx obj basic [] || fired
      | Some _ | None -> fired)
    false (List.rev tx.tx_accessed)

(* Emit a finished transaction's redo batch, then post [basic]
   ([after tcommit] or [after tabort]) in a system transaction to the
   accessed objects that listen. When none does, no system transaction
   is opened, yet its txn id is consumed all the same, and before the
   batch, so the batch logs the counter the system transaction's own
   batch would have: txn ids, firings' [f_txn] and images come out as
   if every object listened. *)
let finish db tx basic =
  let accessed = List.rev tx.tx_accessed in
  let listeners =
    if tx.tx_system then []
    else
      List.filter
        (fun oid ->
          match Store.live_obj_opt db oid with
          | Some obj -> listens db obj basic
          | None -> false)
        accessed
  in
  if (not tx.tx_system) && listeners = [] then
    db.txns.next_txn_id <- db.txns.next_txn_id + 1;
  db.durability.dur_commit db (accessed @ List.rev tx.tx_dirty);
  if listeners <> [] then !system_post_hook db listeners basic

let abort db tx =
  if tx.tx_status <> Active then ode_error "transaction already finished";
  (* Post [before tabort] while the transaction's effects are still
     visible; actions fired here are undone along with everything else. *)
  if (not tx.tx_system) && not db.txns.in_abort then begin
    db.txns.in_abort <- true;
    (try ignore (post_listeners db tx (Symbol.Tabort Before))
     with Tabort -> () (* already aborting *));
    db.txns.in_abort <- false
  end;
  if Registry.enabled db.obs then begin
    (* count undo work as it is retired, so committed and aborted
       transactions report comparable volumes *)
    Registry.add db.obs Registry.Undo_entries (List.length tx.tx_undo);
    Registry.span db.obs (Trace.Txn_abort { txn = tx.tx_id })
  end;
  List.iter (apply_undo db) tx.tx_undo;
  tx.tx_undo <- [];
  tx.tx_status <- Aborted;
  release_locks db tx;
  detach db tx;
  (* Aborts mutate durable state too: full-history automaton advances
     (including those of the [before tabort] posts above) survive the
     undo by design, and the txn-id counter moved — so an abort emits a
     redo batch like a commit does. *)
  finish db tx (Symbol.Tabort After)

let commit db tx =
  if tx.tx_status <> Active then ode_error "transaction already finished";
  let obs = db.obs in
  let on = Registry.enabled obs in
  let timed = Registry.timing obs in
  let t0 = if timed then Registry.now_ns () else 0 in
  let saved_current = db.txns.current in
  db.txns.current <- Some tx;
  let restore () =
    match saved_current with
    | Some cur when cur.tx_status = Active && not (cur == tx) ->
      db.txns.current <- Some cur
    | _ -> ()
  in
  let n_rounds = ref 0 in
  match
    if not tx.tx_system then begin
      (* §6: keep posting [before tcomplete] until a round fires nothing. *)
      let rec rounds n =
        if n > db.txns.max_tcomplete_rounds then
          ode_error
            "commit livelock: before tcomplete still firing triggers after %d \
             rounds"
            db.txns.max_tcomplete_rounds;
        n_rounds := n;
        if on then Registry.incr obs Registry.Tcomplete_rounds;
        if post_listeners db tx Symbol.Tcomplete then rounds (n + 1)
      in
      rounds 1
    end
  with
  | () ->
    if on then begin
      Registry.add obs Registry.Undo_entries (List.length tx.tx_undo);
      Registry.span obs (Trace.Txn_commit { txn = tx.tx_id; rounds = !n_rounds })
    end;
    tx.tx_status <- Committed;
    tx.tx_undo <- [];
    release_locks db tx;
    detach db tx;
    restore ();
    (* commit is the durability boundary: emit one redo batch covering
       everything this transaction touched (the tcomplete rounds above
       already extended [tx_accessed] and [tx_dirty] holds the
       (de)activation targets that carry no access semantics); an
       [after tcommit] system transaction emits its own batch *)
    finish db tx Symbol.Tcommit;
    if timed then Registry.record_ns obs Registry.Commit (Registry.now_ns () - t0);
    Ok ()
  | exception Tabort ->
    abort db tx;
    restore ();
    Error `Aborted

let with_txn db f =
  let tx = begin_txn db in
  match f tx with
  | v -> (
    match commit db tx with Ok () -> Ok v | Error `Aborted -> Error `Aborted)
  | exception Tabort ->
    abort db tx;
    Error `Aborted
  | exception e ->
    if tx.tx_status = Active then abort db tx;
    raise e
