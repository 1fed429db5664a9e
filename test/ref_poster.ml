(* A reference model of event posting for [test_dispatch.ml]'s scripts:
   one object of one class, its activated triggers, and the
   database-scope triggers.

   Nothing here shares code with the engine's posting paths. Every
   occurrence steps {e every} active trigger — no dispatch index, no
   candidate rows, no packed codes, no shared classification — each
   through its own [Detector.initial] word vector with [Detector.post],
   in declaration order. Bindings come from [Detector.collect] and
   witnesses from [Provenance.post]. The transactional rules are
   restated from the documented contract:

   - a Committed-mode trigger's state and §9 bindings, as they were
     before the first occurrence of the transaction that matched one of
     its logical events, come back on abort (matching is decided by
     [Rewrite.classify], the unpacked classifier);
   - re-activation resets state, bindings and witnesses; an abort
     restores the state and the active flag, not the bindings;
   - a one-shot trigger deactivates when it fires; for a Committed-mode
     trigger the abort re-activates it;
   - field writes are undone on abort; masks read the fields as they
     are at the occurrence.

   The occurrence stream itself is an input: the test reads it from the
   object's recorded history ([Database.object_history]), each record
   carrying its posting transaction. *)

open Ode_event
module Value = Ode_base.Value

type trigger = {
  name : string;
  expr : Expr.t;
  det : Detector.t;
  perpetual : bool;
  witnesses : bool;
  mutable state : Detector.state;
  mutable collected : (string * Value.t) list;
  mutable prov : Provenance.t option;
  mutable last_witnesses : (string * Value.t) list list;
  mutable active : bool;
}

(* One firing as the action sees it. *)
type fired = {
  trigger : string;
  oid : int;  (* the posted object, or the affected one at database scope *)
  txn : int;  (* the posting transaction *)
  collected : (string * Value.t) list;  (* sorted *)
  witnesses : (string * Value.t) list list option;
  db_scope : bool;
}

type t = {
  oid : int;
  fields : (string, Value.t) Hashtbl.t;
  triggers : trigger list;  (* declaration order *)
  db_triggers : trigger list;
  mutable undo : (unit -> unit) list;  (* newest first *)
  mutable fired : fired list;  (* newest first *)
}

let make_trigger ~committed (name, expr, perpetual, witnesses) =
  let mode = if committed then Detector.Committed else Detector.Full_history in
  let det = Detector.make ~mode expr in
  {
    name;
    expr;
    det;
    perpetual;
    witnesses;
    state = Detector.initial det;
    collected = [];
    prov = (if witnesses then Some (Provenance.make expr) else None);
    last_witnesses = [];
    active = true;
  }

(* [triggers]: (name, event, perpetual, committed-mode, witnesses), all
   freshly activated on [oid]; [db_triggers]: (name, event, perpetual,
   witnesses), all activated (always Full_history). *)
let create ~oid ~fields ~triggers ~db_triggers =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) fields;
  {
    oid;
    fields = tbl;
    triggers =
      List.map
        (fun (n, e, p, c, w) -> make_trigger ~committed:c (n, e, p, w))
        triggers;
    db_triggers = List.map (make_trigger ~committed:false) db_triggers;
    undo = [];
    fired = [];
  }

let find t name = List.find (fun tr -> tr.name = name) t.triggers
let committed tr = tr.det.Detector.mode = Detector.Committed

let env_of fields : Mask.env =
  {
    Mask.empty_env with
    var = (fun name -> Option.bind fields (fun f -> Hashtbl.find_opt f name));
  }

let set_field t name v =
  let prev = Hashtbl.find t.fields name in
  t.undo <- (fun () -> Hashtbl.replace t.fields name prev) :: t.undo;
  Hashtbl.replace t.fields name v

let reactivate t name =
  let tr = find t name in
  let state = Array.copy tr.state and active = tr.active in
  t.undo <-
    (fun () ->
      tr.state <- state;
      tr.active <- active)
    :: t.undo;
  tr.state <- Detector.initial tr.det;
  tr.collected <- [];
  tr.prov <- (if tr.witnesses then Some (Provenance.make tr.expr) else None);
  tr.last_witnesses <- [];
  tr.active <- true

(* Step every active trigger of [trs] with one occurrence, then fire
   the set that accepted, in declaration order. [user]: the occurrence
   belongs to the user transaction whose abort would undo it (system
   transactions commit on their own). *)
let step_all t ~env ~user ~txn ~oid ~db_scope trs (occ : Symbol.occurrence) =
  let fired =
    List.filter
      (fun tr ->
        tr.active
        && begin
             if
               user && committed tr
               && Rewrite.classify tr.det.Detector.alphabet ~env occ
                  <> Rewrite.other tr.det.Detector.alphabet
             then begin
               let state = Array.copy tr.state and collected = tr.collected in
               t.undo <-
                 (fun () ->
                   tr.state <- state;
                   tr.collected <- collected)
                 :: t.undo
             end;
             List.iter
               (fun (name, v) ->
                 tr.collected <- (name, v) :: List.remove_assoc name tr.collected)
               (Detector.collect tr.det ~env occ);
             (match tr.prov with
             | Some p -> tr.last_witnesses <- Provenance.post p ~env occ
             | None -> ());
             Detector.post tr.det tr.state ~env occ
           end)
      trs
  in
  List.iter
    (fun tr ->
      if not tr.perpetual then begin
        if user && committed tr then
          t.undo <- (fun () -> tr.active <- true) :: t.undo;
        tr.active <- false
      end;
      t.fired <-
        {
          trigger = tr.name;
          oid;
          txn;
          collected = List.sort compare tr.collected;
          witnesses = (if tr.witnesses then Some tr.last_witnesses else None);
          db_scope;
        }
        :: t.fired)
    fired

let post t ~user ~txn occ =
  step_all t ~env:(env_of (Some t.fields)) ~user ~txn ~oid:t.oid ~db_scope:false
    t.triggers occ

(* A database-scope occurrence: no object in scope, no undo. The
   action's oid is the affected object (the first [Oid] argument). *)
let post_db t ~txn (occ : Symbol.occurrence) =
  let affected = match occ.args with Value.Oid o :: _ -> o | _ -> 0 in
  step_all t ~env:(env_of None) ~user:false ~txn ~oid:affected ~db_scope:true
    t.db_triggers occ

let commit t = t.undo <- []

let abort t =
  List.iter (fun f -> f ()) t.undo;
  t.undo <- []

let fired t = List.rev t.fired

(* Each object trigger's state words and active flag. *)
let states t = List.map (fun tr -> (tr.name, Array.copy tr.state, tr.active)) t.triggers
