(* A reference model of the pending-timer queue for [test_timer.ml]'s
   scripts: one flat list sorted by (due, seq), O(n) per operation and
   obviously right. Nothing here shares code with the timer queue; the
   due-date arithmetic is [Timewheel.first_due] (and [Clock.next_match]
   for calendar re-arms), everything else is restated from the
   contract:

   - activating a trigger arms one timer per time-event leaf of its
     event, stamped with a fresh insertion number, at [first_due] after
     the current clock; re-activating first cancels the trigger's
     pending timers and starts a new activation epoch;
   - deactivating a trigger cancels its pending timers; deleting an
     object cancels all of its timers;
   - an aborted transaction leaves no trace on the queue;
   - advancing the clock repeatedly takes the minimum (due, seq) timer
     due by the target, pulls every pending timer for the same (object,
     spec, instant), and — when one of them is alive (object live,
     trigger active, same epoch) — delivers one occurrence: each active
     trigger of that object watching the spec fires (one-shots then
     deactivate). Alive periodic and calendar timers re-arm with a
     fresh stamp; after-period timers do not. *)

open Ode_event
open Ode_odb

type timer = {
  due : int64;
  seq : int;
  oid : int;
  trigger : string;
  epoch : int;
  spec : Symbol.time_spec;
  anchor : int64;
}

type activation = { mutable active : bool; mutable epoch : int }

type t = {
  triggers : (string * Symbol.time_spec list * bool) list;
      (* declaration order: name, time-event leaves, perpetual *)
  acts : (int * string, activation) Hashtbl.t;
  live : (int, unit) Hashtbl.t;
  mutable clock : int64;
  mutable next_seq : int;
  mutable queue : timer list;  (* sorted by (due, seq) *)
  mutable fired : (string * int * int64) list;  (* newest first *)
}

let time_specs event =
  List.filter_map
    (fun (l : Expr.leaf) ->
      match l.basic with Symbol.Time spec -> Some spec | _ -> None)
    (Expr.logical_events event)

(* [triggers]: (name, event, perpetual) in declaration order. *)
let create triggers =
  {
    triggers = List.map (fun (n, e, p) -> (n, time_specs e, p)) triggers;
    acts = Hashtbl.create 16;
    live = Hashtbl.create 16;
    clock = 0L;
    next_seq = 0;
    queue = [];
    fired = [];
  }

let before a b = a.due < b.due || (a.due = b.due && a.seq < b.seq)

let insert t tm =
  let rec go = function
    | x :: rest when before x tm -> x :: go rest
    | rest -> tm :: rest
  in
  t.queue <- go t.queue

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let specs_of t name =
  let _, specs, _ = List.find (fun (n, _, _) -> n = name) t.triggers in
  specs

let cancel t keep = t.queue <- List.filter keep t.queue

let create_object t oid = Hashtbl.replace t.live oid ()

let activate t oid name =
  let act =
    match Hashtbl.find_opt t.acts (oid, name) with
    | Some a ->
      a.epoch <- a.epoch + 1;
      cancel t (fun tm -> not (tm.oid = oid && tm.trigger = name));
      a
    | None ->
      let a = { active = false; epoch = 0 } in
      Hashtbl.add t.acts (oid, name) a;
      a
  in
  act.active <- true;
  List.iter
    (fun spec ->
      match Timewheel.first_due spec ~after:t.clock with
      | None -> ()
      | Some due ->
        insert t
          { due; seq = fresh_seq t; oid; trigger = name; epoch = act.epoch; spec;
            anchor = t.clock })
    (specs_of t name)

let deactivate t oid name =
  match Hashtbl.find_opt t.acts (oid, name) with
  | Some a ->
    a.active <- false;
    cancel t (fun tm -> not (tm.oid = oid && tm.trigger = name))
  | None -> ()

let delete t oid =
  Hashtbl.remove t.live oid;
  cancel t (fun tm -> tm.oid <> oid)

let alive t tm =
  Hashtbl.mem t.live tm.oid
  &&
  match Hashtbl.find_opt t.acts (tm.oid, tm.trigger) with
  | Some a -> a.active && a.epoch = tm.epoch
  | None -> false

let deliver t oid spec =
  List.iter
    (fun (name, specs, perpetual) ->
      match Hashtbl.find_opt t.acts (oid, name) with
      | Some a when a.active && List.mem spec specs ->
        t.fired <- (name, oid, t.clock) :: t.fired;
        if not perpetual then a.active <- false
      | Some _ | None -> ())
    t.triggers

let rearm t tm =
  let next =
    match tm.spec with
    | Symbol.After_period _ -> None
    | Symbol.Every _ -> Timewheel.first_due tm.spec ~after:tm.due
    | Symbol.At pattern -> Clock.next_match pattern ~after:tm.due
  in
  Option.iter (fun due -> insert t { tm with due; seq = fresh_seq t }) next

let advance t span =
  let target = Int64.add t.clock span in
  let rec loop () =
    match t.queue with
    | head :: _ when head.due <= target ->
      t.clock <- head.due;
      let group, rest =
        List.partition
          (fun tm -> tm.due = head.due && tm.oid = head.oid && tm.spec = head.spec)
          t.queue
      in
      t.queue <- rest;
      if List.exists (alive t) group then
        deliver t head.oid head.spec;
      List.iter (fun tm -> if alive t tm then rearm t tm) group;
      loop ()
    | _ -> ()
  in
  loop ();
  t.clock <- target

(* The firing trace, oldest first: (trigger, oid, instant). *)
let fired t = List.rev t.fired

(* The pending queue in delivery order, insertion stamps left out:
   a stamp's value is bookkeeping, its order is what the contract
   fixes. *)
let project tm = (tm.due, tm.oid, tm.trigger, tm.epoch, tm.spec, tm.anchor)
let pending t = List.map project t.queue
