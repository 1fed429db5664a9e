module Symbol = Ode_event.Symbol
module Expr = Ode_event.Expr
open Types

let now db = db.wheel.clock_ms

(* ------------------------------------------------------------------ *)
(* Engine hook                                                         *)
(* ------------------------------------------------------------------ *)

(* Firing a due timer delivers a time-event occurrence to an object,
   inside a system transaction — an upward call into the posting
   pipeline. [Engine] fills this at load time. *)
let deliver_hook : (db -> oid -> Symbol.time_spec -> unit) ref =
  ref (fun _ _ _ -> ())

let set_deliver_hook f = deliver_hook := f

(* The delivery order, everywhere: due instant, then insertion stamp.
   Seqs are unique, so this is total. *)
let cmp_key (a : timer) (b : timer) =
  match Int64.compare a.tm_due b.tm_due with
  | 0 -> compare a.tm_seq b.tm_seq
  | c -> c

(* ------------------------------------------------------------------ *)
(* Same-instant buckets                                                *)
(*                                                                     *)
(* [tw_dues] maps each pending due instant to its bucket, an intrusive *)
(* doubly-linked list of that instant's timers in seq order, dropped   *)
(* from the map once empty; the first binding's head is the minimum.   *)
(* [tw_index] maps oid to its live nodes, so eager cancellation and    *)
(* the same-instant group pull are O(timers-on-that-object), and a     *)
(* tick that delivers N same-instant timers does O(N) work. Nothing    *)
(* here depends on the clock.                                          *)
(* ------------------------------------------------------------------ *)

(* Link [n] into its bucket at its seq place, walking back from the
   tail: O(1) for a fresh stamp and for each timer of an image's
   ascending list; only an undo re-inserting an old stamp walks past
   newer nodes. *)
let link w n =
  let b = n.tn_bucket and seq = n.tn_timer.tm_seq in
  let rec back = function
    | Some p when p.tn_timer.tm_seq > seq ->
      w.tw_visited <- w.tw_visited + 1;
      back p.tn_prev
    | at -> at
  in
  let prev = back b.tb_last and some_n = Some n in
  let next = match prev with Some p -> p.tn_next | None -> b.tb_first in
  n.tn_prev <- prev;
  n.tn_next <- next;
  (match prev with Some p -> p.tn_next <- some_n | None -> b.tb_first <- some_n);
  match next with Some s -> s.tn_prev <- some_n | None -> b.tb_last <- some_n

(* Unlink from its bucket, dropping the bucket once empty. Does not
   touch [tw_n] or the index — callers own those. *)
let unlink_node w n =
  let b = n.tn_bucket in
  (match n.tn_prev with
  | Some p -> p.tn_next <- n.tn_next
  | None -> b.tb_first <- n.tn_next);
  (match n.tn_next with
  | Some s -> s.tn_prev <- n.tn_prev
  | None -> b.tb_last <- n.tn_prev);
  if Option.is_none b.tb_first then
    w.tw_dues <- Dues.remove n.tn_timer.tm_due w.tw_dues

let index_add w n =
  let oid = n.tn_timer.tm_oid in
  match Hashtbl.find_opt w.tw_index oid with
  | Some ns -> Hashtbl.replace w.tw_index oid (n :: ns)
  | None -> Hashtbl.add w.tw_index oid [ n ]

let queue_insert w tm =
  let b =
    match Dues.find_opt tm.tm_due w.tw_dues with
    | Some b -> b
    | None ->
      let b = { tb_first = None; tb_last = None } in
      w.tw_dues <- Dues.add tm.tm_due b w.tw_dues;
      b
  in
  let n = { tn_timer = tm; tn_bucket = b; tn_prev = None; tn_next = None } in
  link w n;
  index_add w n;
  w.tw_n <- w.tw_n + 1

(* ------------------------------------------------------------------ *)
(* The queue                                                           *)
(* ------------------------------------------------------------------ *)

(* Fresh insertion-order stamp: equal-due timers deliver in stamp
   order. *)
let fresh_seq db =
  let s = db.wheel.tm_next_seq in
  db.wheel.tm_next_seq <- s + 1;
  s

(* The caller provides the stamp: fresh for new arms and re-arms
   (insertion order), the persisted one when reloading an image. *)
let insert_timer db tm =
  queue_insert db.wheel.tq tm;
  db.wheel.timers_dirty <- true

(* The queue in (due, seq) order — the serialization order: the
   buckets in due order, each in seq order. *)
let pending db =
  let rec chain acc = function
    | None -> acc
    | Some n -> chain (n.tn_timer :: acc) n.tn_next
  in
  List.rev (Dues.fold (fun _ b acc -> chain acc b.tb_first) db.wheel.tq.tw_dues [])

let pending_count db = db.wheel.tq.tw_n
let nodes_visited db = db.wheel.tq.tw_visited

(* Bulk-load the queue from a (due, seq)-sorted list (image load, WAL
   replay) into a fresh queue. Loaded timers keep their saved insertion
   stamps, so the counter resumes past them. *)
let replace db tms =
  let w = make_timerq () in
  List.iter (queue_insert w) tms;
  db.wheel.tq <- w;
  db.wheel.timers_dirty <- true;
  List.iter
    (fun tm -> if tm.tm_seq >= db.wheel.tm_next_seq then db.wheel.tm_next_seq <- tm.tm_seq + 1)
    tms

(* Replay-time clock hop, delivering nothing. *)
let set_clock db c = db.wheel.clock_ms <- c

(* ------------------------------------------------------------------ *)
(* Eager cancellation                                                  *)
(* ------------------------------------------------------------------ *)

(* Remove the pending timers of [oid] that satisfy [pick], returning
   them in (due, seq) order. One pass over the object's index entry:
   O(timers-on-that-object). *)
let take db oid pick =
  let w = db.wheel.tq in
  match Hashtbl.find_opt w.tw_index oid with
  | None -> []
  | Some ns -> (
    match List.partition pick ns with
    | [], _ -> []
    | gone, kept ->
      (match kept with
      | [] -> Hashtbl.remove w.tw_index oid
      | _ -> Hashtbl.replace w.tw_index oid kept);
      List.iter
        (fun n ->
          unlink_node w n;
          w.tw_n <- w.tw_n - 1)
        gone;
      db.wheel.timers_dirty <- true;
      List.sort cmp_key (List.map (fun n -> n.tn_timer) gone))

(* Cancel every pending timer on [oid], returning them in (due, seq)
   order — [Engine] records them in a [U_timers_cancelled] undo entry
   so an abort restores the queue byte-for-byte (seqs preserved). *)
let cancel_object db oid = take db oid (fun _ -> true)

(* Cancel the pending timers of one trigger on one object (deactivate,
   or the epoch bump of a re-activation), in (due, seq) order. *)
let cancel_trigger db oid tname =
  take db oid (fun n -> n.tn_timer.tm_trigger = tname)

(* Cancel one specific pending timer, matched by physical identity —
   the undo of [U_timers_armed]. Absent timers (already delivered or
   cancelled) are ignored. *)
let cancel_timer db (tm : timer) =
  ignore (take db tm.tm_oid (fun n -> n.tn_timer == tm))

(* ------------------------------------------------------------------ *)
(* Arming                                                              *)
(* ------------------------------------------------------------------ *)

let first_due (spec : Symbol.time_spec) ~after =
  match spec with
  | Every p | After_period p -> if p <= 0L then None else Some (Int64.add after p)
  | At pattern -> Clock.next_match pattern ~after

(* The re-armed incarnation takes a {e fresh} seq: a single queue's
   stable insert puts it after every already-queued timer of the same
   due instant, i.e. in insertion order — which is exactly what the
   fresh stamp encodes. *)
let reschedule db (tm : timer) ~fired_at =
  match tm.tm_spec with
  | Symbol.Every p ->
    Some { tm with tm_due = Int64.add fired_at p; tm_seq = fresh_seq db }
  | Symbol.After_period _ -> None
  | Symbol.At pattern ->
    Option.map
      (fun due -> { tm with tm_due = due; tm_seq = fresh_seq db })
      (Clock.next_match pattern ~after:fired_at)

(* Arm one timer per time-event leaf of the trigger's specification,
   returning the armed timers (newest first) so [Engine] can record
   them for undo. *)
let schedule_trigger_timers db obj (at : active_trigger) =
  let specs =
    List.filter_map
      (fun (l : Expr.leaf) ->
        match l.basic with Symbol.Time spec -> Some spec | _ -> None)
      (Expr.logical_events at.at_def.t_event)
  in
  let clock = db.wheel.clock_ms in
  List.fold_left
    (fun armed spec ->
      match first_due spec ~after:clock with
      | None -> armed
      | Some due ->
        let tm =
          {
            tm_due = due;
            tm_seq = fresh_seq db;
            tm_oid = obj.o_id;
            tm_trigger = at.at_def.t_name;
            tm_epoch = at.at_epoch;
            tm_spec = spec;
            tm_anchor = clock;
          }
        in
        insert_timer db tm;
        tm :: armed)
    [] specs

let timer_alive db (tm : timer) =
  match Store.live_obj_opt db tm.tm_oid with
  | Some obj -> (
    match Hashtbl.find_opt obj.o_triggers tm.tm_trigger with
    | Some at -> at.at_active && at.at_epoch = tm.tm_epoch
    | None -> false)
  | None -> false

(* ------------------------------------------------------------------ *)
(* Advancing the clock                                                 *)
(* ------------------------------------------------------------------ *)

(* The minimum pending timer, if due by [target]: the head of the
   first bucket. *)
let peek db ~target =
  let w = db.wheel.tq in
  match Dues.min_binding_opt w.tw_dues with
  | Some (due, { tb_first = Some n; _ }) ->
    w.tw_visited <- w.tw_visited + 1;
    if due <= target then Some n.tn_timer else None
  | _ -> None

(* Pull every pending timer for one (object, spec, instant) out of the
   queue, in seq order. Reads only the object's index entry — never the
   instant's bucket, whose length is the number of timers due now. *)
let pull_group db ~due ~oid ~spec =
  let w = db.wheel.tq in
  take db oid (fun n ->
      w.tw_visited <- w.tw_visited + 1;
      n.tn_timer.tm_due = due && n.tn_timer.tm_spec = spec)

(* Re-arm the still-live timers of a delivered group. *)
let rearm db group =
  List.iter
    (fun t ->
      if timer_alive db t then
        match reschedule db t ~fired_at:t.tm_due with
        | Some t' -> insert_timer db t'
        | None -> ())
    group

(* Deliver the head of the queue, in (due, seq) order, until none is
   due by [target]. *)
let advance_to db target =
  if target < db.wheel.clock_ms then ode_error "clock cannot go backwards";
  let rec loop () =
    match peek db ~target with
    | None -> ()
    | Some tm ->
      (* a timer an abort restored below the clock delivers at the clock *)
      if tm.tm_due > db.wheel.clock_ms then db.wheel.clock_ms <- tm.tm_due;
      (* Several triggers may watch the same time event on the same
         object; pull every timer for this (object, spec, instant) and
         deliver a single occurrence — logical events are points, and a
         doubled delivery would wrongly feed expressions like
         [!prior(dayBegin, ...)] twice. *)
      let group = pull_group db ~due:tm.tm_due ~oid:tm.tm_oid ~spec:tm.tm_spec in
      if List.exists (timer_alive db) group then begin
        let obs = db.obs in
        if Ode_obs.Registry.enabled obs then begin
          Ode_obs.Registry.incr obs Ode_obs.Registry.Timer_deliveries;
          Ode_obs.Registry.span obs
            (Ode_obs.Trace.Timer_delivered
               { oid = tm.tm_oid; at_ms = tm.tm_due })
        end;
        (* an action that raised something other than [Tabort] had its
           system transaction aborted; the clock stops at this instant,
           and the group is re-armed and logged as after a [Tabort] *)
        try !deliver_hook db tm.tm_oid tm.tm_spec
        with e ->
          rearm db group;
          db.durability.dur_commit db [];
          raise e
      end;
      rearm db group;
      loop ()
  in
  loop ();
  db.wheel.clock_ms <- target;
  (* capture the final clock (and the timer queue, when deliveries or
     reschedules moved it) — each delivery's system transaction emitted
     its own batch mid-loop, but the clock kept advancing after the
     last due timer *)
  db.durability.dur_commit db []

let advance_clock db span =
  if span < 0L then ode_error "clock cannot go backwards";
  advance_to db (Int64.add db.wheel.clock_ms span)
