(* Engine group: N engine members slicing one logical database by oid.

   Member [k] owns every oid with [oid mod n = k]: its own heap slice
   (table + SoA blocks) and its own timer wheel. Everything else —
   schema, transaction state, engine state (db-scope automata,
   scratch, knobs), observability — is the {e same} record, shared by
   construction: members are field-for-field copies of member 0
   ([{ m0 with store = ...; wheel = ... }]), so the whole
   [Txn]/[Engine] fixpoint machinery runs unchanged on whichever
   member the facade routes to.

   Member 0 is the facade handed to callers; its [part] field (like
   every member's) points at the full member array, which is all the
   routing helpers in [Types]/[Store] need. Determinism: batches step
   in batch order whatever the member count, timers merge by the
   group-wide [(tm_due, tm_seq)] stamp, and the image writer in
   [Persist] gathers the slices into single-engine byte order — so
   firings, counters and ODE1 bytes are identical at any partition
   count.

   Durability is the facade's alone: one backend, installed on member
   0, sees every commit of the group. The WAL frames each commit once
   with the objects of every member it touched, so the group writes
   the single-engine log, and a commit is atomic across members by
   construction. *)

open Types

let make ~partitions ?start_time ?max_tcomplete_rounds ?trace_capacity () =
  if partitions < 1 then
    ode_error "partition count must be >= 1 (got %d)" partitions;
  let m0 = make_db ?start_time ?max_tcomplete_rounds ?trace_capacity () in
  if partitions = 1 then m0
  else begin
    let members =
      Array.init partitions (fun k ->
          if k = 0 then m0
          else
            {
              m0 with
              store = make_store ~next_oid:m0.store.next_oid;
              wheel =
                {
                  clock_ms = m0.wheel.clock_ms;
                  tq = make_wheel ();
                  timers_dirty = false;
                  tm_next_seq = 0;
                };
              durability = noop_durability;
              part = None;
            })
    in
    Array.iteri (fun k m -> m.part <- Some { p_members = members; p_index = k })
      members;
    m0
  end
