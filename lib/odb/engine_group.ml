(* Engine group: N engine members slicing one logical database by oid.

   Member [k] owns every oid with [oid mod n = k]: its own heap slice
   (table + SoA blocks), its own timer wheel and its own
   durability log. Everything else — schema, transaction state, engine
   state (db-scope automata, scratch, knobs), observability — is the
   {e same} record, shared by construction: members are field-for-field
   copies of member 0 ([{ m0 with store = ...; wheel = ... }]), so the
   whole [Txn]/[Engine] fixpoint machinery runs unchanged on whichever
   member the facade routes to.

   Member 0 is the facade handed to callers; its [part] field (like
   every member's) points at the full member array, which is all the
   routing helpers in [Types]/[Store] need. Determinism: batches step
   in batch order whatever the member count, timers merge by the
   group-wide [(tm_due, tm_seq)] stamp, and the group image writers in
   [Persist] merge slices back into single-engine byte order — so
   firings, counters and ODE1 bytes are identical at any partition
   count. *)

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

(* WAL durability for a group: one independent log per member under
   [<dir>/p<k>], plus a [group-manifest] at the root pinning the
   partition count. Each commit's footprint is split by owner —
   member 0 always logs (its batch carries the shared counters and the
   clock even when its slice did not move), member [k > 0] logs only
   when its slice has dirty objects or its wheel moved. Cross-member
   atomicity of one commit is {e not} guaranteed by the log layout:
   each member replays its own clean prefix and the group recover then
   maxes the shared counters and clocks (see INTERNALS.md). *)
let wal_backend ~partitions (cfg : Wal.config) =
  let mbs =
    Array.init partitions (fun k ->
        Wal.member_backend { cfg with Wal.dir = Wal.member_dir cfg.Wal.dir k })
  in
  let checkpoints = Array.map (fun ((cp, _), _) -> cp) mbs in
  let rebaselines = Array.map (fun ((_, rb), _) -> rb) mbs in
  let backends = Array.map snd mbs in
  let each db f =
    let ms = Store.members db in
    Array.iteri (fun k m -> f backends.(k) m) ms
  in
  {
    dur_name = "wal:" ^ cfg.Wal.dir;
    dur_attach =
      (fun db ->
        Wal.check_manifest cfg.Wal.dir ~partitions;
        each db (fun b m -> b.dur_attach m));
    dur_commit =
      (fun db oids ->
        let ms = Store.members db in
        let n = Array.length ms in
        let subs = Array.make n [] in
        List.iter (fun oid -> subs.(oid mod n) <- oid :: subs.(oid mod n)) oids;
        for k = 0 to n - 1 do
          let sub = List.rev subs.(k) in
          if k = 0 || sub <> [] || ms.(k).wheel.timers_dirty then
            backends.(k).dur_commit ms.(k) sub
        done);
    dur_save =
      (fun db path ->
        Persist.save db path;
        let ms = Store.members db in
        Array.iteri (fun k m -> checkpoints.(k) m) ms);
    dur_load =
      (fun db path ->
        Persist.load db path;
        let ms = Store.members db in
        Array.iteri (fun k m -> rebaselines.(k) m) ms);
    dur_recover =
      (fun db ->
        (match Wal.read_manifest cfg.Wal.dir with
        | Some n when n = partitions -> ()
        | Some n ->
          ode_error
            "WAL directory %s was written with %d partitions, refusing to \
             recover with %d (ODE_PARTITIONS)"
            cfg.Wal.dir n partitions
        | None ->
          ode_error "no WAL group manifest in %s — not a partitioned log"
            cfg.Wal.dir);
        let ms = Store.members db in
        let n = Array.length ms in
        (* [txns] is shared, so each member's replay overwrites
           [next_txn_id] in place — capture per member, then keep the
           max. Same for the mirrored oid counter and the clocks: a
           member that hasn't logged since the last advance is stale,
           and the freshest member wins. *)
        let txn_ids = Array.make n 1 in
        Array.iteri
          (fun k m ->
            backends.(k).dur_recover m;
            txn_ids.(k) <- m.txns.next_txn_id)
          ms;
        db.txns.next_txn_id <- Array.fold_left max 1 txn_ids;
        let next_oid =
          Array.fold_left (fun acc m -> max acc m.store.next_oid) 1 ms
        in
        Array.iter (fun m -> m.store.next_oid <- next_oid) ms;
        let clock =
          Array.fold_left
            (fun acc m -> if m.wheel.clock_ms > acc then m.wheel.clock_ms else acc)
            Int64.min_int ms
        in
        Array.iter (fun m -> m.wheel.clock_ms <- clock) ms;
        (* wheel bucket placement is clock-relative: members whose clock
           just jumped to the group max must re-place their timers *)
        Timewheel.resync db);
    dur_sync = (fun db -> each db (fun b m -> b.dur_sync m));
    dur_close = (fun db -> each db (fun b m -> b.dur_close m));
  }
