(* The timing wheel against its oracle: [Ref_timerq], a sorted (due,
   seq) list restating the timer contract, must predict the wheel's
   firing trace and pending queue over arbitrary arm / cancel / re-arm /
   abort / advance interleavings, at every partition count — and the
   ODE1 image bytes must agree across partition counts and survive WAL
   replay. Plus deterministic pins: equal-deadline (due, seq) order,
   eager cancellation visible in [stats.state_bytes], the
   clock-only-replay regression, the fleet scenario against the oracle,
   same-instant edge cases of the due run, and the wheel's work counted
   in nodes visited rather than timed. *)

open Ode_odb
module D = Database
module Value = Ode_base.Value

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "transaction unexpectedly aborted"

let fresh_dir () =
  let d = Filename.temp_file "ode_timer" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let mk_db ?durability ~partitions () =
  let c = { (D.Config.of_env ()) with D.Config.partitions } in
  let c =
    match durability with Some d -> { c with D.Config.durability = d } | None -> c
  in
  D.create_db ~config:c ()

(* Every timer shape the engine arms: a fast and a slow periodic (the
   slow one crosses level-1 rotations, period > 4096 ms), a one-shot
   after-period and a calendar pattern — (name, event, perpetual). *)
let trigger_decls =
  [
    ("tick", "every time(MS=70)", true);
    ("slow", "every time(MS=4111)", true);
    ("once", "after time(MS=150)", false);
    ("daily", "at time(HR=9)", true);
  ]

let triggers = Array.of_list (List.map (fun (n, _, _) -> n) trigger_decls)

let schema () =
  List.fold_left
    (fun b (name, event, perpetual) ->
      D.trigger_str b ~perpetual name ~event ~action:(fun db ctx ->
          if name = "tick" then ignore (D.call db ctx.D.fc_oid "poke" [])))
    (D.define_class "probe"
    |> (fun b -> D.field b "n" (Value.Int 0))
    |> fun b ->
    D.method_ b ~kind:D.Updating "poke" (fun db oid _ ->
        D.set_field db oid "n" (Value.add (D.get_field db oid "n") (Value.Int 1));
        Value.Unit))
    trigger_decls

let reference decls =
  Ref_timerq.create
    (List.map (fun (n, e, p) -> (n, Ode_lang.Parser.parse_event e, p)) decls)

(* The pending queue as the ODE1 image carries it — merged across
   partition members in (due, seq) order — projected like
   [Ref_timerq.pending]. *)
let image_pending db =
  let module C = Ode_base.Codec in
  let r = C.reader (D.image_bytes db) in
  ignore (C.read_string r);
  for _ = 1 to 3 do
    ignore (C.read_int r)
  done;
  ignore (C.read_list r Persist.read_obj_raw);
  List.map
    (fun (tm : Types.timer) ->
      Types.(tm.tm_due, tm.tm_oid, tm.tm_trigger, tm.tm_epoch, tm.tm_spec, tm.tm_anchor))
    (C.read_list r Persist.read_timer)

(* ------------------------------------------------------------------ *)
(* The random script                                                   *)
(* ------------------------------------------------------------------ *)

type op =
  | Create of int (* trigger subset bitmask *)
  | Activate of int * string
  | Deactivate of int * string
  | Delete of int
  | Aborted of int * string (* arm + cancel inside a rolled-back txn *)
  | Advance of int

(* Spans are drawn to cross structure boundaries: inside a level-0
   rotation, across it, across the 4096 ms level-1 rotation, and
   (rarely — the periodic timers make every ms of horizon cost
   deliveries) a long hop over the 64^3 ms level-2 rotation. The
   [daily] calendar timer arms at a high level and cascades but stays
   a day away, pinning placement without the million ticks firing it
   would cost. *)
let gen_span rng =
  match Random.State.int rng 20 with
  | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 -> 1 + Random.State.int rng 60
  | 8 | 9 | 10 | 11 | 12 -> 61 + Random.State.int rng 240
  | 13 | 14 | 15 -> 3_500 + Random.State.int rng 1_000
  | 16 -> 250_000 + Random.State.int rng 50_000
  | _ -> 30 + Random.State.int rng 100

let gen_ops rng =
  let n = 40 + Random.State.int rng 40 in
  List.init n (fun _ ->
      let trig () = triggers.(Random.State.int rng (Array.length triggers)) in
      let slot () = Random.State.int rng 8 in
      match Random.State.int rng 100 with
      | x when x < 20 -> Create (Random.State.int rng 16)
      | x when x < 34 -> Activate (slot (), trig ())
      | x when x < 46 -> Deactivate (slot (), trig ())
      | x when x < 52 -> Delete (slot ())
      | x when x < 60 -> Aborted (slot (), trig ())
      | _ -> Advance (gen_span rng))

(* Replay one script against one database and the reference queue;
   the trace is every firing in order, (trigger, oid, instant) — oids
   are deterministic, so equal traces mean equal behaviour. *)
let run_script ops db =
  D.register_class db (schema ());
  let model = reference trigger_decls in
  let fired = ref [] in
  let _s =
    D.subscribe_firings db (fun f ->
        fired := (f.D.f_trigger, f.D.f_oid, f.D.f_at) :: !fired)
  in
  let objs = ref [] in
  let pick i =
    match !objs with [] -> None | l -> Some (List.nth l (i mod List.length l))
  in
  let in_txn f =
    match D.with_txn db (fun _ -> f ()) with Ok () -> () | Error `Aborted -> ()
  in
  List.iter
    (fun op ->
      match op with
      | Create mask ->
        in_txn (fun () ->
            let oid = D.create db "probe" [] in
            Ref_timerq.create_object model oid;
            Array.iteri
              (fun bit t ->
                if mask land (1 lsl bit) <> 0 then begin
                  D.activate db oid t [];
                  Ref_timerq.activate model oid t
                end)
              triggers;
            objs := !objs @ [ oid ])
      | Activate (i, t) -> (
        match pick i with
        | Some oid when D.exists db oid ->
          in_txn (fun () -> D.activate db oid t []);
          Ref_timerq.activate model oid t
        | _ -> ())
      | Deactivate (i, t) -> (
        match pick i with
        | Some oid when D.exists db oid ->
          in_txn (fun () -> D.deactivate db oid t);
          Ref_timerq.deactivate model oid t
        | _ -> ())
      | Delete i -> (
        match pick i with
        | Some oid when D.exists db oid ->
          in_txn (fun () -> D.delete db oid);
          Ref_timerq.delete model oid
        | _ -> ())
      | Aborted (i, t) -> (
        (* arm, re-arm and cancel, then roll it all back: the
           [U_timers_armed]/[U_timers_cancelled] undo paths; the
           reference does nothing *)
        match pick i with
        | Some oid when D.exists db oid ->
          let tx = D.begin_txn db in
          (try
             D.activate db oid t [];
             D.activate db oid t [];
             D.deactivate db oid t;
             D.activate db oid t [];
             D.abort db tx
           with D.Lock_conflict _ -> D.abort db tx)
        | _ -> ())
      | Advance ms ->
        D.advance_clock db (Int64.of_int ms);
        Ref_timerq.advance model (Int64.of_int ms))
    ops;
  (List.rev !fired, model)

let run_one ops ?durability ~partitions () =
  let db = mk_db ?durability ~partitions () in
  let trace, model = run_script ops db in
  (db, trace, D.image_bytes db, model)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_oracle =
  QCheck.Test.make
    ~name:"wheel = sorted-list oracle (trace + pending timers, partitions 1/2/4)"
    ~count:20 QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed; 0x17 |] in
      let ops = gen_ops rng in
      let _, _, img1, _ = run_one ops ~partitions:1 () in
      List.for_all
        (fun p ->
          let db, tr, img, model = run_one ops ~partitions:p () in
          tr = Ref_timerq.fired model
          && image_pending db = Ref_timerq.pending model
          && String.equal img img1)
        [ 1; 2; 4 ])

let prop_wal_recovery =
  QCheck.Test.make
    ~name:"WAL replay rebuilds the wheel byte-for-byte (partitions 1/2)"
    ~count:12 QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed; 0x33 |] in
      let ops = gen_ops rng in
      let _, _, img0, _ = run_one ops ~partitions:1 () in
      List.for_all
        (fun p ->
          let dir = fresh_dir () in
          let cfg =
            Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:0 dir
          in
          let db, _, img, _ = run_one ops ~durability:(`Wal cfg) ~partitions:p () in
          D.close_durability db;
          let rdb = mk_db ~durability:(`Wal (Wal.config dir)) ~partitions:p () in
          D.register_class rdb (schema ());
          D.recover rdb;
          let ok = String.equal (D.image_bytes rdb) img in
          D.close_durability rdb;
          ok && String.equal img img0)
        [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Deterministic pins                                                  *)
(* ------------------------------------------------------------------ *)

(* Equal deadlines deliver in activation order — the group-wide
   [tm_seq] stamp — identically at any partition count (oids scatter
   over members; the merge re-serializes them). *)
let test_equal_deadline_order () =
  let runs =
    List.map
      (fun partitions ->
        let db = mk_db ~partitions () in
        D.register_class db (schema ());
        let fired = ref [] in
        let _s = D.subscribe_firings db (fun f -> fired := f.D.f_oid :: !fired) in
        let oids =
          expect_ok
            (D.with_txn db (fun _ ->
                 List.init 6 (fun _ ->
                     let oid = D.create db "probe" [] in
                     D.activate db oid "tick" [];
                     oid)))
        in
        D.advance_clock db 70L;
        (oids, List.rev !fired))
      [ 1; 4 ]
  in
  match runs with
  | (oids0, fired0) :: rest ->
    Alcotest.(check (list int)) "all six fire, in activation order" oids0 fired0;
    List.iter
      (fun (_, fired) ->
        Alcotest.(check (list int)) "same order on every run" fired0 fired)
      rest
  | [] -> assert false

(* Eager cancellation shows up in the stats: deactivating a trigger or
   deleting an object releases its pending timers' bytes immediately
   (the lazy sweep kept them until due). *)
let test_eager_cancel_stats () =
  let db = mk_db ~partitions:1 () in
  D.register_class db (schema ());
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "probe" [] in
           D.activate db oid "tick" [];
           D.activate db oid "slow" [];
           D.activate db oid "once" [];
           oid))
  in
  let armed = (D.stats db).D.state_bytes in
  expect_ok (D.with_txn db (fun _ -> D.deactivate db oid "tick"));
  let one_less = (D.stats db).D.state_bytes in
  Alcotest.(check bool) "deactivate released one timer" true
    (armed - one_less >= 100);
  expect_ok (D.with_txn db (fun _ -> D.delete db oid));
  let gone = (D.stats db).D.state_bytes in
  Alcotest.(check bool) "delete released the rest" true (one_less - gone >= 200)

(* Regression: a WAL batch that moves the clock without touching the
   queue must keep wheel placement consistent on replay — the recovered
   engine once peeked a timer stranded at a stale level and spun
   forever trying to pull it. *)
let test_clock_only_replay () =
  let dir = fresh_dir () in
  let cfg =
    Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:0 dir
  in
  let db = mk_db ~durability:(`Wal cfg) ~partitions:1 () in
  D.register_class db (schema ());
  expect_ok
    (D.with_txn db (fun _ ->
         let oid = D.create db "probe" [] in
         D.activate db oid "tick" []));
  (* nothing due by 65, queue untouched: this logs a clock-only batch
     that crosses the level-0 rotation the timer was placed under *)
  D.advance_clock db 65L;
  D.close_durability db;
  let rdb = mk_db ~durability:(`Wal (Wal.config dir)) ~partitions:1 () in
  D.register_class rdb (schema ());
  D.recover rdb;
  let fired = ref 0 in
  let _s = D.subscribe_firings rdb (fun _ -> incr fired) in
  D.advance_clock rdb 10L;
  D.close_durability rdb;
  Alcotest.(check int) "the replayed timer still fires at 70" 1 !fired

(* The fleet scenario end to end, small: cadence deliveries, one-shot
   service alerts, eager cancellation via idle/retire — against the
   sorted-list oracle fed the same operations. *)
let test_fleet_small () =
  let module F = Ode_scenarios.Fleet in
  let fleet = F.setup ~vehicles:30 () in
  let model =
    reference
      (Array.to_list
         (Array.map
            (fun (name, ms) -> (name, Printf.sprintf "every time(MS=%d)" ms, true))
            F.cadences)
      @ [ ("service", Printf.sprintf "after time(MS=%d)" F.service_after_ms, false) ])
  in
  Array.iteri
    (fun j oid ->
      Ref_timerq.create_object model oid;
      Ref_timerq.activate model oid (F.cadence_of j);
      Ref_timerq.activate model oid "service")
    fleet.F.vehicles;
  let fired = ref [] in
  let _s =
    D.subscribe_firings fleet.F.db (fun f ->
        fired := (f.D.f_trigger, f.D.f_oid, f.D.f_at) :: !fired)
  in
  F.tick fleet 1_000L;
  Ref_timerq.advance model 1_000L;
  let beats1 = F.total_beats fleet in
  F.idle fleet ~stride:3;
  Array.iteri
    (fun j oid -> if j mod 3 = 0 then Ref_timerq.deactivate model oid (F.cadence_of j))
    fleet.F.vehicles;
  F.retire fleet ~stride:7;
  Array.iteri
    (fun j oid -> if j mod 7 = 0 then Ref_timerq.delete model oid)
    fleet.F.vehicles;
  F.tick fleet 40_000L;
  Ref_timerq.advance model 40_000L;
  (* 10 vehicles each at 50/250/1000 ms over 1000 ms *)
  Alcotest.(check int) "first-second heartbeats" ((20 * 10) + (4 * 10) + 10) beats1;
  Alcotest.(check bool) "idle fleet keeps beating" true (F.total_beats fleet > beats1);
  Alcotest.(check bool) "service checks came due" true (F.total_alerts fleet > 0);
  Alcotest.(check bool) "list oracle: same firing trace" true
    (List.rev !fired = Ref_timerq.fired model);
  Alcotest.(check bool) "list oracle: same pending timers" true
    (image_pending fleet.F.db = Ref_timerq.pending model)

(* ------------------------------------------------------------------ *)
(* The due run: same-instant edge cases                                *)
(* ------------------------------------------------------------------ *)

(* A [boss] action that deactivates two [tick] peers due at the same
   instant as itself — one armed before it (smaller seq, already
   delivered), one after (still in the due run) — and optionally
   aborts. Returns the firing trace up to 140 ms. *)
let run_boss ~abort ~partitions =
  let db = mk_db ~partitions () in
  let peers = ref [] in
  D.register_class db
    (D.define_class "peer"
    |> (fun b -> D.trigger_str b ~perpetual:true "tick" ~event:"every time(MS=70)"
          ~action:(fun _ _ -> ()))
    |> fun b ->
    D.trigger_str b ~perpetual:true "boss" ~event:"every time(MS=70)"
      ~action:(fun db _ ->
        List.iter (fun p -> D.deactivate db p "tick") !peers;
        if abort then raise D.Tabort));
  let fired = ref [] in
  let _s =
    D.subscribe_firings db (fun f -> fired := (f.D.f_trigger, f.D.f_oid, f.D.f_at) :: !fired)
  in
  let arm t =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "peer" [] in
           D.activate db oid t [];
           oid))
  in
  let early = arm "tick" in
  let boss = arm "boss" in
  let late = arm "tick" in
  peers := [ early; late ];
  D.advance_clock db 140L;
  ((early, boss, late), List.rev !fired)

let test_deactivate_same_instant () =
  let ((early, boss, _late), trace) = run_boss ~abort:false ~partitions:1 in
  Alcotest.(check (list (triple string int int64)))
    "the earlier peer fires, the later one is cancelled before its turn"
    [ ("tick", early, 70L); ("boss", boss, 70L); ("boss", boss, 140L) ]
    trace;
  Alcotest.(check (list (triple string int int64)))
    "same trace at 4 partitions" trace
    (snd (run_boss ~abort:false ~partitions:4))

(* The abort's [U_timers_cancelled] undo re-inserts the later peer at
   the current instant: it rejoins the due run and still fires in
   (due, seq) order, after the boss. *)
let test_deactivate_same_instant_abort () =
  let ((early, boss, late), trace) = run_boss ~abort:true ~partitions:1 in
  Alcotest.(check (list (triple string int int64)))
    "both peers keep firing, the later one after the boss"
    [ ("tick", early, 70L); ("boss", boss, 70L); ("tick", late, 70L);
      ("tick", early, 140L); ("boss", boss, 140L); ("tick", late, 140L) ]
    trace;
  Alcotest.(check (list (triple string int int64)))
    "same trace at 4 partitions" trace
    (snd (run_boss ~abort:true ~partitions:4))

(* A time-event action that fails with an exception other than [Tabort]:
   the exception reaches the [advance_clock] caller, but the delivery's
   system transaction is aborted and detached like a [Tabort] one, its
   periodic timer is re-armed and the interrupted advance is logged. Run
   at the environment's partition count, on its durability and on an
   explicit WAL recovered right after the failure. *)
let test_failing_time_action () =
  let run ?wal_dir () =
    let partitions = (D.Config.of_env ()).D.Config.partitions in
    let durability =
      Option.map
        (fun dir ->
          `Wal (Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:0 dir))
        wal_dir
    in
    let db = mk_db ?durability ~partitions () in
    let fail = ref true and runs = ref 0 in
    let schema () =
      let b = D.define_class "flaky" in
      let b = D.field b "n" (Value.Int 0) in
      let b =
        D.method_ b ~kind:D.Updating "poke" (fun db oid _ ->
            D.set_field db oid "n" (Value.add (D.get_field db oid "n") (Value.Int 1));
            Value.Unit)
      in
      D.trigger_str b ~perpetual:true "tick" ~event:"every time(MS=70)"
        ~action:(fun db ctx ->
          incr runs;
          ignore (D.call db ctx.D.fc_oid "poke" []);
          if !fail then begin
            fail := false;
            failwith "action failed"
          end)
    in
    D.register_class db (schema ());
    let oid =
      expect_ok
        (D.with_txn db (fun _ ->
             let oid = D.create db "flaky" [] in
             D.activate db oid "tick" [];
             oid))
    in
    Alcotest.check_raises "the action's exception reaches the caller"
      (Failure "action failed") (fun () -> D.advance_clock db 100L);
    Alcotest.(check bool) "no transaction left open" true (D.current_txn db = None);
    Alcotest.(check int) "the failed delivery's update is undone" 0
      (Value.to_int (D.get_field db oid "n"));
    (* on a WAL, the log written up to the failure must rebuild the
       same image, and the recovered database carries on *)
    let db =
      match wal_dir with
      | None -> db
      | Some dir ->
        let img = D.image_bytes db in
        D.close_durability db;
        let rdb = mk_db ~durability:(`Wal (Wal.config dir)) ~partitions () in
        D.register_class rdb (schema ());
        D.recover rdb;
        Alcotest.(check bool) "WAL recovery rebuilds the same image" true
          (String.equal (D.image_bytes rdb) img);
        rdb
    in
    expect_ok (D.with_txn db (fun _ -> ignore (D.call db oid "poke" [])));
    Alcotest.(check int) "the periodic timer is still armed" 1 (D.stats db).D.n_timers;
    D.advance_clock db 1000L;
    Alcotest.(check bool) "the trigger fires again" true (!runs > 1);
    Alcotest.(check int) "later deliveries commit" !runs
      (Value.to_int (D.get_field db oid "n"));
    D.close_durability db
  in
  run ();
  run ~wal_dir:(fresh_dir ()) ()

(* A burst armed at one instant whose due lies in the next 64 ms
   block: the cascade moves the whole burst into the due run at once. *)
let test_block_crossing_burst () =
  let run partitions =
    let db = mk_db ~partitions () in
    D.register_class db (schema ());
    let model = reference trigger_decls in
    let fired = ref [] in
    let _s =
      D.subscribe_firings db (fun f ->
          fired := (f.D.f_trigger, f.D.f_oid, f.D.f_at) :: !fired)
    in
    D.advance_clock db 30L;
    Ref_timerq.advance model 30L;
    expect_ok
      (D.with_txn db (fun _ ->
           for _ = 1 to 240 do
             let oid = D.create db "probe" [] in
             Ref_timerq.create_object model oid;
             D.activate db oid "tick" [];
             Ref_timerq.activate model oid "tick"
           done));
    D.advance_clock db 300L;
    Ref_timerq.advance model 300L;
    let trace = List.rev !fired in
    Alcotest.(check int) "240 objects fire at 100, 170, 240 and 310" (4 * 240)
      (List.length trace);
    Alcotest.(check bool) "list oracle: same firing trace" true
      (trace = Ref_timerq.fired model);
    Alcotest.(check bool) "list oracle: same pending timers" true
      (image_pending db = Ref_timerq.pending model);
    trace
  in
  Alcotest.(check bool) "same trace at 4 partitions" true (run 1 = run 4)

(* ------------------------------------------------------------------ *)
(* Work per delivery, counted                                          *)
(* ------------------------------------------------------------------ *)

(* Wheel nodes visited per delivery on fleet ticks whose heartbeats all
   fall due at the same instants: flat in the fleet size. A wheel that
   scans the due run per delivery visits O(fleet) nodes each time. The
   fleet is [Fleet.setup]'s, built on the engine layer ([Database.t] is
   abstract, and the counter reads the member wheels): one heartbeat
   per vehicle at the scenario's round-robin cadences plus the one-shot
   service check, at the environment's partition count. *)
let raw_fleet ~vehicles =
  let module F = Ode_scenarios.Fleet in
  let db =
    Engine_group.make ~partitions:(D.Config.of_env ()).D.Config.partitions ()
  in
  let delivered = ref 0 in
  let b = Schema.define_class "vehicle" in
  let b =
    Array.fold_left
      (fun b (name, ms) ->
        Schema.trigger_str b ~perpetual:true name
          ~event:(Printf.sprintf "every time(MS=%d)" ms)
          ~action:(fun _ _ -> incr delivered))
      b F.cadences
  in
  let b =
    Schema.trigger_str b "service"
      ~event:(Printf.sprintf "after time(MS=%d)" F.service_after_ms)
      ~action:(fun _ _ -> incr delivered)
  in
  Engine.register_class db b;
  expect_ok
    (Txn.with_txn db (fun _ ->
         for j = 0 to vehicles - 1 do
           let oid = Engine.create db "vehicle" [] in
           Engine.activate db oid (F.cadence_of j) [];
           Engine.activate db oid "service" []
         done));
  (db, delivered)

let test_visits_per_delivery_flat () =
  let per_delivery vehicles =
    let db, delivered = raw_fleet ~vehicles in
    let v0 = Timewheel.nodes_visited db in
    for _ = 1 to 20 do
      Timewheel.advance_clock db 50L
    done;
    Alcotest.(check bool) "every heartbeat came due" true (!delivered >= vehicles);
    float_of_int (Timewheel.nodes_visited db - v0) /. float_of_int !delivered
  in
  let small = per_delivery 500 in
  let mid = per_delivery 4_000 in
  let large = per_delivery 16_000 in
  let show =
    Printf.sprintf "%.2f / %.2f / %.2f at 500 / 4000 / 16000" small mid large
  in
  Alcotest.(check bool) ("at most 4 per delivery: " ^ show) true
    (small <= 4. && mid <= 4. && large <= 4.);
  Alcotest.(check bool) ("flat in the fleet size: " ^ show) true
    (large <= 1.25 *. small)

(* Raw timers on a bare engine: they belong to no live object, so
   delivery rejects each one and this exercises only the queue —
   insert, cascade, group pull. *)
let raw_timer ~due i =
  {
    Types.tm_due = due;
    tm_seq = i;
    tm_oid = 1 + i;
    tm_trigger = "m";
    tm_epoch = 0;
    tm_spec = Ode_event.Symbol.After_period 1L;
    tm_anchor = 0L;
  }

(* A million timers spread over 5,000 s, armed and then drained to
   empty in one clock hop. *)
let test_million_timers () =
  let db = Types.make_db () in
  let rng = Random.State.make [| 9191 |] in
  for i = 0 to 999_999 do
    Timewheel.insert_timer db
      (raw_timer ~due:(Int64.of_int (1 + Random.State.int rng 5_000_000)) i)
  done;
  Alcotest.(check int) "all armed" 1_000_000 (Timewheel.pending_count db);
  Timewheel.advance_clock db 5_000_001L;
  Alcotest.(check int) "drained to empty" 0 (Timewheel.pending_count db)

(* 100,000 timers due at one instant, drained in one hop: the due run
   is read head-first, so the hop visits a bounded number of nodes per
   timer. *)
let test_aligned_drain () =
  let n = 100_000 in
  let db = Types.make_db () in
  for i = 0 to n - 1 do
    Timewheel.insert_timer db (raw_timer ~due:777_777L i)
  done;
  let v0 = Timewheel.nodes_visited db in
  Timewheel.advance_clock db 1_000_000L;
  Alcotest.(check int) "drained to empty" 0 (Timewheel.pending_count db);
  let visited = Timewheel.nodes_visited db - v0 in
  Alcotest.(check bool)
    (Printf.sprintf "at most 4 visits per timer (%d for %d)" visited n)
    true (visited <= 4 * n)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_oracle;
    QCheck_alcotest.to_alcotest prop_wal_recovery;
    Alcotest.test_case "equal deadlines keep activation order" `Quick
      test_equal_deadline_order;
    Alcotest.test_case "eager cancellation frees state bytes" `Quick
      test_eager_cancel_stats;
    Alcotest.test_case "clock-only WAL batch replay (regression)" `Quick
      test_clock_only_replay;
    Alcotest.test_case "fleet scenario, wheel vs list" `Quick test_fleet_small;
    Alcotest.test_case "same-instant peer deactivated by an action" `Quick
      test_deactivate_same_instant;
    Alcotest.test_case "same-instant peer restored by Tabort" `Quick
      test_deactivate_same_instant_abort;
    Alcotest.test_case "failing time action leaks no transaction" `Quick
      test_failing_time_action;
    Alcotest.test_case "burst cascading across a 64 ms block" `Quick
      test_block_crossing_burst;
    Alcotest.test_case "fleet: nodes visited per delivery flat" `Quick
      test_visits_per_delivery_flat;
    Alcotest.test_case "million raw timers arm and drain" `Quick
      test_million_timers;
    Alcotest.test_case "100k same-instant timers drain in O(n)" `Quick
      test_aligned_drain;
  ]
