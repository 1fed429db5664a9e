(* Save/load: objects, fields, trigger activations and their automaton
   state survive a round trip — mid-detection. *)

open Ode_odb
module D = Database
module Value = Ode_base.Value
module P = Ode_lang.Parser

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "transaction unexpectedly aborted"

let schema fired =
  D.define_class "item"
  |> (fun b -> D.field b "qty" (Value.Int 0))
  |> (fun b -> D.field b "name" (Value.String ""))
  |> (fun b ->
       D.method_ b ~kind:D.Updating "deposit" (fun db oid args ->
           match args with
           | [ q ] ->
             D.set_field db oid "qty"
               (Value.add (D.get_field db oid "qty") q);
             Value.Unit
           | _ -> Value.Unit))
  |> (fun b ->
       D.method_ b ~kind:D.Updating "withdraw" (fun db oid args ->
           match args with
           | [ q ] ->
             D.set_field db oid "qty" (Value.sub (D.get_field db oid "qty") q);
             Value.Unit
           | _ -> Value.Unit))
  |> fun b ->
  D.trigger b ~perpetual:true "third"
    ~event:(P.parse_event "choose 3 (after deposit)")
    ~action:(fun _ ctx -> fired := ctx.D.fc_oid :: !fired)

let tmp = Filename.temp_file "ode" ".img"

let test_roundtrip () =
  let fired = ref [] in
  let db = D.create_db ~config:{ (D.Config.of_env ()) with D.Config.start_time = 123_456L } () in
  D.register_class db (schema fired);
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "item" [] in
           D.set_field db oid "name" (Value.String "widget");
           D.activate db oid "third" [];
           (* two of the three deposits, then save mid-count *)
           ignore (D.call db oid "deposit" [ Value.Int 2 ]);
           ignore (D.call db oid "deposit" [ Value.Int 3 ]);
           oid))
  in
  D.save db tmp;
  (* reload into a fresh database with the same schema *)
  let fired2 = ref [] in
  let db2 = D.create_db () in
  D.register_class db2 (schema fired2);
  D.load db2 tmp;
  Alcotest.(check bool) "object survives" true (D.exists db2 oid);
  Alcotest.(check bool)
    "fields survive" true
    (Value.equal (D.get_field db2 oid "qty") (Value.Int 5)
    && Value.equal (D.get_field db2 oid "name") (Value.String "widget"));
  Alcotest.(check int64) "clock survives" 123_456L (D.now db2);
  Alcotest.(check bool) "activation survives" true (D.is_active db2 oid "third");
  Alcotest.(check bool) "no firing yet" true (!fired2 = []);
  (* the count of 2 deposits must survive: one more completes choose 3 *)
  expect_ok
    (D.with_txn db2 (fun _ -> ignore (D.call db2 oid "deposit" [ Value.Int 1 ])));
  Alcotest.(check bool) "detection state survived the round trip" true
    (List.mem oid !fired2);
  (* and a fourth deposit does not re-fire choose 3 *)
  expect_ok
    (D.with_txn db2 (fun _ -> ignore (D.call db2 oid "deposit" [ Value.Int 1 ])));
  Alcotest.(check int) "choose picks exactly the third" 1 (List.length !fired2)

let test_save_open_txn_rejected () =
  let db = D.create_db () in
  D.register_class db (schema (ref []));
  let tx = D.begin_txn db in
  Alcotest.check_raises "open txn" (D.Ode_error "cannot save with open transactions")
    (fun () -> D.save db tmp);
  D.abort db tx

let test_new_objects_after_load () =
  let fired = ref [] in
  let db = D.create_db () in
  D.register_class db (schema fired);
  let oid1 =
    expect_ok (D.with_txn db (fun _ -> D.create db "item" []))
  in
  D.save db tmp;
  let db2 = D.create_db () in
  D.register_class db2 (schema fired);
  D.load db2 tmp;
  let oid2 = expect_ok (D.with_txn db2 (fun _ -> D.create db2 "item" [])) in
  Alcotest.(check bool) "oid counter restored, no collision" true (oid2 <> oid1)

let test_corrupt_image () =
  let db = D.create_db () in
  D.register_class db (schema (ref []));
  Ode_base.Codec.to_file tmp "garbage";
  Alcotest.(check bool) "corrupt image rejected" true
    (match D.load db tmp with
    | () -> false
    | exception Ode_base.Codec.Corrupt _ -> true)

(* [load] replaces state, not wiring: firing subscriptions registered
   before the load keep delivering afterwards. *)
let test_subscriptions_survive_load () =
  let fired = ref [] in
  let db = D.create_db () in
  D.register_class db (schema (ref []));
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "item" [] in
           D.activate db oid "third" [];
           ignore (D.call db oid "deposit" [ Value.Int 1 ]);
           ignore (D.call db oid "deposit" [ Value.Int 1 ]);
           oid))
  in
  D.save db tmp;
  let db2 = D.create_db () in
  D.register_class db2 (schema (ref []));
  let seen = ref [] in
  ignore (D.subscribe_firings db2 (fun f -> seen := f.D.f_trigger :: !seen));
  D.load db2 tmp;
  expect_ok
    (D.with_txn db2 (fun _ -> ignore (D.call db2 oid "deposit" [ Value.Int 1 ])));
  Alcotest.(check (list string))
    "pre-load subscriber sees the post-load firing" [ "third" ] !seen;
  ignore !fired

(* Two timers due at the same instant: the queue's FIFO order among
   equal deadlines must survive the round trip — both deliveries happen,
   in the original activation order. *)
let timer_schema () =
  D.define_class "beeper"
  |> (fun b ->
       D.trigger_str b ~perpetual:true "tick" ~event:"every time(MS=100)"
         ~action:(fun _ _ -> ()))
  |> fun b ->
  D.trigger_str b ~perpetual:true "tock" ~event:"every time(MS=100)"
    ~action:(fun _ _ -> ())

let timer_firings db =
  let seen = ref [] in
  ignore
    (D.subscribe_firings db (fun f -> seen := (f.D.f_trigger, f.D.f_oid) :: !seen));
  fun () -> List.rev !seen

let test_equal_deadline_timers () =
  let build () =
    let db = D.create_db () in
    D.register_class db (timer_schema ());
    let a, b =
      expect_ok
        (D.with_txn db (fun _ ->
             let a = D.create db "beeper" [] in
             let b = D.create db "beeper" [] in
             (* four timers, all due at t=100, armed in a fixed order *)
             D.activate db a "tick" [];
             D.activate db b "tock" [];
             D.activate db b "tick" [];
             D.activate db a "tock" [];
             (a, b)))
    in
    ignore (a, b);
    db
  in
  let db = build () in
  let direct = timer_firings db in
  D.advance_clock db 250L;
  let db0 = build () in
  D.save db0 tmp;
  let db2 = D.create_db () in
  D.register_class db2 (timer_schema ());
  let reloaded = timer_firings db2 in
  D.load db2 tmp;
  D.advance_clock db2 250L;
  Alcotest.(check bool) "both deliveries happen" true
    (List.length (direct ()) = 8 (* 4 timers x 2 periods *));
  Alcotest.(check bool)
    "equal-deadline delivery order survives the round trip" true
    (direct () = reloaded ())

(* Committed-mode detection state after a history of commits interleaved
   with aborts: what survives the round trip must be exactly what the
   aborts left behind — aborted occurrences discarded, committed ones
   kept. *)
let committed_schema () =
  D.define_class "ledger"
  |> (fun b -> D.field b "qty" (Value.Int 0))
  |> (fun b ->
       D.method_ b ~kind:D.Updating "deposit" (fun db oid args ->
           match args with
           | [ q ] ->
             D.set_field db oid "qty" (Value.add (D.get_field db oid "qty") q);
             Value.Unit
           | _ -> Value.Unit))
  |> fun b ->
  D.trigger_str b ~perpetual:true ~mode:Ode_event.Detector.Committed "cthird"
    ~event:"after deposit; after deposit; after deposit"
    ~action:(fun _ _ -> ())

(* Committed-mode triggers fire eagerly and roll their automaton state
   and effects back on abort (consumers filter the subscription stream
   by transaction fate) — so the invariant to pin is equivalence: after
   an abort-heavy history, a database that went through save/load must
   behave {e exactly} like one that never did, including during and
   after further aborted transactions. *)
let test_committed_mode_abort_history () =
  let drain db =
    let seen = ref [] in
    ignore
      (D.subscribe_firings db (fun f ->
           seen := (f.D.f_trigger, f.D.f_oid, f.D.f_txn) :: !seen));
    fun () ->
      let fs = List.rev !seen in
      seen := [];
      fs
  in
  let run ~roundtrip =
    let mk () =
      let db = D.create_db () in
      D.register_class db (committed_schema ());
      db
    in
    let db = mk () in
    let fired = drain db in
    let oid =
      expect_ok
        (D.with_txn db (fun _ ->
             let oid = D.create db "ledger" [] in
             D.activate db oid "cthird" [];
             ignore (D.call db oid "deposit" [ Value.Int 1 ]);
             oid))
    in
    (* the abort-heavy prefix: each aborted deposit advances the
       committed automaton mid-transaction, then rolls back *)
    for _ = 1 to 4 do
      let tx = D.begin_txn db in
      ignore (D.call db oid "deposit" [ Value.Int 10 ]);
      D.abort db tx
    done;
    expect_ok
      (D.with_txn db (fun _ -> ignore (D.call db oid "deposit" [ Value.Int 1 ])));
    Alcotest.(check bool) "aborted deposits left the balance alone" true
      (Value.equal (D.get_field db oid "qty") (Value.Int 2));
    let db, fired =
      if not roundtrip then (db, fired)
      else begin
        D.save db tmp;
        let db2 = mk () in
        let fired2 = drain db2 in
        D.load db2 tmp;
        (db2, fired2)
      end
    in
    ignore (fired ());
    (* tail: one more aborted completion (fires eagerly, rolls back),
       then the committed completion — txn ids continue from the
       restored counter, so the streams must match verbatim *)
    let tx = D.begin_txn db in
    ignore (D.call db oid "deposit" [ Value.Int 10 ]);
    D.abort db tx;
    expect_ok
      (D.with_txn db (fun _ -> ignore (D.call db oid "deposit" [ Value.Int 1 ])));
    (fired (), D.get_field db oid "qty", D.image_bytes db)
  in
  let fired_direct, qty_direct, img_direct = run ~roundtrip:false in
  let fired_loaded, qty_loaded, img_loaded = run ~roundtrip:true in
  Alcotest.(check bool) "tail firing streams identical" true
    (fired_direct = fired_loaded);
  Alcotest.(check bool) "a completion is in the tail" true
    (List.exists (fun (t, _, _) -> t = "cthird") fired_direct);
  Alcotest.(check bool) "balances identical" true
    (Value.equal qty_direct qty_loaded);
  Alcotest.(check bool) "final images byte-identical" true
    (String.equal img_direct img_loaded)

(* One class, two schema versions: trigger [counter] keeps its name and
   its one-word state but its automaton shrinks from [choose 60] (62
   states) to [after deposit; after deposit] (a handful), and [extra]
   exists only in the first version. *)
let versioned_class ~v1 =
  let b =
    D.define_class "item"
    |> (fun b -> D.field b "qty" (Value.Int 0))
    |> fun b ->
    D.method_ b ~kind:D.Updating "deposit" (fun db oid _ ->
        D.set_field db oid "qty" (Value.add (D.get_field db oid "qty") (Value.Int 1));
        Value.Unit)
  in
  let b =
    D.trigger b ~perpetual:true "counter"
      ~event:
        (P.parse_event
           (if v1 then "choose 60 (after deposit)"
            else "after deposit; after deposit"))
      ~action:(fun _ _ -> ())
  in
  if v1 then
    D.trigger b ~perpetual:true "extra"
      ~event:(P.parse_event "after deposit") ~action:(fun _ _ -> ())
  else b

let versioned_db ~v1 =
  let db = D.create_db () in
  D.register_class db (versioned_class ~v1);
  db

let create_items db ~n ~triggers ~deposits =
  expect_ok
    (D.with_txn db (fun _ ->
         List.init n (fun _ ->
             let oid = D.create db "item" [] in
             List.iter (fun t -> D.activate db oid t []) triggers;
             for _ = 1 to deposits do
               ignore (D.call db oid "deposit" [])
             done;
             oid)))

let rejects_corrupt f =
  match f () with
  | () -> false
  | exception Ode_base.Codec.Corrupt _ -> true

(* A saved state word must lie inside its automaton: [counter]'s word
   after 50 deposits is a valid [choose 60] state but none of the small
   automaton's, which would send every later step out of its transition
   table. *)
let test_state_word_range () =
  let v1 = versioned_db ~v1:true in
  let oid = List.hd (create_items v1 ~n:1 ~triggers:[ "counter" ] ~deposits:50) in
  let state = D.trigger_state v1 oid "counter" in
  Alcotest.(check int) "one state word" 1 (Array.length state);
  Alcotest.(check bool) "deep state word" true (state.(0) > 10);
  D.save v1 tmp;
  let v2 = versioned_db ~v1:false in
  Alcotest.(check bool) "load rejects the word" true
    (rejects_corrupt (fun () -> D.load v2 tmp));
  let det v1 =
    Ode_event.Detector.make
      (P.parse_event
         (if v1 then "choose 60 (after deposit)" else "after deposit; after deposit"))
  in
  Alcotest.(check bool) "decode_state rejects the word" true
    (rejects_corrupt (fun () ->
         ignore
           (Ode_event.Detector.decode_state (det false)
              (Ode_event.Detector.encode_state (det true) state))))

(* A load the schema rejects must leave the database as it was: every
   object is checked before the heap is reset. *)
let test_rejected_load_keeps_db () =
  let v1 = versioned_db ~v1:true in
  ignore (create_items v1 ~n:2 ~triggers:[ "counter"; "extra" ] ~deposits:1);
  D.save v1 tmp;
  let v2 = versioned_db ~v1:false in
  ignore (create_items v2 ~n:5 ~triggers:[ "counter" ] ~deposits:1);
  let before = D.image_bytes v2 in
  Alcotest.(check bool) "unknown trigger rejected" true
    (rejects_corrupt (fun () -> D.load v2 tmp));
  Alcotest.(check int) "objects kept" 5 (List.length (D.objects v2));
  Alcotest.(check bool) "image unchanged" true (D.image_bytes v2 = before)

let suite =
  [
    Alcotest.test_case "image round-trip" `Quick test_roundtrip;
    Alcotest.test_case "save with open txn rejected" `Quick test_save_open_txn_rejected;
    Alcotest.test_case "oid counter survives" `Quick test_new_objects_after_load;
    Alcotest.test_case "corrupt image rejected" `Quick test_corrupt_image;
    Alcotest.test_case "subscriptions survive load" `Quick
      test_subscriptions_survive_load;
    Alcotest.test_case "equal-deadline timers survive load" `Quick
      test_equal_deadline_timers;
    Alcotest.test_case "committed-mode abort history survives load" `Quick
      test_committed_mode_abort_history;
    Alcotest.test_case "load rejects state words outside the automaton" `Quick
      test_state_word_range;
    Alcotest.test_case "rejected load leaves the database as it was" `Quick
      test_rejected_load_keeps_db;
  ]
