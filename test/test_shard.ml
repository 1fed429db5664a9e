(* Kernel coverage and the Store surface. The properties check that
   every compilable expression steps through packed tables and that the
   [Dfa]-row branch of [Compile.step] agrees with them. Directed tests
   cover the Store surface ([cardinal]/[mem] and the ascending-oid
   enumeration contract) and [post_many]'s batch-order contract: the
   error of a failing batch and the empty batch. *)

open Ode_odb
open Ode_event
module D = Database
module Value = Ode_base.Value
module Symbol = Ode_event.Symbol

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Kernel coverage, detector level: every expression the generators can
   produce — composite masks, [choose]/[every] counting, nesting — must
   compile to packed tables at every level in both history modes, so no
   compilable expression silently steps through the DFA rows instead. *)
let all_expressions_flat =
  QCheck.Test.make ~count:300 ~name:"kernel coverage: every compilable expression has flat tables"
    (QCheck.make
       ~print:(Fmt.str "%a" Expr.pp)
       (Gen.gen_surface_masked ~max_size:8 ()))
    (fun e ->
      List.for_all
        (fun mode ->
          match Detector.make ~mode e with
          | exception Invalid_argument _ -> true (* state-limit: skip *)
          | det ->
            let c = det.Detector.compiled in
            c.Compile.flat <> None
            && Array.for_all (fun l -> l.Compile.l_flat <> None) c.levels)
        [ Detector.Full_history; Detector.Committed ])

(* The other branch of [Compile.step]: an automaton past the packed-cell
   budget steps through its [Dfa] rows. Stripping every table from a
   compiled stack must change neither the firings nor the final state
   words, under a scripted mask stream. *)
let dfa_rows_equal_tables =
  let m = 4 in
  QCheck.Test.make ~count:300
    ~name:"kernel coverage: DFA-row stepping = packed-table stepping"
    (QCheck.make
       ~print:(fun ((e, _), h, seed) ->
         Fmt.str "%s on %s (seed %d)" (Gen.lowered_print e)
           (Gen.history_print h) seed)
       QCheck.Gen.(
         let* em = Gen.gen_lowered_masked ~m () in
         let* len = int_range 0 20 in
         let* h = Gen.gen_history ~m ~len in
         let* seed = int_bound 10_000 in
         return (em, h, seed)))
    (fun ((e, _), h, seed) ->
      match Compile.compile ~m e with
      | exception Invalid_argument _ -> true (* state-limit: skip *)
      | packed ->
        let rows =
          { packed with
            Compile.flat = None;
            levels =
              Array.map (fun l -> { l with Compile.l_flat = None }) packed.levels }
        in
        let oracle = Gen.oracle_of_seed seed in
        let eval p id = oracle id p in
        let drive c =
          let state = Compile.initial c in
          let fired = Array.mapi (fun p sym -> Compile.step c state 0 sym eval p) h in
          (fired, state)
        in
        drive packed = drive rows)

(* ------------------------------------------------------------------ *)
(* Directed tests                                                      *)
(* ------------------------------------------------------------------ *)

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "transaction unexpectedly aborted"

let simple_class () =
  D.define_class "c" |> fun b -> D.field b "x" (Value.Int 0)

(* same class built at the Schema layer, for the Store-level tests that
   need a raw [Types.db] *)
let simple_schema_class () =
  Schema.field (Schema.define_class "c") "x" (Value.Int 0)

(* [cardinal]/[mem]/enumeration: committed deletes keep the record
   (mem true, default cardinal counts it) but leave the live count and
   listings. *)
let test_store_primitives () =
  let db = D.create_db () in
  D.register_class db (simple_class ());
  let oids =
    expect_ok (D.with_txn db (fun _ -> List.init 10 (fun _ -> D.create db "c" [])))
  in
  Alcotest.(check (list int)) "ascending enumeration" oids (D.objects db);
  expect_ok (D.with_txn db (fun _ -> D.delete db (List.nth oids 3)));
  let s = D.stats db in
  Alcotest.(check int) "live count after delete" 9 s.D.n_objects;
  Alcotest.(check (list int))
    "listing skips deleted"
    (List.filter (fun o -> o <> List.nth oids 3) oids)
    (D.objects db);
  Alcotest.(check bool) "exists false" false (D.exists db (List.nth oids 3))

let test_store_layer_cardinal_mem () =
  let db = Types.make_db () in
  Schema.register_class db (simple_schema_class ());
  let oids =
    expect_ok (Txn.with_txn db (fun _ -> List.init 10 (fun _ -> Engine.create db "c" [])))
  in
  Alcotest.(check int) "cardinal" 10 (Store.cardinal db);
  Alcotest.(check int) "cardinal ~live" 10 (Store.cardinal ~live:true db);
  Alcotest.(check bool) "mem" true (Store.mem db (List.hd oids));
  Alcotest.(check bool) "not mem" false (Store.mem db 424242);
  expect_ok (Txn.with_txn db (fun _ -> Engine.delete db (List.nth oids 0)));
  Alcotest.(check int) "cardinal keeps tombstone" 10 (Store.cardinal db);
  Alcotest.(check int) "live cardinal drops" 9 (Store.cardinal ~live:true db);
  Alcotest.(check bool) "tombstone mem" true (Store.mem db (List.nth oids 0));
  (* an aborted delete restores the live count *)
  let tx = Txn.begin_txn db in
  Engine.delete db (List.nth oids 1);
  Alcotest.(check int) "mid-txn live" 8 (Store.cardinal ~live:true db);
  Txn.abort db tx;
  Alcotest.(check int) "abort restores live" 9 (Store.cardinal ~live:true db);
  (* an aborted create removes the record entirely *)
  let tx = Txn.begin_txn db in
  let noid = Engine.create db "c" [] in
  Txn.abort db tx;
  Alcotest.(check bool) "aborted create not mem" false (Store.mem db noid);
  Alcotest.(check int) "aborted create cardinal" 10 (Store.cardinal db)

(* A batch whose masks fail raises the first failing event's error in
   batch order, after exactly the events before it stepped. Classes [p]
   and [q] each carry a committed-mode counter and a trigger masked on
   an unbound variable; objects 1p 2q 3p 4q. The batch pings 1, 2 and
   3, then booms 1 (p's mask fails) before q's boom on 2 — so a walk in
   any other order either names [q.bad_q] or leaves a different set of
   counters stepped. The abort then restores every counter. *)
let test_failing_batch () =
  let db = D.create_db () in
  let cls name var =
    let b = D.define_class name in
    let b = D.method_ b ~kind:D.Updating "ping" (fun _ _ _ -> Value.Unit) in
    let b = D.method_ b ~kind:D.Updating "boom" (fun _ _ _ -> Value.Unit) in
    let b =
      D.trigger_str b ~perpetual:true ~mode:Detector.Committed "count"
        ~event:"after ping ; after ping ; after ping" ~action:(fun _ _ -> ())
    in
    let b =
      D.trigger_str b ~perpetual:true ("bad_" ^ name)
        ~event:(Printf.sprintf "after boom && %s == 1" var)
        ~action:(fun _ _ -> ())
    in
    D.register_class db b
  in
  cls "p" "zzz";
  cls "q" "yyy";
  let oids =
    expect_ok
      (D.with_txn db (fun _ ->
           List.map
             (fun c ->
               let oid = D.create db c [] in
               D.activate db oid "count" [];
               D.activate db oid ("bad_" ^ c) [];
               oid)
             [ "p"; "q"; "p"; "q" ]))
  in
  let states () = List.map (fun oid -> D.trigger_state db oid "count") oids in
  let before = states () in
  let ev i m = (List.nth oids (i - 1), Symbol.Method (Symbol.After, m), []) in
  let tx = D.begin_txn db in
  let msg =
    match
      D.post_many db
        [ ev 1 "ping"; ev 2 "ping"; ev 3 "ping"; ev 1 "boom"; ev 4 "ping";
          ev 2 "boom"; ev 3 "ping" ]
    with
    | _ -> Alcotest.fail "expected the batch to raise"
    | exception D.Ode_error msg -> msg
  in
  let stepped = List.map2 (fun b a -> b <> a) before (states ()) in
  D.abort db tx;
  Alcotest.(check string) "first failing event in batch order"
    "trigger p.bad_p: mask evaluation failed: unbound variable zzz" msg;
  Alcotest.(check (list bool)) "exactly the earlier events stepped"
    [ true; true; true; false ] stepped;
  Alcotest.(check bool) "abort restores every counter" true (states () = before)

(* Empty post_many: a no-op at the engine layer too — still requires a
   transaction, posts nothing, fires nothing. *)
let test_empty_post_many () =
  let db = D.create_db () in
  D.register_class db (D.define_class "c");
  (match D.post_many db [] with
  | _ -> Alcotest.fail "expected Ode_error outside a transaction"
  | exception D.Ode_error _ -> ());
  expect_ok (D.with_txn db (fun _ -> Alcotest.(check int) "no-op batch" 0 (D.post_many db [])))

let suite =
  [
    Alcotest.test_case "store primitives" `Quick test_store_primitives;
    Alcotest.test_case "cardinal and mem" `Quick test_store_layer_cardinal_mem;
    Alcotest.test_case "post_many: a failing batch fails in batch order" `Quick
      test_failing_batch;
    Alcotest.test_case "empty post_many" `Quick test_empty_post_many;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ all_expressions_flat; dfa_rows_equal_tables ]
