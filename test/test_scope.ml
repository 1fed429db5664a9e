(* §3 "events have a scope": database-scope triggers, and the §9 recorded
   event histories with their query combinators. *)

open Ode_odb
module D = Database
module Value = Ode_base.Value
module P = Ode_lang.Parser

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "transaction unexpectedly aborted"

let widget_class name =
  D.define_class name
  |> (fun b -> D.field b "n" (Value.Int 0))
  |> fun b ->
  D.method_ b ~kind:D.Updating "poke" (fun _ _ _ -> Value.Unit)

let test_schema_events () =
  let db = D.create_db () in
  let defined = ref [] in
  D.db_trigger_str db ~perpetual:true "schema_watch" ~event:"after defclass"
    ~action:(fun _ ctx ->
      match ctx.D.fc_occurrence.args with
      | [ Value.String name ] -> defined := name :: !defined
      | _ -> ());
  D.activate_db_trigger db "schema_watch" [];
  D.register_class db (widget_class "a");
  D.register_class db (widget_class "b");
  Alcotest.(check (list string)) "classes announced" [ "b"; "a" ] !defined

let test_creation_census () =
  (* the 3rd object created anywhere in the database *)
  let db = D.create_db () in
  let hits = ref [] in
  D.db_trigger_str db ~perpetual:true "third_object" ~event:"choose 3 (after create)"
    ~action:(fun _ ctx -> hits := ctx.D.fc_oid :: !hits);
  D.activate_db_trigger db "third_object" [];
  D.register_class db (widget_class "w");
  let oids =
    expect_ok
      (D.with_txn db (fun _ -> List.init 4 (fun _ -> D.create db "w" [])))
  in
  (match oids with
  | [ _; _; third; _ ] -> Alcotest.(check (list int)) "third object" [ third ] !hits
  | _ -> Alcotest.fail "expected 4 oids");
  (* deletion is observed too *)
  let deleted = ref 0 in
  D.db_trigger_str db ~perpetual:true "grave" ~event:"before delete"
    ~action:(fun _ _ -> incr deleted);
  D.activate_db_trigger db "grave" [];
  expect_ok (D.with_txn db (fun _ -> D.delete db (List.hd oids)));
  Alcotest.(check int) "delete observed" 1 !deleted

let test_db_trigger_masks () =
  (* the mask filters by class name through the occurrence argument *)
  let db = D.create_db () in
  let hits = ref 0 in
  D.db_trigger_str db ~perpetual:true "only_b" ~event:"after create(o, cls) && cls == \"b\""
    ~action:(fun _ _ -> incr hits);
  D.activate_db_trigger db "only_b" [];
  D.register_class db (widget_class "a");
  D.register_class db (widget_class "b");
  expect_ok
    (D.with_txn db (fun _ ->
         ignore (D.create db "a" []);
         ignore (D.create db "b" []);
         ignore (D.create db "a" [])));
  Alcotest.(check int) "only class b counted" 1 !hits

(* --- database-scope witness tracking (§9 provenance at db scope) --- *)

let test_db_witnesses () =
  let db = D.create_db () in
  let seen = ref [] in
  D.db_trigger_str db ~witnesses:true "pairs"
    ~event:"after create(o, cls); after create"
    ~action:(fun _ ctx ->
      match ctx.D.fc_witnesses with
      | Some ws -> seen := ws :: !seen
      | None -> Alcotest.fail "witnesses missing on db-scope trigger");
  (* control: without ~witnesses the context must carry None *)
  D.db_trigger_str db ~perpetual:true "no_wit" ~event:"after create"
    ~action:(fun _ ctx ->
      match ctx.D.fc_witnesses with
      | None -> ()
      | Some _ -> Alcotest.fail "witnesses present without ~witnesses");
  D.activate_db_trigger db "pairs" [];
  D.activate_db_trigger db "no_wit" [];
  D.register_class db (widget_class "w");
  let oids =
    expect_ok (D.with_txn db (fun _ -> List.init 2 (fun _ -> D.create db "w" [])))
  in
  match (!seen, oids) with
  | [ ws ], [ first; _ ] ->
    Alcotest.(check bool) "at least one witness" true (ws <> []);
    Alcotest.(check bool) "first create witnessed" true
      (List.exists
         (fun b ->
           List.assoc_opt "o" b = Some (Value.Oid first)
           && List.assoc_opt "cls" b = Some (Value.String "w"))
         ws)
  | seen, _ -> Alcotest.failf "expected one firing, got %d" (List.length seen)

(* Parity: the [fc_witnesses] a db-scope trigger hands its action must
   equal a reference [Provenance] engine fed the same occurrence stream
   the engine posts ([Oid oid; String cls] arguments, §3 scope events).
   The trigger fires on {e every} relevant occurrence (top-level [|]),
   so each firing exposes the provenance state at that point. *)

type scope_op = Create_a | Create_b | Delete_nth of int

let gen_scope_ops =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (frequency
         [
           (3, return Create_a);
           (3, return Create_b);
           (2, map (fun i -> Delete_nth i) (int_bound 11));
         ]))

let null_env : Ode_event.Mask.env =
  {
    var = (fun _ -> None);
    deref = (fun _ _ -> None);
    call = (fun _ _ -> raise (Ode_event.Mask.Eval_error "no functions"));
  }

let db_witness_parity =
  QCheck.Test.make ~count:60 ~name:"db-scope witnesses = reference provenance"
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; "
           (List.map
              (function
                | Create_a -> "create a"
                | Create_b -> "create b"
                | Delete_nth i -> Printf.sprintf "delete #%d" i)
              ops))
       gen_scope_ops)
    (fun ops ->
      let event = "after create(o, cls) | before delete(o2, cls2)" in
      let db = D.create_db () in
      let got = ref [] in
      D.db_trigger_str db ~perpetual:true ~witnesses:true "watch" ~event
        ~action:(fun _ ctx ->
          match ctx.D.fc_witnesses with
          | Some ws -> got := ws :: !got
          | None -> Alcotest.fail "witnesses missing");
      D.activate_db_trigger db "watch" [];
      D.register_class db (widget_class "a");
      D.register_class db (widget_class "b");
      (* the engine's stream, replayed for the reference *)
      let stream = ref [] in
      let live = ref [] in  (* oids in creation order, still live *)
      expect_ok
        (D.with_txn db (fun _ ->
             List.iter
               (fun op ->
                 match op with
                 | Create_a | Create_b ->
                   let cls = if op = Create_a then "a" else "b" in
                   let oid = D.create db cls [] in
                   live := !live @ [ (oid, cls) ];
                   stream :=
                     (Ode_event.Symbol.Create,
                      [ Value.Oid oid; Value.String cls ])
                     :: !stream
                 | Delete_nth i -> (
                   match List.nth_opt !live i with
                   | None -> ()
                   | Some (oid, cls) ->
                     live := List.filter (fun (o, _) -> o <> oid) !live;
                     D.delete db oid;
                     stream :=
                       (Ode_event.Symbol.Delete,
                        [ Value.Oid oid; Value.String cls ])
                       :: !stream))
               ops));
      let expr =
        match Ode_lang.Parser.event_of_string event with
        | Ok e -> e
        | Error msg -> Alcotest.failf "parse: %s" msg
      in
      let prov = Ode_event.Provenance.make expr in
      let expected =
        List.filter_map
          (fun (basic, args) ->
            match
              Ode_event.Provenance.post prov ~env:null_env
                { Ode_event.Symbol.basic; args; at = 0L }
            with
            | [] -> None
            | ws -> Some ws)
          (List.rev !stream)
      in
      List.rev !got = expected)

(* --- the database scope's observable contract ---------------------- *)

module Obs = Ode_obs.Registry
module Trace = Ode_obs.Trace

let scope_db ~partitions =
  D.create_db
    ~config:{ (D.Config.of_env ()) with D.Config.partitions; durability = `Image }
    ()

let expect_ode_error msg f =
  match f () with
  | _ -> Alcotest.failf "expected Ode_error %S" msg
  | exception D.Ode_error got -> Alcotest.(check string) "error" msg got

(* Three active database triggers and one declared but never activated
   (sharing [census]'s event, so its detector): one [after defclass],
   three [after create], two [before delete] posts. The class has no
   triggers, so the object-scope posts of the same transactions add
   nothing to the pipeline counters below. *)
let test_db_counters partitions () =
  let db = scope_db ~partitions in
  let on ev name perpetual =
    D.db_trigger_str db ~perpetual name ~event:ev ~action:(fun _ _ -> ())
  in
  on "after create" "census" true;
  on "after defclass" "schema" true;
  on "before delete" "grave" false;
  on "after create" "idle" true;
  List.iter (fun t -> D.activate_db_trigger db t []) [ "census"; "schema"; "grave" ];
  D.set_observability db true;
  D.register_class db (widget_class "w");
  let oids =
    expect_ok (D.with_txn db (fun _ -> List.init 3 (fun _ -> D.create db "w" [])))
  in
  expect_ok
    (D.with_txn db (fun _ ->
         D.delete db (List.nth oids 0);
         D.delete db (List.nth oids 1)));
  let r = D.observe db in
  let check name want c = Alcotest.(check int) name want (Obs.get r c) in
  check "db posts" 6 Obs.Db_posts;
  (* defclass 1 + creates 3 + the first delete 1; the second delete
     finds [grave] already spent *)
  check "classified" 5 Obs.Classified;
  (* the active triggers each post's row passes over: 2 + 3*2 + 2 + 2 *)
  check "index skipped" 12 Obs.Index_skipped;
  check "transitions" 5 Obs.Transitions;
  check "firings" 5 Obs.Firings

let test_db_spans_and_txn () =
  let db = scope_db ~partitions:1 in
  let firings = ref [] in
  let _ = D.subscribe_firings db (fun f -> firings := f :: !firings) in
  D.db_trigger_str db ~perpetual:true "schema" ~event:"after defclass"
    ~action:(fun _ _ -> ());
  D.db_trigger_str db ~perpetual:true "census" ~event:"after create"
    ~action:(fun _ _ -> ());
  D.activate_db_trigger db "schema" [];
  D.activate_db_trigger db "census" [];
  D.set_observability db true;
  D.register_class db (widget_class "w");
  let tx = D.begin_txn db in
  let oid = D.create db "w" [] in
  (match D.commit db tx with Ok () -> () | Error `Aborted -> Alcotest.fail "abort");
  (match List.rev !firings with
  | [ f1; f2 ] ->
    Alcotest.(check (list string)) "triggers" [ "schema"; "census" ]
      [ f1.D.f_trigger; f2.D.f_trigger ];
    Alcotest.(check (list string)) "class" [ "<database>"; "<database>" ]
      [ f1.D.f_class; f2.D.f_class ];
    Alcotest.(check int) "defclass outside a transaction" 0 f1.D.f_txn;
    Alcotest.(check int) "create inside one" (D.txn_id tx) f2.D.f_txn;
    Alcotest.(check int) "affected oid" oid f2.D.f_oid
  | fs -> Alcotest.failf "expected 2 firings, got %d" (List.length fs));
  let spans = Trace.spans (Obs.trace (D.observe db)) in
  let db_triggers = [ "schema"; "census" ] in
  let posted = ref 0 and advanced = ref 0 and fired = ref [] and ran = ref 0 in
  List.iter
    (function
      | Trace.Posted { scope = Trace.Db; _ } -> incr posted
      | Trace.Advanced { scope; trigger; _ } when List.mem trigger db_triggers ->
        Alcotest.(check bool) "advance at database scope" true (scope = Trace.Db);
        incr advanced
      | Trace.Fired { scope; trigger; txn; _ } when List.mem trigger db_triggers ->
        Alcotest.(check bool) "firing at database scope" true (scope = Trace.Db);
        fired := (trigger, txn) :: !fired
      | Trace.Action_ran { scope; trigger; _ } when List.mem trigger db_triggers ->
        Alcotest.(check bool) "action at database scope" true (scope = Trace.Db);
        incr ran
      | _ -> ())
    spans;
  Alcotest.(check int) "db posted spans" 2 !posted;
  Alcotest.(check int) "db advanced spans" 2 !advanced;
  Alcotest.(check int) "db action spans" 2 !ran;
  Alcotest.(check (list (pair string int))) "fired spans carry the txn"
    [ ("schema", 0); ("census", D.txn_id tx) ] (List.rev !fired)

(* A one-shot deactivates when it fires; re-activating it resets its
   automaton and its witnesses. *)
let test_db_one_shot_rearm () =
  let db = scope_db ~partitions:1 in
  let hits = ref [] in
  D.db_trigger_str db ~witnesses:true "second" ~event:"choose 2 (after create(o, cls))"
    ~action:(fun _ ctx -> hits := (ctx.D.fc_oid, ctx.D.fc_witnesses) :: !hits);
  D.register_class db (widget_class "w");
  let create () = expect_ok (D.with_txn db (fun _ -> D.create db "w" [])) in
  D.activate_db_trigger db "second" [];
  let _ = create () in
  let o2 = create () in
  let _ = create () in
  Alcotest.(check (list int)) "fires once, on the second create" [ o2 ]
    (List.map fst !hits);
  (* re-activation after one more create: the count starts over *)
  D.activate_db_trigger db "second" [];
  let o4 = create () in
  Alcotest.(check int) "state was reset" 1 (List.length !hits);
  let o5 = create () in
  (match !hits with
  | (oid, Some ws) :: _ ->
    Alcotest.(check int) "fires on the second create since re-activation" o5 oid;
    let seen =
      List.concat_map
        (fun b -> match List.assoc_opt "o" b with Some (Value.Oid o) -> [ o ] | _ -> [])
        ws
    in
    Alcotest.(check bool) "witnessed" true (seen <> []);
    Alcotest.(check bool) "witnesses start at the re-activation" true
      (List.for_all (fun o -> o = o4 || o = o5) seen)
  | _ -> Alcotest.fail "expected a witnessed second firing");
  ignore (create ());
  Alcotest.(check int) "deactivated again" 2 (List.length !hits);
  (* explicit deactivation *)
  D.activate_db_trigger db "second" [];
  D.deactivate_db_trigger db "second";
  ignore (create ());
  ignore (create ());
  Alcotest.(check int) "deactivated by hand" 2 (List.length !hits)

(* Declaring a trigger after another was activated and advanced leaves
   the older one's automaton where it was. *)
let test_db_late_declaration () =
  let db = scope_db ~partitions:1 in
  let hits = ref [] in
  let note name = fun _ _ -> hits := name :: !hits in
  D.db_trigger_str db ~perpetual:true "third" ~event:"choose 3 (after create)"
    ~action:(note "third");
  D.activate_db_trigger db "third" [];
  D.register_class db (widget_class "w");
  let create () = ignore (expect_ok (D.with_txn db (fun _ -> D.create db "w" []))) in
  create ();
  create ();
  D.db_trigger_str db ~perpetual:true "each" ~event:"after create" ~action:(note "each");
  D.activate_db_trigger db "each" [];
  create ();
  Alcotest.(check (list string)) "older trigger kept its count" [ "third"; "each" ]
    (List.rev !hits)

let test_db_errors () =
  let db = scope_db ~partitions:1 in
  D.db_trigger_str db "dup" ~event:"after create" ~action:(fun _ _ -> ());
  expect_ode_error "database trigger dup already defined" (fun () ->
      D.db_trigger_str db "dup" ~event:"after defclass" ~action:(fun _ _ -> ()));
  expect_ode_error "no database trigger nope" (fun () ->
      D.activate_db_trigger db "nope" []);
  (* a mask failure names the first active trigger using the detector *)
  let bad = "after create && zzz == 1" in
  D.db_trigger_str db "m1" ~event:bad ~action:(fun _ _ -> ());
  D.db_trigger_str db "m2" ~event:bad ~action:(fun _ _ -> ());
  D.activate_db_trigger db "m2" [];
  D.register_class db (widget_class "w");
  expect_ode_error "database trigger m2: mask evaluation failed: unbound variable zzz"
    (fun () -> D.with_txn db (fun _ -> D.create db "w" []));
  D.activate_db_trigger db "m1" [];
  expect_ode_error "database trigger m1: mask evaluation failed: unbound variable zzz"
    (fun () -> D.with_txn db (fun _ -> D.create db "w" []))

(* Timers are armed per object: a time event at database scope would be
   accepted and never fire, so it is rejected when declared. *)
let test_db_time_event_rejected () =
  let db = scope_db ~partitions:1 in
  let msg = "database trigger tick: time events need an object scope" in
  expect_ode_error msg (fun () ->
      D.db_trigger db ~perpetual:true "tick"
        ~event:(P.parse_event "every time(MS=100)")
        ~action:(fun _ _ -> ()));
  expect_ode_error msg (fun () ->
      D.db_trigger_str db "tick" ~event:"after create; after time(MS=100)"
        ~action:(fun _ _ -> ()));
  expect_ode_error "no database trigger tick" (fun () ->
      D.activate_db_trigger db "tick" []);
  Alcotest.(check int) "no timer armed" 0 (D.stats db).D.n_timers

(* The database scope is posted [after defclass], [after create] and
   [before delete] only: a trigger on any other event would be
   accepted and never fire, so it is rejected when declared. *)
let test_db_unposted_event_rejected () =
  let db = scope_db ~partitions:1 in
  expect_ode_error
    "database trigger tc: after tcommit is never posted at database scope"
    (fun () ->
      D.db_trigger_str db "tc" ~event:"after tcommit" ~action:(fun _ _ -> ()));
  expect_ode_error "database trigger m: after m is never posted at database scope"
    (fun () -> D.db_trigger_str db "m" ~event:"after m" ~action:(fun _ _ -> ()));
  expect_ode_error
    "database trigger mixed: before tabort is never posted at database scope"
    (fun () ->
      D.db_trigger_str db "mixed" ~event:"after create; before tabort"
        ~action:(fun _ _ -> ()));
  List.iter
    (fun name ->
      expect_ode_error ("no database trigger " ^ name) (fun () ->
          D.activate_db_trigger db name []))
    [ "tc"; "m"; "mixed" ];
  (* the three posted events are still accepted *)
  D.db_trigger_str db "ok" ~event:"after defclass | after create | before delete"
    ~action:(fun _ _ -> ());
  D.activate_db_trigger db "ok" []

(* [<database>] names the database scope's class: a user class of that
   name would have its triggers reported as database triggers. *)
let test_db_class_name_reserved () =
  let db = scope_db ~partitions:1 in
  expect_ode_error "class <database>: the name is reserved for the database scope"
    (fun () -> D.register_class db (widget_class "<database>"))

let test_history_recording () =
  let db = D.create_db ~config:{ (D.Config.of_env ()) with D.Config.start_time = 1000L } () in
  D.enable_history db ~limit:100;
  D.register_class db (widget_class "w");
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "w" [] in
           ignore (D.call db oid "poke" []);
           oid))
  in
  let h = D.object_history db oid in
  (* tbegin, create, baccess, bupdate, bpoke, apoke, aupdate, aaccess,
     btcomplete, then tcommit from the system txn *)
  Alcotest.(check int) "all events recorded" 10 (List.length h);
  Alcotest.(check int) "one poke pair" 2 (List.length (History.methods_named "poke" h));
  Alcotest.(check int) "transactional events" 3 (List.length (History.transactional h));
  (match History.last (fun _ -> true) h with
  | Some r ->
    Alcotest.(check bool)
      "last is tcommit" true
      (r.History.h_occurrence.Ode_event.Symbol.basic = Ode_event.Symbol.Tcommit)
  | None -> Alcotest.fail "history is empty");
  (* aborted work stays in the true history (§6) *)
  let tx = D.begin_txn db in
  ignore (D.call db oid "poke" []);
  D.abort db tx;
  let h2 = D.object_history db oid in
  Alcotest.(check bool)
    "aborted poke recorded" true
    (List.length (History.methods_named "poke" h2) = 4);
  Alcotest.(check int)
    "abort events recorded" 2
    (History.count
       (fun r ->
         match r.History.h_occurrence.Ode_event.Symbol.basic with
         | Ode_event.Symbol.Tabort _ -> true
         | _ -> false)
       h2)

let test_history_limit () =
  let db = D.create_db () in
  D.enable_history db ~limit:5;
  D.register_class db (widget_class "w");
  let oid = expect_ok (D.with_txn db (fun _ -> D.create db "w" [])) in
  for _ = 1 to 10 do
    expect_ok (D.with_txn db (fun _ -> ignore (D.call db oid "poke" [])))
  done;
  Alcotest.(check int) "bounded" 5 (List.length (D.object_history db oid))

let test_history_off_by_default () =
  let db = D.create_db () in
  D.register_class db (widget_class "w");
  let oid = expect_ok (D.with_txn db (fun _ -> D.create db "w" [])) in
  Alcotest.(check int) "no recording" 0 (List.length (D.object_history db oid))

let test_object_listing () =
  let db = D.create_db () in
  D.register_class db (widget_class "a");
  D.register_class db (widget_class "b");
  let oids =
    expect_ok
      (D.with_txn db (fun _ ->
           let x = D.create db "a" [] in
           let y = D.create db "b" [] in
           let z = D.create db "a" [] in
           [ x; y; z ]))
  in
  (match oids with
  | [ x; y; z ] ->
    Alcotest.(check (list int)) "all objects" [ x; y; z ] (D.objects db);
    Alcotest.(check (list int)) "by class" [ x; z ] (D.objects_of_class db "a");
    expect_ok (D.with_txn db (fun _ -> D.delete db y));
    Alcotest.(check (list int)) "deleted objects drop out" [ x; z ] (D.objects db)
  | _ -> Alcotest.fail "expected 3 oids")

let test_history_queries () =
  let db = D.create_db ~config:{ (D.Config.of_env ()) with D.Config.start_time = 100L } () in
  D.enable_history db ~limit:100;
  D.register_class db (widget_class "w");
  let oid = expect_ok (D.with_txn db (fun _ -> D.create db "w" [])) in
  D.advance_clock db 900L;
  let tx = D.begin_txn db in
  let id = D.txn_id tx in
  ignore (D.call db oid "poke" []);
  (match D.commit db tx with Ok () -> () | Error `Aborted -> Alcotest.fail "abort");
  let h = D.object_history db oid in
  Alcotest.(check bool) "in_txn selects the poke txn" true
    (List.length (History.in_txn id h) > 0);
  Alcotest.(check int) "between selects by timestamp"
    (List.length (History.in_txn id h) + 1 (* + the system tcommit at t=1000 *))
    (List.length (History.between ~since:1000L ~until:2000L h));
  let total = History.fold (fun acc _ -> acc + 1) 0 h in
  Alcotest.(check int) "fold covers everything" (List.length h) total

let suite =
  [
    Alcotest.test_case "schema events" `Quick test_schema_events;
    Alcotest.test_case "creation census" `Quick test_creation_census;
    Alcotest.test_case "db-scope masks" `Quick test_db_trigger_masks;
    Alcotest.test_case "db-scope witnesses" `Quick test_db_witnesses;
    QCheck_alcotest.to_alcotest db_witness_parity;
    Alcotest.test_case "db-scope counters, 1 partition" `Quick (test_db_counters 1);
    Alcotest.test_case "db-scope counters, 3 partitions" `Quick (test_db_counters 3);
    Alcotest.test_case "db-scope spans and txn ids" `Quick test_db_spans_and_txn;
    Alcotest.test_case "db-scope one-shot and re-activation" `Quick test_db_one_shot_rearm;
    Alcotest.test_case "db-scope late declaration" `Quick test_db_late_declaration;
    Alcotest.test_case "db-scope errors" `Quick test_db_errors;
    Alcotest.test_case "db-scope time events rejected" `Quick test_db_time_event_rejected;
    Alcotest.test_case "db-scope unposted events rejected" `Quick
      test_db_unposted_event_rejected;
    Alcotest.test_case "database class name reserved" `Quick test_db_class_name_reserved;
    Alcotest.test_case "history recording (§9)" `Quick test_history_recording;
    Alcotest.test_case "history limit" `Quick test_history_limit;
    Alcotest.test_case "history off by default" `Quick test_history_off_by_default;
    Alcotest.test_case "object listings" `Quick test_object_listing;
    Alcotest.test_case "history queries" `Quick test_history_queries;
  ]
