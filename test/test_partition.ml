(* Partition equivalence: an oid-sliced engine group must be observably
   identical to the single engine — same firings in the same order, same
   action log, same automaton states, same exact observability counters
   and byte-identical ODE1 images — at any partition count, [post_many]
   batches included, under random schemas and random transaction
   scripts. The generators and runners are shared with test_shard.ml.

   Directed tests cover what the properties cannot see from the facade:
   a cross-partition composite (a database-scope [sequence] whose
   participating objects live on different members, stepped via the
   packed-code forwarding path), [choose n] counting creations across
   members, the partition-transparent image (save at one count, load at
   another), the partitioned WAL (one root log, recovery at any count,
   the older per-member layout refused), the ODE_PARTITIONS selector, the
   config surface, and a batch whose masks fail (same error, same
   automata stepped, at every partition count). *)

open Ode_odb
module D = Database
module TS = Test_shard
module Value = Ode_base.Value
module Symbol = Ode_event.Symbol

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "transaction unexpectedly aborted"

(* Directed tests pin the whole config (environment ignored) so they
   mean the same thing on every CI leg. *)
let cfg ?durability ~partitions () =
  let c = { D.Config.default with D.Config.partitions } in
  match durability with
  | None -> c
  | Some d -> { c with D.Config.durability = d }

let fresh_dir () =
  let d = Filename.temp_file "ode_part" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* The first property runs partitions {1,2,4}; test_shard.ml's
   [Heap = Sharded] covers 3 members. The second runs [post_many] at
   partitions {1,2,3,4,8}. *)
let partitions_transparent =
  QCheck.Test.make ~count:40
    ~name:"partitions 1 = 2 = 4 (firings, states, persist bytes)"
    (QCheck.make ~print:TS.print_case TS.gen_case)
    (fun case ->
      QCheck.assume (List.for_all TS.compiles case.TS.triggers);
      let p1 = TS.run ~partitions:1 case in
      p1 = TS.run ~partitions:2 case && p1 = TS.run ~partitions:4 case)

let post_many_partitions_equal =
  QCheck.Test.make ~count:40
    ~name:"post_many: partitions 1 = 2 = 3 = 4 = 8 (exact counters, persist bytes)"
    (QCheck.make ~print:TS.print_batch_case TS.gen_batch_case)
    (fun case ->
      QCheck.assume (List.for_all TS.compiles case.TS.btriggers);
      let p1 = TS.run_batch ~partitions:1 case in
      List.for_all
        (fun partitions -> p1 = TS.run_batch ~partitions case)
        [ 2; 3; 4; 8 ])

(* ------------------------------------------------------------------ *)
(* A failing batch                                                     *)
(* ------------------------------------------------------------------ *)

(* A batch whose masks fail must fail the same way at every partition
   count: the error is the first failing event's in batch order, and
   exactly the events before it have stepped. Classes [p] and [q] each
   carry a committed-mode counter and a trigger masked on an unbound
   variable; objects 1p 2q 3p 4q. The batch pings 1, 2 and 3, then
   booms 1 (p's mask fails) before q's boom on 2 — so a walk in any
   order but the batch's (say member by member) either names
   [q.bad_q] or leaves a different set of counters stepped. The abort
   then restores every counter. *)
let test_failing_batch_partitions () =
  let drive partitions =
    let db = D.create_db ~config:(cfg ~partitions ()) () in
    let cls name var =
      let b = D.define_class name in
      let b = D.method_ b ~kind:D.Updating "ping" (fun _ _ _ -> Value.Unit) in
      let b = D.method_ b ~kind:D.Updating "boom" (fun _ _ _ -> Value.Unit) in
      let b =
        D.trigger_str b ~perpetual:true ~mode:Ode_event.Detector.Committed "count"
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
    Alcotest.(check bool)
      (Printf.sprintf "abort restores every counter at %d partitions" partitions)
      true
      (states () = before);
    (msg, stepped)
  in
  List.iter
    (fun partitions ->
      let msg, stepped = drive partitions in
      Alcotest.(check string)
        (Printf.sprintf "first failing event in batch order at %d partitions"
           partitions)
        "trigger p.bad_p: mask evaluation failed: unbound variable zzz" msg;
      Alcotest.(check (list bool))
        (Printf.sprintf "exactly the earlier events stepped at %d partitions"
           partitions)
        [ true; true; true; false ] stepped)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Cross-partition composites                                          *)
(* ------------------------------------------------------------------ *)

(* A database-scope [sequence] whose two participating objects live on
   different members: the creation steps the facade-owned automaton
   from the creating member, the deletion from another. Run the same
   script at 1 and 4 partitions; firings, their order and the image
   bytes must agree — and at 4 partitions the two oids must really
   have distinct owners (or the test proves nothing). *)
let test_cross_partition_sequence () =
  let drive partitions =
    let fired = ref [] in
    let db = D.create_db ~config:(cfg ~partitions ()) () in
    D.register_class db (D.define_class "c");
    D.db_trigger_str db ~perpetual:true "seq"
      ~event:"after create ; before delete"
      ~action:(fun _ ctx -> fired := ("seq", ctx.D.fc_oid) :: !fired);
    D.activate_db_trigger db "seq" [];
    D.db_trigger_str db ~perpetual:true "third" ~event:"choose 3 (after create)"
      ~action:(fun _ ctx -> fired := ("third", ctx.D.fc_oid) :: !fired);
    D.activate_db_trigger db "third" [];
    let oids =
      expect_ok
        (D.with_txn db (fun _ -> List.init 4 (fun _ -> D.create db "c" [])))
    in
    (match partitions with
    | 1 -> ()
    | n ->
      (* owner = oid mod n, the Engine_group routing rule *)
      let o1 = List.nth oids 0 and o2 = List.nth oids 1 in
      Alcotest.(check bool)
        "participants live on different members" true
        (o1 mod n <> o2 mod n));
    expect_ok (D.with_txn db (fun _ -> D.delete db (List.nth oids 1)));
    expect_ok (D.with_txn db (fun _ -> ignore (D.create db "c" [])));
    (List.rev !fired, D.image_bytes db)
  in
  let fired1, img1 = drive 1 in
  let fired4, img4 = drive 4 in
  Alcotest.(check bool) "some cross-partition firing" true (fired1 <> []);
  Alcotest.(check bool) "same firings, same order" true (fired1 = fired4);
  Alcotest.(check bool) "byte-identical images" true (String.equal img1 img4)

(* ------------------------------------------------------------------ *)
(* Partition-transparent images                                        *)
(* ------------------------------------------------------------------ *)

(* Save mid-sequence at one partition count, load at another; the
   automaton picks up where it left off and the re-saved bytes are
   unchanged. *)
let test_cross_count_image () =
  let fired = ref 0 in
  let mk partitions =
    let db = D.create_db ~config:(cfg ~partitions ()) () in
    let b = D.define_class "c" in
    let b = D.method_ b ~kind:D.Read_only "f" (fun _ _ _ -> Value.Unit) in
    let b = D.method_ b ~kind:D.Updating "g" (fun _ _ _ -> Value.Unit) in
    let b =
      D.trigger_str b "t" ~event:"after f ; after g" ~action:(fun _ _ ->
          incr fired)
    in
    D.register_class db b;
    db
  in
  let db = mk 3 in
  let oids =
    expect_ok
      (D.with_txn db (fun _ ->
           List.init 5 (fun _ ->
               let oid = D.create db "c" [] in
               D.activate db oid "t" [];
               oid)))
  in
  expect_ok
    (D.with_txn db (fun _ ->
         List.iter (fun oid -> ignore (D.call db oid "f" [])) oids));
  let img = D.image_bytes db in
  let tmp = Filename.temp_file "ode_part" ".img" in
  D.save db tmp;
  List.iter
    (fun partitions ->
      let db2 = mk partitions in
      D.load db2 tmp;
      Alcotest.(check bool)
        (Printf.sprintf "reloaded image identical at %d partitions" partitions)
        true
        (String.equal img (D.image_bytes db2));
      let before = !fired in
      expect_ok
        (D.with_txn db2 (fun _ ->
             List.iter (fun oid -> ignore (D.call db2 oid "g" [])) oids));
      Alcotest.(check int)
        (Printf.sprintf "sequences complete after reload at %d" partitions)
        5 (!fired - before))
    [ 1; 2; 4 ];
  Sys.remove tmp

(* ------------------------------------------------------------------ *)
(* Partitioned WAL                                                     *)
(* ------------------------------------------------------------------ *)

(* The group writes one log, the single-engine log, so a log written
   at 2 partitions recovers at any count: at 1, 2, 3 and 4 to the
   shadow's bytes, and each recovered database then fires like the
   single-engine oracle loaded from the shadow image. *)
let test_wal_group_recover () =
  let dir = fresh_dir () in
  let fired = ref 0 in
  let mk config =
    let db = D.create_db ~config () in
    let b = D.define_class "c" in
    let b = D.field b "n" (Value.Int 0) in
    let b = D.method_ b ~kind:D.Updating "g" (fun _ _ _ -> Value.Unit) in
    let b =
      D.trigger_str b ~perpetual:true "t" ~event:"after g ; after g"
        ~action:(fun _ _ -> incr fired)
    in
    D.register_class db b;
    db
  in
  let db =
    mk
      (cfg ~partitions:2
         ~durability:(`Wal (Wal.config ~flush_ms:0 ~sync_on_flush:false dir))
         ())
  in
  let oids =
    expect_ok
      (D.with_txn db (fun _ ->
           List.init 4 (fun _ ->
               let oid = D.create db "c" [] in
               D.activate db oid "t" [];
               oid)))
  in
  (* work on both members, including an abort and a clock advance *)
  expect_ok
    (D.with_txn db (fun _ ->
         List.iter
           (fun oid ->
             D.set_field db oid "n" (Value.Int oid);
             ignore (D.call db oid "g" []))
           oids));
  let tx = D.begin_txn db in
  ignore (D.call db (List.hd oids) "g" []);
  D.abort db tx;
  D.advance_clock db 50L;
  let shadow = D.image_bytes db in
  D.close_durability db;
  Alcotest.(check (list string)) "one root pair, no member logs or manifest"
    [ "snap-0.ode1"; "wal-0.log" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  let drive db =
    let before = !fired in
    expect_ok
      (D.with_txn db (fun _ ->
           List.iter
             (fun oid ->
               ignore (D.call db oid "g" []);
               ignore (D.call db oid "g" []))
             oids));
    (!fired - before, D.image_bytes db)
  in
  let oracle = mk (cfg ~partitions:1 ()) in
  let tmp = Filename.temp_file "ode_part" ".img" in
  Ode_base.Codec.to_file tmp shadow;
  D.load oracle tmp;
  Sys.remove tmp;
  let expected = drive oracle in
  Alcotest.(check bool) "the oracle fires" true (fst expected > 0);
  List.iter
    (fun partitions ->
      (* recovery re-baselines its directory, so each count recovers
         from its own copy of the written pair *)
      let copy = fresh_dir () in
      List.iter
        (fun f ->
          Ode_base.Codec.to_file (Filename.concat copy f)
            (Ode_base.Codec.of_file (Filename.concat dir f)))
        [ "snap-0.ode1"; "wal-0.log" ];
      let db2 = mk (cfg ~partitions ~durability:(`Wal (Wal.config copy)) ()) in
      D.recover db2;
      Alcotest.(check bool)
        (Printf.sprintf "recovered at %d partitions = shadow" partitions)
        true
        (String.equal (D.image_bytes db2) shadow);
      Alcotest.(check bool)
        (Printf.sprintf "recovered at %d partitions = single-engine oracle" partitions)
        true
        (drive db2 = expected);
      D.close_durability db2)
    [ 1; 2; 3; 4 ]

(* A directory in the older per-member layout — a [group-manifest] and
   [p<k>/] logs, no root pair — is refused at attach and at recover,
   instead of being baselined empty beside the old logs. *)
let test_wal_refuses_member_layout () =
  let dir = fresh_dir () in
  Ode_base.Codec.to_file (Filename.concat dir "group-manifest") "ODEGROUP1 partitions=2\n";
  Unix.mkdir (Wal.member_dir dir 0) 0o755;
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected the old layout to be refused" what
    | exception D.Ode_error msg ->
      let needle = "older layout" in
      let rec has i =
        i + String.length needle <= String.length msg
        && (String.sub msg i (String.length needle) = needle || has (i + 1))
      in
      Alcotest.(check bool) (what ^ ": the error names the old layout") true (has 0)
  in
  let wal = `Wal (Wal.config dir) in
  refused "attach" (fun () -> D.create_db ~config:(cfg ~partitions:2 ~durability:wal ()) ());
  Alcotest.(check (option int)) "attach wrote no generation" None (Wal.latest_gen dir);
  (* recover: a database that attached to a fresh directory, which then
     took the old layout's place *)
  let dir2 = fresh_dir () in
  let db = D.create_db ~config:(cfg ~partitions:2 ~durability:(`Wal (Wal.config dir2)) ()) () in
  Array.iter (fun f -> Sys.remove (Filename.concat dir2 f)) (Sys.readdir dir2);
  Ode_base.Codec.to_file (Filename.concat dir2 "group-manifest") "ODEGROUP1 partitions=2\n";
  refused "recover" (fun () -> D.recover db)

(* ------------------------------------------------------------------ *)
(* Selector and config surface                                         *)
(* ------------------------------------------------------------------ *)

let test_env_selector () =
  let with_env v f =
    let old = Sys.getenv_opt "ODE_PARTITIONS" in
    Unix.putenv "ODE_PARTITIONS" v;
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "ODE_PARTITIONS" (Option.value ~default:"" old))
      f
  in
  with_env "3" (fun () ->
      Alcotest.(check int) "parsed" 3 (D.Config.of_env ()).D.Config.partitions);
  with_env "" (fun () ->
      Alcotest.(check int) "empty = default" 1
        (D.Config.of_env ()).D.Config.partitions);
  with_env "0" (fun () ->
      Alcotest.check_raises "zero rejected"
        (D.Ode_error "ODE_PARTITIONS: partition count must be >= 1 (got 0)")
        (fun () -> ignore (D.Config.of_env ())));
  with_env "zoo" (fun () ->
      Alcotest.check_raises "garbage rejected"
        (D.Ode_error "ODE_PARTITIONS: bad partition count \"zoo\"") (fun () ->
          ignore (D.Config.of_env ())))

let test_config_surface () =
  let db = D.create_db ~config:(cfg ~partitions:2 ()) () in
  Alcotest.(check int) "accessor" 2 (D.partitions db);
  let summary = D.config_summary db in
  let contains needle =
    let nl = String.length needle and hl = String.length summary in
    let rec go i = i + nl <= hl && (String.sub summary i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "summary mentions partitions" true
    (contains "partitions=2");
  Alcotest.(check bool) "summary names no store backend" false
    (contains "backend=");
  let db1 = D.create_db ~config:(cfg ~partitions:1 ()) () in
  Alcotest.(check int) "single engine" 1 (D.partitions db1)

(* Empty post_many: a no-op at the engine layer too — still requires a
   transaction, posts nothing, fires nothing. *)
let test_empty_post_many () =
  let db = D.create_db ~config:(cfg ~partitions:2 ()) () in
  D.register_class db (D.define_class "c");
  (match D.post_many db [] with
  | _ -> Alcotest.fail "expected Ode_error outside a transaction"
  | exception D.Ode_error _ -> ());
  expect_ok
    (D.with_txn db (fun _ ->
         Alcotest.(check int) "no-op batch" 0 (D.post_many db [])))

let suite =
  [
    Alcotest.test_case "cross-partition sequence and choose-n" `Quick
      test_cross_partition_sequence;
    Alcotest.test_case "images are partition-transparent" `Quick
      test_cross_count_image;
    Alcotest.test_case "partitioned WAL recovers, refuses old layout" `Quick
      (fun () ->
        test_wal_group_recover ();
        test_wal_refuses_member_layout ());
    Alcotest.test_case "ODE_PARTITIONS selector" `Quick test_env_selector;
    Alcotest.test_case "config surface" `Quick test_config_surface;
    Alcotest.test_case "empty post_many" `Quick test_empty_post_many;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ partitions_transparent; post_many_partitions_equal ]
  @ [
      Alcotest.test_case "a failing batch fails alike at every count" `Quick
        test_failing_batch_partitions;
    ]
