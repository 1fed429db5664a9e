(* The batch-pipeline workloads and the Store surface. [run] drives
   random schemas under random transaction scripts with commits,
   aborts, deletes and simulated-time advances; [run_batch] drives
   [post_many] batches. Each summarises every observable — firings in
   order, the action log, automaton states, object listings,
   statistics, exact counters and byte-identical ODE1 images — and the
   properties here and in test_partition.ml compare those summaries
   across partition counts. "Heap" below is the single engine,
   "Sharded" an oid-sliced group.

   Directed tests below cover the Store surface ([cardinal]/[mem] and
   the ascending-oid enumeration contract, on one engine and on a
   4-member group), owner routing, an image carried from a group to a
   single engine, and kernel coverage. *)

open Ode_odb
open Ode_event
module D = Database
module Value = Ode_base.Value
module Symbol = Ode_event.Symbol
module P = Ode_lang.Parser

(* ------------------------------------------------------------------ *)
(* Random scripts over several objects                                 *)
(* ------------------------------------------------------------------ *)

type op =
  | Call_f of int
  | Call_g of int * int
  | Set_cm of int * int * bool
  | Reactivate of int * int
  | New_obj
  | Del of int

type script = { ops : op list; commit : bool; advance : int }

type case = {
  (* event, perpetual, committed-mode, witnesses *)
  triggers : (Expr.t * bool * bool * bool) list;
  scripts : script list;
}

let n_objects = 5
let trigger_names case = List.mapi (fun i _ -> Printf.sprintf "t%d" i) case.triggers

(* Build the schema, run every script, and summarise everything the
   partition counts could disagree on. Nothing is sorted: the {e order}
   of firings and logged actions is part of the contract.
   [partitions]: [None] follows the environment (the default, like
   every other test); [Some n] pins an n-member engine group — the
   partition-equivalence properties in test_partition.ml run this same
   workload at several counts and compare. Pinning also pins [`Image]
   durability, so no compared counter depends on when a group-commit
   window happens to flush. *)
let create_db ?partitions () =
  let c = D.Config.of_env () in
  match partitions with
  | None -> D.create_db ~config:c ()
  | Some n ->
    D.create_db
      ~config:{ c with D.Config.partitions = n; durability = `Image }
      ()

let run ?partitions case =
  let log = ref [] in
  let db = create_db ?partitions () in
  let firings_log = ref [] in
  let _sub = D.subscribe_firings db (fun f -> firings_log := f :: !firings_log) in
  D.db_trigger_str db ~perpetual:true "census" ~event:"choose 2 (after create)"
    ~action:(fun _ ctx -> log := ("census", [ ("oid", Value.Int ctx.D.fc_oid) ], None) :: !log);
  D.activate_db_trigger db "census" [];
  let names = trigger_names case in
  let b = D.define_class "c" in
  let b = D.field b "cm0" (Value.Bool true) in
  let b = D.field b "cm1" (Value.Bool true) in
  let b = D.field b "cm2" (Value.Bool true) in
  let b = D.method_ b ~kind:D.Read_only "f" (fun _ _ _ -> Value.Unit) in
  let b = D.method_ b ~kind:D.Updating "g" (fun _ _ _ -> Value.Unit) in
  let b =
    D.trigger b ~perpetual:true "tick"
      ~event:(P.parse_event "every time(MS=100)")
      ~action:(fun _ ctx -> log := ("tick", [ ("oid", Value.Int ctx.D.fc_oid) ], None) :: !log)
  in
  let b =
    List.fold_left2
      (fun b name (event, perpetual, committed, witnesses) ->
        let mode = if committed then Detector.Committed else Detector.Full_history in
        D.trigger b ~perpetual ~mode ~witnesses name ~event ~action:(fun _ ctx ->
            log :=
              (name, List.sort compare ctx.D.fc_collected, ctx.D.fc_witnesses)
              :: !log))
      b names case.triggers
  in
  D.register_class db b;
  let oids =
    match
      D.with_txn db (fun _ ->
          List.init n_objects (fun _ ->
              let oid = D.create db "c" [] in
              List.iter (fun n -> D.activate db oid n []) ("tick" :: names);
              oid))
    with
    | Ok oids -> oids
    | Error `Aborted -> Alcotest.fail "setup transaction aborted"
  in
  let pick i = List.nth oids (i mod n_objects) in
  List.iter
    (fun s ->
      let tx = D.begin_txn db in
      List.iter
        (fun op ->
          match op with
          | Call_f i ->
            if D.exists db (pick i) then ignore (D.call db (pick i) "f" [])
          | Call_g (i, x) ->
            if D.exists db (pick i) then
              ignore (D.call db (pick i) "g" [ Value.Int x ])
          | Set_cm (i, j, v) ->
            if D.exists db (pick i) then
              D.set_field db (pick i) (Printf.sprintf "cm%d" (j mod 3)) (Value.Bool v)
          | Reactivate (i, j) ->
            if D.exists db (pick i) then
              D.activate db (pick i) (List.nth names (j mod List.length names)) []
          | New_obj -> ignore (D.create db "c" [])
          | Del i -> if D.exists db (pick i) then D.delete db (pick i))
        s.ops;
      if s.commit then ignore (D.commit db tx) else D.abort db tx;
      if s.advance > 0 then D.advance_clock db (Int64.of_int s.advance))
    case.scripts;
  let firings =
    List.map
      (fun (f : D.firing) -> (f.D.f_trigger, f.D.f_class, f.D.f_oid, f.D.f_txn))
      (List.rev !firings_log)
  in
  let states =
    List.concat_map
      (fun oid ->
        List.map
          (fun n ->
            let st = try Some (D.trigger_state db oid n) with D.Ode_error _ -> None in
            (oid, n, st, try D.is_active db oid n with D.Ode_error _ -> false))
          ("tick" :: names))
      (List.filter (D.exists db) oids)
  in
  let image =
    let tmp = Filename.temp_file "ode_shard" ".img" in
    D.save db tmp;
    let ic = open_in_bin tmp in
    let len = in_channel_length ic in
    let bytes = really_input_string ic len in
    close_in ic;
    Sys.remove tmp;
    bytes
  in
  ( firings,
    List.rev !log,
    states,
    D.objects db,
    D.objects_of_class db "c",
    D.stats db,
    image )

(* ------------------------------------------------------------------ *)
(* post_many batches                                                   *)
(* ------------------------------------------------------------------ *)

type batch_case = {
  btriggers : (Expr.t * bool * bool * bool) list;
  batch1 : (int * bool * int) list;  (* object index, f-or-g, g's argument *)
  batch2 : (int * bool * int) list;  (* posted in a second, aborted txn *)
}

let n_batch_objects = 8

(* Run both batches through [post_many] — the second in a transaction
   that aborts, exercising the batch's merged undo list — and summarise
   every observable, the exact counters included. *)
let run_batch ?partitions case =
  let log = ref [] in
  let db = create_db ?partitions () in
  D.set_observability db true;
  let firings_log = ref [] in
  let _sub = D.subscribe_firings db (fun f -> firings_log := f :: !firings_log) in
  let names = List.mapi (fun i _ -> Printf.sprintf "t%d" i) case.btriggers in
  let b = D.define_class "c" in
  let b = D.field b "cm0" (Value.Bool true) in
  let b = D.field b "cm1" (Value.Bool true) in
  let b = D.field b "cm2" (Value.Bool true) in
  let b = D.method_ b ~kind:D.Read_only "f" (fun _ _ _ -> Value.Unit) in
  let b = D.method_ b ~kind:D.Updating "g" (fun _ _ _ -> Value.Unit) in
  let b =
    List.fold_left2
      (fun b name (event, perpetual, committed, witnesses) ->
        let mode = if committed then Detector.Committed else Detector.Full_history in
        D.trigger b ~perpetual ~mode ~witnesses name ~event ~action:(fun _ ctx ->
            log :=
              (name, ctx.D.fc_oid, List.sort compare ctx.D.fc_collected)
              :: !log))
      b names case.btriggers
  in
  D.register_class db b;
  let oids =
    match
      D.with_txn db (fun _ ->
          List.init n_batch_objects (fun _ ->
              let oid = D.create db "c" [] in
              List.iter (fun n -> D.activate db oid n []) names;
              oid))
    with
    | Ok oids -> oids
    | Error `Aborted -> Alcotest.fail "setup transaction aborted"
  in
  let to_events batch =
    List.map
      (fun (i, use_f, x) ->
        let oid = List.nth oids (i mod n_batch_objects) in
        if use_f then (oid, Symbol.Method (Symbol.After, "f"), [])
        else (oid, Symbol.Method (Symbol.After, "g"), [ Value.Int x ]))
      batch
  in
  let n1 = ref 0 and n2 = ref 0 in
  (match
     D.with_txn db (fun _ -> n1 := D.post_many db (to_events case.batch1))
   with
  | Ok () -> ()
  | Error `Aborted -> Alcotest.fail "batch transaction aborted");
  let tx = D.begin_txn db in
  n2 := D.post_many db (to_events case.batch2);
  D.abort db tx;
  let states =
    List.concat_map
      (fun oid ->
        List.map (fun n -> (oid, n, D.trigger_state db oid n, D.is_active db oid n)) names)
      oids
  in
  let obs = D.observe db in
  let counters =
    List.map
      (fun c -> (Ode_obs.Registry.counter_name c, Ode_obs.Registry.get obs c))
      Ode_obs.Registry.all_counters
  in
  let firings =
    List.map
      (fun (f : D.firing) -> (f.D.f_trigger, f.D.f_oid, f.D.f_txn))
      (List.rev !firings_log)
  in
  (* the persist image pins the exact post-batch state words: a
     partition count that corrupted even one automaton cell would
     change the bytes *)
  let image =
    let tmp = Filename.temp_file "ode_shard" ".img" in
    D.save db tmp;
    let ic = open_in_bin tmp in
    let len = in_channel_length ic in
    let bytes = really_input_string ic len in
    close_in ic;
    Sys.remove tmp;
    bytes
  in
  ( !n1, !n2, firings, List.rev !log, states, counters,
    Ode_obs.Registry.posts_by_kind obs, image )

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_trigger =
  let open QCheck.Gen in
  let* e = Gen.gen_surface_masked ~max_size:6 () in
  let* perpetual = bool in
  let* committed = bool in
  let* witnesses = bool in
  return (e, perpetual, committed, witnesses)

let gen_op =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun i -> Call_f i) (int_bound (n_objects - 1)));
      (4, map2 (fun i x -> Call_g (i, x)) (int_bound (n_objects - 1)) (int_range (-2) 10));
      (1, map3 (fun i j v -> Set_cm (i, j, v)) (int_bound (n_objects - 1)) (int_bound 2) bool);
      (1, map2 (fun i j -> Reactivate (i, j)) (int_bound (n_objects - 1)) (int_bound 7));
      (1, return New_obj);
      (1, map (fun i -> Del i) (int_bound (n_objects - 1)));
    ]

let gen_script =
  let open QCheck.Gen in
  let* ops = list_size (int_range 1 6) gen_op in
  let* commit = bool in
  let* advance = frequency [ (3, return 0); (1, int_range 1 350) ] in
  return { ops; commit; advance }

let gen_case =
  let open QCheck.Gen in
  map2
    (fun triggers scripts -> { triggers; scripts })
    (list_size (int_range 1 3) gen_trigger)
    (list_size (int_range 1 5) gen_script)

let gen_batch_item =
  let open QCheck.Gen in
  map3
    (fun i use_f x -> (i, use_f, x))
    (int_bound (n_batch_objects - 1))
    bool (int_range (-2) 10)

let gen_batch_case =
  let open QCheck.Gen in
  map3
    (fun btriggers batch1 batch2 -> { btriggers; batch1; batch2 })
    (list_size (int_range 1 3) gen_trigger)
    (list_size (int_range 1 16) gen_batch_item)
    (list_size (int_range 0 12) gen_batch_item)

let pp_trigger ppf (e, p, c, w) =
  Fmt.pf ppf "trigger%s%s%s: %a"
    (if p then " perpetual" else "")
    (if c then " committed" else "")
    (if w then " witnesses" else "")
    Expr.pp e

let pp_op ppf = function
  | Call_f i -> Fmt.pf ppf "o%d.f()" i
  | Call_g (i, x) -> Fmt.pf ppf "o%d.g(%d)" i x
  | Set_cm (i, j, v) -> Fmt.pf ppf "o%d.cm%d := %b" i (j mod 3) v
  | Reactivate (i, j) -> Fmt.pf ppf "o%d reactivate %d" i j
  | New_obj -> Fmt.pf ppf "new"
  | Del i -> Fmt.pf ppf "delete o%d" i

let print_case case =
  Fmt.str "@[<v>%a@,%a@]"
    Fmt.(list pp_trigger)
    case.triggers
    Fmt.(
      list (fun ppf s ->
          Fmt.pf ppf "%s +%dms [%a]"
            (if s.commit then "commit" else "abort")
            s.advance
            (list ~sep:(any "; ") pp_op) s.ops))
    case.scripts

let print_batch_case case =
  Fmt.str "@[<v>%a@,batch1 %a@,batch2 %a@]"
    Fmt.(list pp_trigger)
    case.btriggers
    Fmt.(
      Dump.list (fun ppf (i, f, x) ->
          if f then Fmt.pf ppf "o%d.f" i else Fmt.pf ppf "o%d.g(%d)" i x))
    case.batch1
    Fmt.(
      Dump.list (fun ppf (i, f, x) ->
          if f then Fmt.pf ppf "o%d.f" i else Fmt.pf ppf "o%d.g(%d)" i x))
    case.batch2

let compiles (e, _, committed, _) =
  let mode = if committed then Detector.Committed else Detector.Full_history in
  match Detector.make ~mode e with
  | exception Invalid_argument _ -> false (* state-limit blowup: skip *)
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* The odd member count 3 leaves the owner slices unevenly filled;
   test_partition.ml runs the even counts 2 and 4. *)
let heap_equals_sharded =
  QCheck.Test.make ~count:40 ~name:"Heap = Sharded (firings, states, persist bytes)"
    (QCheck.make ~print:print_case gen_case)
    (fun case ->
      QCheck.assume (List.for_all compiles case.triggers);
      run ~partitions:1 case = run ~partitions:3 case)

(* 8 members (one object each), against the single engine;
   test_partition.ml runs the same batches at partitions 1 to 8. *)
let post_many_members_equal =
  QCheck.Test.make ~count:40 ~name:"post_many: 8 members = Heap"
    (QCheck.make ~print:print_batch_case gen_batch_case)
    (fun case ->
      QCheck.assume (List.for_all compiles case.btriggers);
      run_batch ~partitions:8 case = run_batch ~partitions:1 case)

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

let with_partitions partitions =
  D.create_db ~config:{ (D.Config.of_env ()) with D.Config.partitions } ()

(* [cardinal]/[mem]/enumeration on the two heap layouts — one engine's
   table and a 4-member group's slices: committed deletes keep the
   record (mem true, default cardinal counts it) but leave the live
   count and listings. *)
let test_store_primitives () =
  List.iter
    (fun partitions ->
      let db = with_partitions partitions in
      D.register_class db (simple_class ());
      let oids =
        expect_ok
          (D.with_txn db (fun _ -> List.init 10 (fun _ -> D.create db "c" [])))
      in
      Alcotest.(check (list int)) "ascending enumeration" oids (D.objects db);
      expect_ok (D.with_txn db (fun _ -> D.delete db (List.nth oids 3)));
      let s = D.stats db in
      Alcotest.(check int) "live count after delete" 9 s.D.n_objects;
      Alcotest.(check (list int))
        "listing skips deleted"
        (List.filter (fun o -> o <> List.nth oids 3) oids)
        (D.objects db);
      Alcotest.(check bool) "exists false" false (D.exists db (List.nth oids 3)))
    [ 1; 4 ]

let test_store_layer_cardinal_mem () =
  List.iter
    (fun partitions ->
      let db = Engine_group.make ~partitions () in
      Schema.register_class db (simple_schema_class ());
      let oids =
        expect_ok
          (Txn.with_txn db (fun _ -> List.init 10 (fun _ -> Engine.create db "c" [])))
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
      Alcotest.(check int) "aborted create cardinal" 10 (Store.cardinal db))
    [ 1; 4 ]

(* Owner routing: a monotone oid stream round-robins the members of a
   4-member group, and each object lives in its owner's slice only. *)
let test_shard_partition () =
  let db = Engine_group.make ~partitions:4 () in
  Schema.register_class db (simple_schema_class ());
  Alcotest.(check int) "members" 4 (Types.n_partitions db);
  let oids =
    expect_ok
      (Txn.with_txn db (fun _ -> List.init 8 (fun _ -> Engine.create db "c" [])))
  in
  let members = Store.members db in
  let counts = Array.make 4 0 in
  List.iter
    (fun oid ->
      let k = oid mod 4 in
      Alcotest.(check bool) "owner" true (Types.owner_db db oid == members.(k));
      Array.iteri
        (fun j m ->
          Alcotest.(check bool) "in its owner's slice only" (j = k)
            (Hashtbl.mem m.Types.store.Types.table oid))
        members;
      counts.(k) <- counts.(k) + 1)
    oids;
  Array.iter (fun n -> Alcotest.(check int) "balanced" 2 n) counts;
  let single = Types.make_db () in
  Alcotest.(check int) "one engine is one member" 1 (Types.n_partitions single);
  Alcotest.(check bool) "one engine owns every oid" true
    (Types.owner_db single 17 == single)

(* An image saved mid-sequence from a 4-member group loads into a single
   engine and detection picks up where it left off. *)
let test_cross_backend_image () =
  let fired = ref 0 in
  let mk partitions =
    let db = with_partitions partitions in
    let b = D.define_class "c" in
    let b = D.method_ b ~kind:D.Read_only "f" (fun _ _ _ -> Value.Unit) in
    let b = D.method_ b ~kind:D.Updating "g" (fun _ _ _ -> Value.Unit) in
    let b =
      D.trigger_str b "t" ~event:"after f ; after g" ~action:(fun _ _ -> incr fired)
    in
    D.register_class db b;
    db
  in
  let db = mk 4 in
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "c" [] in
           D.activate db oid "t" [];
           ignore (D.call db oid "f" []);
           oid))
  in
  let tmp = Filename.temp_file "ode_shard" ".img" in
  D.save db tmp;
  let db2 = mk 1 in
  D.load db2 tmp;
  Sys.remove tmp;
  expect_ok (D.with_txn db2 (fun _ -> ignore (D.call db2 oid "g" [])));
  Alcotest.(check int) "sequence completed after reload" 1 !fired

let suite =
  [
    Alcotest.test_case "store primitives on both backends" `Quick test_store_primitives;
    Alcotest.test_case "cardinal and mem" `Quick test_store_layer_cardinal_mem;
    Alcotest.test_case "shard partition" `Quick test_shard_partition;
    Alcotest.test_case "cross-backend image" `Quick test_cross_backend_image;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        heap_equals_sharded;
        all_expressions_flat;
        dfa_rows_equal_tables;
        post_many_members_equal;
      ]
