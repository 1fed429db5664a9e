(* §6, theory meets implementation: for a Committed-mode trigger, the
   database restores detection state from its undo log on abort. The
   resulting state must equal what a fresh detector computes over the
   committed projection of the object's recorded (true, §6) history —
   exactly the equivalence the paper's A/A' argument rests on. *)

module D = Ode_odb.Database
module Value = Ode_base.Value
module History = Ode_odb.History
open Ode_event

type txn_op = T_call of string | T_commit | T_abort

let gen_workload : txn_op list list QCheck.Gen.t =
  let open QCheck.Gen in
  list_size (int_range 1 12)
    (let* body = list_size (int_range 1 4) (oneofl [ T_call "m"; T_call "x" ]) in
     let* commits = frequencyl [ (7, T_commit); (3, T_abort) ] in
     return (body @ [ commits ]))

(* trigger events exercising counting, adjacency and windows *)
let trigger_events =
  [
    "choose 3 (after m)";
    "every 2 (after m)";
    "after m; after m";
    "relative(after x, choose 2 (after m))";
    "prior(after x, after m)";
  ]

let schema event =
  D.define_class "c"
  |> (fun b -> D.method_ b ~kind:D.Updating "m" (fun _ _ _ -> Value.Unit))
  |> (fun b -> D.method_ b ~kind:D.Updating "x" (fun _ _ _ -> Value.Unit))
  |> fun b ->
  D.trigger b ~perpetual:true ~mode:Detector.Committed "t"
    ~event:(Ode_lang.Parser.parse_event event)
    ~action:(fun _ _ -> ())

(* Committed projection of a recorded history: drop every record of a
   transaction that aborted (it has a Tabort record). System transactions
   (the tcommit/tabort posters) are kept. *)
let committed_projection (h : History.t) =
  let aborted =
    List.filter_map
      (fun (r : History.record) ->
        match r.h_occurrence.Symbol.basic with
        | Symbol.Tabort _ -> Some r.h_txn
        | _ -> None)
      h
  in
  List.filter
    (fun (r : History.record) ->
      (not (List.mem r.h_txn aborted))
      &&
      match r.h_occurrence.Symbol.basic with
      | Symbol.Tabort _ -> false
      | _ -> true)
    h

let integration =
  QCheck.Test.make ~count:200
    ~name:"committed-mode state = fresh run over the committed projection (§6)"
    (QCheck.make
       ~print:(fun (event, txns) ->
         Fmt.str "%s over %d txns" event (List.length txns))
       QCheck.Gen.(
         let* event = oneofl trigger_events in
         let* txns = gen_workload in
         return (event, txns)))
    (fun (event, txns) ->
      let db = D.create_db () in
      D.enable_history db ~limit:10_000;
      D.register_class db (schema event);
      let oid =
        match
          D.with_txn db (fun _ ->
              let oid = D.create db "c" [] in
              D.activate db oid "t" [];
              oid)
        with
        | Ok oid -> oid
        | Error `Aborted -> Alcotest.fail "setup aborted"
      in
      (* the history the reference must replay starts after activation:
         drop everything recorded so far *)
      let skip = List.length (D.object_history db oid) in
      List.iter
        (fun ops ->
          let tx = D.begin_txn db in
          List.iter
            (function
              | T_call name -> ignore (D.call db oid name [])
              | T_commit | T_abort -> ())
            ops;
          match List.rev ops with
          | T_abort :: _ -> D.abort db tx
          | _ -> ignore (D.commit db tx))
        txns;
      let final_state = D.trigger_state db oid "t" in
      (* reference: fresh detector over the committed projection *)
      let det = Detector.make (Ode_lang.Parser.parse_event event) in
      let state = Detector.initial det in
      let history = D.object_history db oid in
      let relevant = List.filteri (fun i _ -> i >= skip) history in
      List.iter
        (fun (r : History.record) ->
          ignore (Detector.post det state ~env:Mask.empty_env r.History.h_occurrence))
        (committed_projection relevant);
      if final_state <> state then
        QCheck.Test.fail_reportf "state %a, reference %a"
          Fmt.(Dump.array int)
          final_state
          Fmt.(Dump.array int)
          state
      else true)

(* --- interleaved transactions ------------------------------------- *)

(* A [Committed] activation's words are object data under two-phase
   locking: the first transaction to advance them holds the object's
   write lock until it ends, so a second transaction cannot advance
   words the first one's abort would then restore over its advance. *)

let interleaved_schema event =
  D.define_class "c"
  |> (fun b -> D.method_ b ~kind:D.Read_only "m" (fun _ _ _ -> Value.Unit))
  |> (fun b -> D.method_ b ~kind:D.Updating "x" (fun _ _ _ -> Value.Unit))
  |> fun b ->
  D.trigger b ~perpetual:true ~mode:Detector.Committed "t"
    ~event:(Ode_lang.Parser.parse_event event)
    ~action:(fun _ _ -> ())

let interleaved_db event =
  let db = D.create_db () in
  D.register_class db (interleaved_schema event);
  let oid =
    match
      D.with_txn db (fun _ ->
          let oid = D.create db "c" [] in
          D.activate db oid "t" [];
          oid)
    with
    | Ok oid -> oid
    | Error `Aborted -> Alcotest.fail "setup aborted"
  in
  (db, oid)

(* T1 calls the read-only [m], T2 calls [m], T1 aborts, T2 commits.
   Without the lock T2 counted T1's uncommitted event and T1's abort
   then erased T2's advance, leaving [0] where a serial run of T2 alone
   gives [1]. With it, T2's call conflicts, and T2 retried after T1's
   abort counts once. *)
let test_interleaved_abort () =
  let db, oid = interleaved_db "choose 3 (after m)" in
  let state () = D.trigger_state db oid "t" in
  let t1 = D.begin_txn db in
  ignore (D.call db oid "m" []);
  Alcotest.(check (array int)) "T1 counted its call" [| 1 |] (state ());
  let t2 = D.begin_txn db in
  let conflicted =
    match D.call db oid "m" [] with
    | _ -> false
    | exception D.Lock_conflict o -> o = oid
  in
  Alcotest.(check bool) "T2's call conflicts with T1's advance" true conflicted;
  D.switch_txn db t1;
  D.abort db t1;
  Alcotest.(check (array int)) "T1's abort restores the committed state" [| 0 |]
    (state ());
  D.switch_txn db t2;
  ignore (D.call db oid "m" []);
  (match D.commit db t2 with
  | Ok () -> ()
  | Error `Aborted -> Alcotest.fail "T2 aborted");
  Alcotest.(check (array int)) "= a serial run of T2 alone" [| 1 |] (state ())

(* (De)activation writes the same words: T1 re-activates (resetting
   the count) or deactivates, T2 calls [m], T1 aborts. Without the lock
   T2's call went through and committed, and T1's abort restored the
   words over it, leaving [0] where a serial run of T2 alone gives
   [1]. With it, T2's call conflicts, and T2 retried after T1's abort
   counts once. *)
let test_interleaved_activation () =
  List.iter
    (fun (what, t1_op) ->
      let db, oid = interleaved_db "choose 3 (after m)" in
      let state () = D.trigger_state db oid "t" in
      let t1 = D.begin_txn db in
      t1_op db oid;
      let t2 = D.begin_txn db in
      let conflicted =
        match D.call db oid "m" [] with
        | _ -> false
        | exception D.Lock_conflict o -> o = oid
      in
      Alcotest.(check bool) ("T2's call conflicts with T1's " ^ what) true conflicted;
      D.switch_txn db t1;
      D.abort db t1;
      D.switch_txn db t2;
      ignore (D.call db oid "m" []);
      (match D.commit db t2 with
      | Ok () -> ()
      | Error `Aborted -> Alcotest.fail "T2 aborted");
      Alcotest.(check (array int))
        ("after T1's aborted " ^ what ^ " = a serial run of T2 alone")
        [| 1 |] (state ()))
    [
      ("re-activation", fun db oid -> D.activate db oid "t" []);
      ("deactivation", fun db oid -> D.deactivate db oid "t");
    ]

type iop = I_call of int * string | I_commit of int | I_abort of int

(* 2-3 transaction slots stepped in a random interleaving. A call on a
   slot with no open transaction begins one; a call that raises
   [Lock_conflict] aborts its transaction, as [with_txn] does; every
   transaction still open at the end commits. The committed-mode state
   must equal a fresh detector over the committed projection of the
   recorded history. *)
let interleaved =
  QCheck.Test.make ~count:300
    ~name:"interleaved txns: committed-mode state = committed projection"
    (QCheck.make
       ~print:(fun (event, ops) ->
         Fmt.str "%s: %s" event
           (String.concat "; "
              (List.map
                 (function
                   | I_call (k, m) -> Printf.sprintf "T%d.%s" k m
                   | I_commit k -> Printf.sprintf "commit T%d" k
                   | I_abort k -> Printf.sprintf "abort T%d" k)
                 ops)))
       QCheck.Gen.(
         let* event = oneofl trigger_events in
         let* slots = int_range 2 3 in
         let slot = int_bound (slots - 1) in
         let* ops =
           list_size (int_range 1 16)
             (frequency
                [
                  (5, map2 (fun k m -> I_call (k, m)) slot (oneofl [ "m"; "m"; "x" ]));
                  (2, map (fun k -> I_commit k) slot);
                  (2, map (fun k -> I_abort k) slot);
                ])
         in
         return (event, ops)))
    (fun (event, ops) ->
      let db, oid = interleaved_db event in
      D.enable_history db ~limit:10_000;
      let open_txns = Array.make 3 None in
      let with_slot k f =
        let tx =
          match open_txns.(k) with
          | Some tx -> tx
          | None ->
            let tx = D.begin_txn db in
            open_txns.(k) <- Some tx;
            tx
        in
        D.switch_txn db tx;
        f tx
      in
      let finish k fin =
        match open_txns.(k) with
        | Some tx ->
          open_txns.(k) <- None;
          fin tx
        | None -> ()
      in
      List.iter
        (function
          | I_call (k, m) -> (
            with_slot k @@ fun _ ->
            match D.call db oid m [] with
            | _ -> ()
            | exception D.Lock_conflict _ -> finish k (D.abort db))
          | I_commit k -> finish k (fun tx -> ignore (D.commit db tx))
          | I_abort k -> finish k (D.abort db))
        ops;
      Array.iteri (fun k _ -> finish k (fun tx -> ignore (D.commit db tx))) open_txns;
      let final_state = D.trigger_state db oid "t" in
      let det = Detector.make (Ode_lang.Parser.parse_event event) in
      let state = Detector.initial det in
      List.iter
        (fun (r : History.record) ->
          ignore (Detector.post det state ~env:Mask.empty_env r.History.h_occurrence))
        (committed_projection (D.object_history db oid));
      if final_state <> state then
        QCheck.Test.fail_reportf "state %a, reference %a"
          Fmt.(Dump.array int)
          final_state
          Fmt.(Dump.array int)
          state
      else true)

let suite =
  Alcotest.test_case "interleaved abort: T2 conflicts, then counts once" `Quick
    test_interleaved_abort
  :: Alcotest.test_case "interleaved (de)activation: T2 conflicts, then counts once"
       `Quick test_interleaved_activation
  :: List.map QCheck_alcotest.to_alcotest [ integration; interleaved ]
