(* The posting kernel against a reference model.

   Every post runs the compiled kernel: per-class candidate rows (the
   dispatch index), packed classification codes, flat-table stepping
   over the SoA detection state. [Ref_poster] restates the same
   contract by brute force — every active trigger stepped through its
   own word vector with [Detector.post] — and the engine-level property
   drives both with one random schema (masked composite events,
   one-shot/perpetual, committed-mode, witness-tracking triggers, and
   one to three database-scope triggers drawn from a small event pool,
   one-shot or perpetual, some tracking witnesses, often sharing a
   detector) under random transaction scripts with
   commits and aborts, comparing firings, collected §9 bindings,
   witnesses, automaton states and activation flags.

   [kernel_codes_match_semantics] and [masked_slots_match_semantics]
   additionally pin the kernel's classify/step primitives
   ([Detector.classify_code] / [post_code] on a slot inside a larger
   block) directly against the §4 denotational semantics, so the
   engine-level property cannot pass by both sides sharing a broken
   detector. *)

open Ode_odb
open Ode_event
module D = Database
module Value = Ode_base.Value

type op =
  | Call_f
  | Call_g0
  | Call_g1 of int
  | Set_cm of int * bool
  | Reactivate of int
  | New_obj

type script = { ops : op list; commit : bool }

type case = {
  (* event, perpetual, committed-mode, witnesses *)
  triggers : (Expr.t * bool * bool * bool) list;
  (* database scope: event, perpetual, witnesses (always Full_history) *)
  db_triggers : (Expr.t * bool * bool) list;
  scripts : script list;
}

let trigger_names case = List.mapi (fun i _ -> Printf.sprintf "t%d" i) case.triggers
let db_trigger_names case = List.mapi (fun i _ -> Printf.sprintf "d%d" i) case.db_triggers

module R = Ref_poster

(* Database-scope events over what that scope posts ([after defclass],
   [after create(oid, class)]): a small pool, so drawn triggers often
   share an event and so a detector. *)
let db_events =
  List.map Ode_lang.Parser.parse_event
    [
      "choose 2 (after create)";
      "after create(o, cls)";
      "every 2 (after create(o, cls))";
      "after defclass | after create(o, cls) && cls == \"c\"";
      "relative(after defclass, after create)";
    ]
let cm_fields = [ ("cm0", Value.Bool true); ("cm1", Value.Bool true); ("cm2", Value.Bool true) ]

(* The observables a posting path could get wrong: firings, the action
   log, and every trigger's automaton state and activation flag. Firings
   and the log are sorted — the comparison is insensitive to the order
   of same-occurrence firings. *)
let summarise ~firings ~log ~states =
  (List.sort compare firings, List.sort compare log, states)

(* Build the schema, run every script against the database, and drive
   the reference poster alongside it from the object's recorded
   history. Returns the database's observables and the reference's. *)
let run case =
  let log = ref [] in
  let db = D.create_db () in
  D.enable_history db ~limit:1_000_000;
  let firings_log = ref [] in
  let _sub = D.subscribe_firings db (fun f -> firings_log := f :: !firings_log) in
  (* database-scope triggers, so [post_db]'s path is exercised too *)
  let db_names = db_trigger_names case in
  List.iter2
    (fun name (event, perpetual, witnesses) ->
      D.db_trigger db ~perpetual ~witnesses name ~event ~action:(fun _ ctx ->
          log :=
            ( name,
              ("oid", Value.Int ctx.D.fc_oid) :: List.sort compare ctx.D.fc_collected,
              ctx.D.fc_witnesses )
            :: !log))
    db_names case.db_triggers;
  List.iter (fun n -> D.activate_db_trigger db n []) db_names;
  let names = trigger_names case in
  let b = D.define_class "c" in
  let b = List.fold_left (fun b (n, v) -> D.field b n v) b cm_fields in
  let b = D.method_ b ~kind:D.Read_only "f" (fun _ _ _ -> Value.Unit) in
  let b = D.method_ b ~kind:D.Updating "g" (fun _ _ _ -> Value.Unit) in
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
  let db_occ basic args = { Symbol.basic; args; at = 0L } in
  let created oid = db_occ Symbol.Create [ Value.Oid oid; Value.String "c" ] in
  let seen = ref 0 in
  let oid, model, setup_txn =
    match
      D.with_txn db (fun tx ->
          let oid = D.create db "c" [] in
          List.iter (fun n -> D.activate db oid n []) names;
          seen := List.length (D.object_history db oid);
          let model =
            R.create ~oid ~fields:cm_fields
              ~triggers:
                (List.map2 (fun n (e, p, c, w) -> (n, e, p, c, w)) names case.triggers)
              ~db_triggers:
                (List.map2 (fun n (e, p, w) -> (n, e, p, w)) db_names case.db_triggers)
          in
          R.post_db model ~txn:0
            (db_occ (Symbol.Method (After, "defclass")) [ Value.String "c" ]);
          R.post_db model ~txn:(D.txn_id tx) (created oid);
          (oid, model, D.txn_id tx))
    with
    | Ok r -> r
    | Error `Aborted -> Alcotest.fail "setup transaction aborted"
  in
  (* the occurrences posted to [oid] since the last call, oldest first *)
  let fresh () =
    let h = D.object_history db oid in
    let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
    let recs = drop !seen h in
    seen := List.length h;
    recs
  in
  let feed ~user_txn recs =
    List.iter
      (fun (r : History.record) ->
        R.post model ~user:(r.History.h_txn = user_txn) ~txn:r.History.h_txn
          r.History.h_occurrence)
      recs
  in
  feed ~user_txn:setup_txn (fresh ());
  R.commit model;
  List.iter
    (fun s ->
      let tx = D.begin_txn db in
      let txn = D.txn_id tx in
      List.iter
        (fun op ->
          (match op with
          | Call_f -> ignore (D.call db oid "f" [])
          | Call_g0 -> ignore (D.call db oid "g" [])
          | Call_g1 x -> ignore (D.call db oid "g" [ Value.Int x ])
          | Set_cm (i, v) ->
            D.set_field db oid (Printf.sprintf "cm%d" (i mod 3)) (Value.Bool v)
          | Reactivate i ->
            D.activate db oid (List.nth names (i mod List.length names)) []
          | New_obj ->
            let o = D.create db "c" [] in
            R.post_db model ~txn (created o));
          (* the occurrences an op posts precede its own effect: a field
             write's [after tbegin] still sees the old value *)
          feed ~user_txn:txn (fresh ());
          match op with
          | Set_cm (i, v) -> R.set_field model (Printf.sprintf "cm%d" (i mod 3)) (Value.Bool v)
          | Reactivate i -> R.reactivate model (List.nth names (i mod List.length names))
          | Call_f | Call_g0 | Call_g1 _ | New_obj -> ())
        s.ops;
      if s.commit then begin
        ignore (D.commit db tx);
        feed ~user_txn:txn (fresh ());
        R.commit model
      end
      else begin
        (* [before tabort] sees the transaction's effects; the undo
           runs before the system transaction posts [after tabort] *)
        D.abort db tx;
        let mine, later =
          List.partition (fun (r : History.record) -> r.History.h_txn = txn) (fresh ())
        in
        feed ~user_txn:txn mine;
        R.abort model;
        feed ~user_txn:txn later
      end)
    case.scripts;
  let actual =
    summarise
      ~firings:
        (List.map (fun (f : D.firing) -> (f.D.f_trigger, f.D.f_oid, f.D.f_txn)) !firings_log)
      ~log:!log
      ~states:(List.map (fun n -> (n, D.trigger_state db oid n, D.is_active db oid n)) names)
  in
  let expected =
    let fired = R.fired model in
    summarise
      ~firings:(List.map (fun (f : R.fired) -> (f.R.trigger, f.R.oid, f.R.txn)) fired)
      ~log:
        (List.map
           (fun (f : R.fired) ->
             if f.R.db_scope then
               (f.R.trigger, ("oid", Value.Int f.R.oid) :: f.R.collected, f.R.witnesses)
             else (f.R.trigger, f.R.collected, f.R.witnesses))
           fired)
      ~states:(R.states model)
  in
  (actual, expected)

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
      (3, return Call_f);
      (2, return Call_g0);
      (4, map (fun x -> Call_g1 x) (int_range (-2) 10));
      (1, map2 (fun i v -> Set_cm (i, v)) (int_bound 2) bool);
      (1, map (fun i -> Reactivate i) (int_bound 7));
      (1, return New_obj);
    ]

let gen_script =
  let open QCheck.Gen in
  map2 (fun ops commit -> { ops; commit }) (list_size (int_range 1 6) gen_op) bool

let gen_db_trigger =
  let open QCheck.Gen in
  map3 (fun e perpetual witnesses -> (e, perpetual, witnesses)) (oneofl db_events) bool bool

let gen_case =
  let open QCheck.Gen in
  map3
    (fun triggers db_triggers scripts -> { triggers; db_triggers; scripts })
    (list_size (int_range 1 4) gen_trigger)
    (list_size (int_range 1 3) gen_db_trigger)
    (list_size (int_range 1 6) gen_script)

let pp_op ppf = function
  | Call_f -> Fmt.pf ppf "f()"
  | Call_g0 -> Fmt.pf ppf "g()"
  | Call_g1 x -> Fmt.pf ppf "g(%d)" x
  | Set_cm (i, v) -> Fmt.pf ppf "cm%d := %b" (i mod 3) v
  | Reactivate i -> Fmt.pf ppf "reactivate %d" i
  | New_obj -> Fmt.pf ppf "new"

let print_case case =
  Fmt.str "@[<v>%a@,%a@,%a@]"
    Fmt.(
      list (fun ppf (e, p, c, w) ->
          Fmt.pf ppf "trigger%s%s%s: %a"
            (if p then " perpetual" else "")
            (if c then " committed" else "")
            (if w then " witnesses" else "")
            Expr.pp e))
    case.triggers
    Fmt.(
      list (fun ppf (e, p, w) ->
          Fmt.pf ppf "database trigger%s%s: %a"
            (if p then " perpetual" else "")
            (if w then " witnesses" else "")
            Expr.pp e))
    case.db_triggers
    Fmt.(
      list (fun ppf s ->
          Fmt.pf ppf "%s [%a]"
            (if s.commit then "commit" else "abort")
            (list ~sep:(any "; ") pp_op) s.ops))
    case.scripts

(* ------------------------------------------------------------------ *)
(* Properties and directed tests                                       *)
(* ------------------------------------------------------------------ *)

let compiles (e, _, committed, _) =
  let mode = if committed then Detector.Committed else Detector.Full_history in
  match Detector.make ~mode e with
  | exception Invalid_argument _ -> false (* state-limit blowup: skip *)
  | _ -> true

let index_equals_scan =
  QCheck.Test.make ~count:100 ~name:"dispatch index = brute-force reference poster"
    (QCheck.make ~print:print_case gen_case)
    (fun case ->
      QCheck.assume (List.for_all compiles case.triggers);
      let actual, expected = run case in
      actual = expected)

(* Step a code stream through a detector's state vector stored at
   offset 1 of a block with one guard cell on each side, as the
   database's SoA blocks hold it. Fails the property when stepping
   writes outside the slot. *)
let step_in_slot det ~set_env steps =
  let w = Detector.n_state_words det in
  let cells = Array.make (w + 2) 0 in
  Detector.write_initial det cells 1;
  let fired =
    List.map
      (fun (code, at) ->
        let env = set_env at in
        Detector.post_code det cells 1 ~env code)
      steps
  in
  if cells.(0) <> 0 || cells.(w + 1) <> 0 then
    QCheck.Test.fail_report "slot stepping clobbered neighbouring cells";
  fired

(* The §4 reference for a classified stream: drop the occurrences none
   of the trigger's logical events matched, label the rest with
   [Semantics.eval], and report [false] at the dropped ones. *)
let semantics_fired ?oracle alphabet lowered classified =
  let kept = List.filter (fun s -> s <> Rewrite.other alphabet) classified in
  let labels = Semantics.eval ?oracle lowered (Array.of_list kept) in
  let j = ref (-1) in
  List.map
    (fun s ->
      if s = Rewrite.other alphabet then false
      else begin
        incr j;
        labels.(!j)
      end)
    classified

(* The kernel's own primitives against the §4 reference semantics: for a
   random surface expression and occurrence stream, classify each
   occurrence to a packed code, step the detector's slot by code, and
   compare the accept stream with [Semantics.eval] over the classified,
   filtered symbol history. Mirrors [test_pipeline]'s detector property
   but through the kernel entry points, so a discrepancy between [post]
   and [post_code] on a slot cannot hide behind a shared
   implementation. *)
let kernel_codes_match_semantics =
  let env = Ode_event.Mask.empty_env in
  QCheck.Test.make ~count:300 ~name:"kernel classify/step codes = semantics"
    (QCheck.make
       ~print:(fun (e, occs) ->
         Fmt.str "%a on %d occurrences" Expr.pp e (List.length occs))
       QCheck.Gen.(
         let* e = Gen.gen_surface_expr ~max_size:8 () in
         let* occs = list_size (int_bound 30) Gen.gen_occurrence in
         return (e, occs)))
    (fun (e, occs) ->
      match Detector.make e with
      | exception Invalid_argument _ -> true (* state-limit: skip *)
      | det ->
        let codes = List.map (fun o -> (Detector.classify_code det ~env o, ())) occs in
        let fired = step_in_slot det ~set_env:(fun () -> env) codes in
        let alphabet, lowered, _ = Rewrite.build e in
        let classified =
          List.map (fun occ -> Rewrite.classify alphabet ~env occ) occs
        in
        fired = semantics_fired alphabet lowered classified)

(* Multi-level automata on a slot: wrap random subexpressions in
   composite masks (each mask a [cm<i> = true] lookup the environment
   answers differently at different positions of the stream), step the
   code stream through the slot, and compare with [Semantics.eval]
   under the oracle that evaluates each mask in the environment of the
   position asking. *)
let masked_slots_match_semantics =
  QCheck.Test.make ~count:300
    ~name:"multi-level slot stepping = semantics under varying masks"
    (QCheck.make
       ~print:(fun (e, steps) ->
         Fmt.str "%a on %d occurrences" Expr.pp e (List.length steps))
       QCheck.Gen.(
         let* e = Gen.gen_surface_masked ~max_size:8 () in
         let* occs = list_size (int_bound 30) Gen.gen_occurrence in
         let* flags = list_repeat (List.length occs) (array_size (return 3) bool) in
         return (e, List.combine occs flags)))
    (fun (e, steps) ->
      match Detector.make e with
      | exception Invalid_argument _ -> true (* state-limit: skip *)
      | det ->
        let env_of flags =
          {
            Ode_event.Mask.empty_env with
            var =
              (fun n ->
                match n with
                | "cm0" -> Some (Value.Bool flags.(0))
                | "cm1" -> Some (Value.Bool flags.(1))
                | "cm2" -> Some (Value.Bool flags.(2))
                | _ -> None);
          }
        in
        let codes =
          List.map
            (fun (occ, flags) ->
              (Detector.classify_code det ~env:(env_of flags) occ, flags))
            steps
        in
        let fired = step_in_slot det ~set_env:env_of codes in
        let alphabet, lowered, masks = Rewrite.build e in
        let classified =
          List.map
            (fun (occ, flags) -> Rewrite.classify alphabet ~env:(env_of flags) occ)
            steps
        in
        (* semantics positions count the kept occurrences only *)
        let kept_flags =
          List.filter_map
            (fun ((_, flags), s) ->
              if s = Rewrite.other alphabet then None else Some flags)
            (List.combine steps classified)
          |> Array.of_list
        in
        let oracle id p = Mask.eval_bool (env_of kept_flags.(p)) masks.(id) in
        fired = semantics_fired ~oracle alphabet lowered classified)

(* A directed case, so the property above cannot pass vacuously with
   the kernel and the reference broken the same way: check actual
   firing, §9 collection and one-shot deactivation. *)
let test_indexed_firing () =
  let db = D.create_db () in
  let fired = ref [] in
  let _sub = D.subscribe_firings db (fun f -> fired := f :: !fired) in
  let collected = ref [] in
  let event =
    Expr.sequence
      [
        Expr.after "f";
        Expr.after
          ~formals:[ { Expr.f_ty = None; f_name = "x" } ]
          ~mask:Mask.(var "x" >% v_int 3)
          "g";
      ]
  in
  let b = D.define_class "c" in
  let b = D.method_ b ~kind:D.Read_only "f" (fun _ _ _ -> Value.Unit) in
  let b = D.method_ b ~kind:D.Updating "g" (fun _ _ _ -> Value.Unit) in
  let b =
    D.trigger b "t" ~event ~action:(fun _ ctx -> collected := ctx.D.fc_collected)
  in
  D.register_class db b;
  (match
     D.with_txn db (fun _ ->
         let oid = D.create db "c" [] in
         D.activate db oid "t" [];
         ignore (D.call db oid "g" [ Value.Int 9 ]);
         (* g without a preceding f: must not fire *)
         ignore (D.call db oid "f" []);
         ignore (D.call db oid "g" [ Value.Int 2 ]);
         (* guard x > 3 fails: must not fire *)
         ignore (D.call db oid "f" []);
         ignore (D.call db oid "g" [ Value.Int 7 ]);
         oid)
   with
  | Ok oid ->
    Alcotest.(check (list string))
      "fired exactly once"
      [ "t" ]
      (List.map (fun (f : D.firing) -> f.D.f_trigger) (List.rev !fired));
    Alcotest.(check bool) "one-shot deactivated" false (D.is_active db oid "t")
  | Error `Aborted -> Alcotest.fail "transaction aborted");
  match !collected with
  | [ ("x", Value.Int 7) ] -> ()
  | other ->
    Alcotest.failf "collected %a"
      Fmt.(Dump.list (Dump.pair string (fun ppf v -> Value.pp ppf v)))
      other

let suite =
  Alcotest.test_case "indexed firing + collection" `Quick test_indexed_firing
  :: List.map QCheck_alcotest.to_alcotest
       [
         index_equals_scan;
         kernel_codes_match_semantics;
         masked_slots_match_semantics;
       ]
