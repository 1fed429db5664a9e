(* Transaction events reach only the objects that listen to them.

   First touch, commit and abort post [after tbegin],
   [before tcomplete], [before tabort], [after tcommit] and
   [after tabort] only to objects whose class declares a trigger on the
   event (or to every object while history recording is on); a commit
   or abort nobody listens to opens no system transaction and writes no
   second batch, but still consumes its txn id.

   The property compares that engine against an always-post reference:
   the same random schema with one extra trigger per class, declared
   last and never activated, whose event holds all five transaction
   events. The class dispatch rows are built from declared triggers, so
   in the reference every transaction event is posted to every accessed
   object, exactly as when every event was always posted; images
   encode only activated triggers, so the bytes still compare. Random
   [Read_only]/[Updating] calls, field writes, creations, deletions,
   (de)activations, commits, aborts and [Tabort] actions run at
   partitions {1,2} with history recording off and on, logging to a
   WAL. Firings (with [f_txn]), the action log, trigger states,
   histories, ODE1 bytes and the WAL-recovered image must all agree.

   Directed tests pin the batch counts of one commit and one abort with
   and without a listener. *)

open Ode_odb
module D = Database
module Value = Ode_base.Value
module Obs = Ode_obs.Registry

let fresh_dir () =
  let d = Filename.temp_file "ode_txnev" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let wal_config ~partitions dir =
  {
    D.Config.default with
    D.Config.partitions;
    durability =
      `Wal (Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:0 dir);
  }

let bump db oid field =
  D.set_field db oid field (Value.add (D.get_field db oid field) (Value.Int 1))

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)
(* ------------------------------------------------------------------ *)

(* Two classes, [a] and [b]. Each has a Read_only [f], an Updating [g]
   and an Updating [h] whose [veto] trigger aborts the transaction.
   A listening class also declares one trigger on each transaction
   event: the [after tcommit] action writes its object and the lowest
   live oid (maybe of a class that does not listen) and aborts its
   system transaction on every third write. *)
let base_triggers = [ "pair"; "cpair"; "every_f"; "veto" ]

let listening_triggers =
  [ "on_begin"; "on_complete"; "on_commit"; "before_abort"; "after_abort" ]

let triggers_of listening =
  if listening then base_triggers @ listening_triggers else base_triggers

let class_names = [| "a"; "b" |]

let define_class ~reference ~listening log name =
  let note trigger ctx = log := (trigger, ctx.D.fc_oid) :: !log in
  let on ?mode b trigger event action =
    D.trigger_str b ~perpetual:true ?mode trigger ~event ~action:(fun db ctx ->
        note trigger ctx;
        action db ctx)
  in
  let nothing _ _ = () in
  let b = D.define_class name in
  let b = D.field b "n" (Value.Int 0) in
  let b = D.field b "aborts" (Value.Int 0) in
  let b = D.method_ b ~kind:D.Read_only "f" (fun _ _ _ -> Value.Unit) in
  let b = D.method_ b ~kind:D.Updating "g" (fun _ _ _ -> Value.Unit) in
  let b = D.method_ b ~kind:D.Updating "h" (fun _ _ _ -> Value.Unit) in
  let b = on b "pair" "after g; after g" nothing in
  let b = on ~mode:Ode_event.Detector.Committed b "cpair" "after g; after g" nothing in
  let b = on b "every_f" "every 2 (after f)" nothing in
  let b = on b "veto" "after h" (fun _ _ -> raise D.Tabort) in
  let b =
    if not listening then b
    else begin
      let b = on b "on_begin" "after tbegin; after g" nothing in
      let b =
        on b "on_complete" "after g; before tcomplete" (fun db ctx ->
            bump db ctx.D.fc_oid "n")
      in
      let b =
        on b "on_commit" "after tcommit" (fun db ctx ->
            bump db ctx.D.fc_oid "n";
            (match D.objects db with
            | low :: _ when low <> ctx.D.fc_oid -> bump db low "n"
            | _ -> ());
            match D.get_field db ctx.D.fc_oid "n" with
            | Value.Int n when n mod 3 = 0 -> raise D.Tabort
            | _ -> ())
      in
      let b =
        on b "before_abort" "before tabort" (fun db ctx ->
            D.set_field db ctx.D.fc_oid "n" (Value.Int 0))
      in
      on b "after_abort" "after tabort" (fun db ctx -> bump db ctx.D.fc_oid "aborts")
    end
  in
  if not reference then b
  else
    D.trigger_str b "zz_listen_all"
      ~event:
        "after tbegin | before tcomplete | after tcommit | before tabort | \
         after tabort"
      ~action:(fun _ _ -> ())

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

type op =
  | Call of int * string
  | Set of int * int
  | New of int
  | Del of int
  | Deact of int * int
  | React of int * int

type case = { listening : bool * bool; txns : (op list * bool) list }

let listens_class case cls = if cls = 0 then fst case.listening else snd case.listening

let triggers_of_obj db case oid =
  triggers_of (listens_class case (if D.class_of db oid = "a" then 0 else 1))

let run_op db case op =
  let live = D.objects db in
  let pick i = List.nth live (i mod List.length live) in
  let pick_trigger oid j =
    let ts = triggers_of_obj db case oid in
    List.nth ts (j mod List.length ts)
  in
  match op with
  | New cls ->
    let oid = D.create db class_names.(cls) [] in
    List.iter (fun t -> D.activate db oid t []) (triggers_of_obj db case oid)
  | _ when live = [] -> ()
  | Call (i, m) -> ignore (D.call db (pick i) m [])
  | Set (i, v) -> D.set_field db (pick i) "n" (Value.Int v)
  | Del i -> D.delete db (pick i)
  | Deact (i, j) ->
    let oid = pick i in
    D.deactivate db oid (pick_trigger oid j)
  | React (i, j) ->
    let oid = pick i in
    D.activate db oid (pick_trigger oid j) []

(* One transaction: its operations, then commit or abort. A [Tabort]
   from an action aborts it; [commit] reports one from the tcomplete
   rounds. *)
let run_txn db case (ops, commit) =
  let tx = D.begin_txn db in
  match List.iter (run_op db case) ops with
  | () -> if commit then ignore (D.commit db tx) else D.abort db tx
  | exception D.Tabort -> D.abort db tx

type summary = {
  firings : D.firing list;
  actions : (string * int) list;
  states : (int * string * bool * int array) list;
  histories : (int * History.t) list;
  image : string;
  recovered : string;
}

let run ~reference ~partitions ~history case =
  let dir = fresh_dir () in
  let config = wal_config ~partitions dir in
  let log = ref [] in
  let make () =
    let db = D.create_db ~config () in
    Array.iteri
      (fun cls name ->
        D.register_class db
          (define_class ~reference ~listening:(listens_class case cls) log name))
      class_names;
    if history then D.enable_history db ~limit:64;
    db
  in
  let db = make () in
  let firings = ref [] in
  let _sub = D.subscribe_firings db (fun f -> firings := f :: !firings) in
  List.iter (run_txn db case) case.txns;
  let live = D.objects db in
  let states =
    List.concat_map
      (fun oid ->
        List.map
          (fun t -> (oid, t, D.is_active db oid t, D.trigger_state db oid t))
          (triggers_of_obj db case oid))
      live
  in
  let histories = List.map (fun oid -> (oid, D.object_history db oid)) live in
  let image = D.image_bytes db in
  D.close_durability db;
  let db2 = make () in
  D.recover db2;
  let recovered = D.image_bytes db2 in
  D.close_durability db2;
  rm_rf dir;
  { firings = List.rev !firings; actions = List.rev !log; states; histories; image;
    recovered }

let gen_op =
  let open QCheck.Gen in
  let idx = int_bound 7 in
  frequency
    [
      (4, map2 (fun i m -> Call (i, m)) idx (oneofl [ "f"; "g" ]));
      (1, map (fun i -> Call (i, "h")) idx);
      (1, map2 (fun i v -> Set (i, v)) idx (int_bound 9));
      (2, map (fun c -> New c) (int_bound 1));
      (1, map (fun i -> Del i) idx);
      (1, map2 (fun i j -> Deact (i, j)) idx (int_bound 8));
      (1, map2 (fun i j -> React (i, j)) idx (int_bound 8));
    ]

let gen_case =
  let open QCheck.Gen in
  let* listening = pair bool bool in
  let+ txns =
    list_size (int_range 1 8)
      (pair (list_size (int_range 0 5) gen_op) (map (fun k -> k < 4) (int_bound 4)))
  in
  { listening; txns }

let print_op = function
  | Call (i, m) -> Printf.sprintf "call %d %s" i m
  | Set (i, v) -> Printf.sprintf "set %d %d" i v
  | New c -> Printf.sprintf "new %s" class_names.(c)
  | Del i -> Printf.sprintf "del %d" i
  | Deact (i, j) -> Printf.sprintf "deact %d %d" i j
  | React (i, j) -> Printf.sprintf "react %d %d" i j

let print_case case =
  Printf.sprintf "listening a=%b b=%b\n%s" (fst case.listening) (snd case.listening)
    (String.concat "\n"
       (List.map
          (fun (ops, commit) ->
            Printf.sprintf "[%s] %s"
              (String.concat "; " (List.map print_op ops))
              (if commit then "commit" else "abort"))
          case.txns))

let listeners_only_equals_always_post =
  QCheck.Test.make ~count:200
    ~name:"listeners only = always post (firings, states, bytes, recovery)"
    (QCheck.make ~print:print_case gen_case)
    (fun case ->
      List.for_all
        (fun (partitions, history) ->
          let s = run ~reference:false ~partitions ~history case in
          let r = run ~reference:true ~partitions ~history case in
          String.equal s.image s.recovered && s = r)
        [ (1, false); (1, true); (2, false); (2, true) ])

(* ------------------------------------------------------------------ *)
(* Batch counts                                                        *)
(* ------------------------------------------------------------------ *)

(* One object at partitions 1, logging to a WAL; [trigger] optionally
   declares and activates one transaction-event trigger. One
   transaction writes a field of the object and is ended by [finish].
   Returns the number of batches it wrote and how many txn ids it
   consumed. *)
let batches_of ?trigger finish =
  let dir = fresh_dir () in
  let db = D.create_db ~config:(wal_config ~partitions:1 dir) () in
  let fired = ref 0 in
  let b = D.define_class "c" in
  let b = D.field b "n" (Value.Int 0) in
  let b =
    match trigger with
    | None -> b
    | Some event ->
      D.trigger_str b ~perpetual:true "t" ~event ~action:(fun _ _ -> incr fired)
  in
  D.register_class db b;
  let oid =
    match
      D.with_txn db (fun _ ->
          let oid = D.create db "c" [] in
          if trigger <> None then D.activate db oid "t" [];
          oid)
    with
    | Ok oid -> oid
    | Error `Aborted -> Alcotest.fail "setup transaction aborted"
  in
  D.set_observability db true;
  fired := 0;
  let tx = D.begin_txn db in
  D.set_field db oid "n" (Value.Int 1);
  finish db tx;
  let next = D.begin_txn db in
  let batches = Obs.get (D.observe db) Obs.Wal_batches in
  D.abort db next;
  D.close_durability db;
  rm_rf dir;
  if trigger <> None then Alcotest.(check int) "the listener fired" 1 !fired;
  (batches, D.txn_id next - D.txn_id tx)

let commit db tx = ignore (D.commit db tx)

let check_batches name ?trigger finish ~batches =
  let got, ids = batches_of ?trigger finish in
  Alcotest.(check int) (name ^ ": batches") batches got;
  (* the transaction and its (maybe skipped) system transaction *)
  Alcotest.(check int) (name ^ ": txn ids consumed") 2 ids

let test_commit_batches () =
  check_batches "commit, no listener" commit ~batches:1;
  check_batches "commit, after tcommit trigger" ~trigger:"after tcommit" commit
    ~batches:2

let test_abort_batches () =
  check_batches "abort, no listener" D.abort ~batches:1;
  check_batches "abort, after tabort trigger" ~trigger:"after tabort" D.abort
    ~batches:2

let suite =
  [
    QCheck_alcotest.to_alcotest listeners_only_equals_always_post;
    Alcotest.test_case "commit batches, with and without a listener" `Quick
      test_commit_batches;
    Alcotest.test_case "abort batches, with and without a listener" `Quick
      test_abort_batches;
  ]
