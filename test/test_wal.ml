(* The WAL durability backend: the crash-injection harness (randomized
   kill and corruption points over a logged workload, recovery compared
   byte-for-byte against shadow snapshots captured at every batch
   boundary), golden digests of the image, log and snapshot bytes, the
   size-driven checkpoint rule (rotation, the replay bound, the floor),
   the group-commit window, the ODE_DURABILITY selector, the
   snapshot-bytes = save-bytes property, streamed images =
   [image_bytes], the frame scanner's damage classification, and the
   refusal of the older per-member directory layout. *)

open Ode_odb

module D = struct
  include Database

  (* the environment's config, with the durability overridable *)
  let create_db ?durability () =
    let c = Config.of_env () in
    create_db
      ~config:
        { c with Config.durability = Option.value durability ~default:c.Config.durability }
      ()
end

module Value = Ode_base.Value
module Codec = Ode_base.Codec
module Obs = Ode_obs.Registry

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "transaction unexpectedly aborted"

let fresh_dir () =
  let d = Filename.temp_file "ode_wal" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

(* The workload schema leans on every durable-state shape the log must
   carry: fields, a full-history trigger (advances survive aborts — the
   reason redo records are full-object upserts), a committed-mode
   trigger (undo interplay), and a periodic time event (timer queue +
   clock). *)
let schema () =
  D.define_class "item"
  |> (fun b -> D.field b "qty" (Value.Int 0))
  |> (fun b ->
       D.method_ b ~kind:D.Updating "deposit" (fun db oid args ->
           match args with
           | [ q ] ->
             D.set_field db oid "qty" (Value.add (D.get_field db oid "qty") q);
             Value.Unit
           | _ -> Value.Unit))
  |> (fun b ->
       D.method_ b ~kind:D.Updating "withdraw" (fun db oid args ->
           match args with
           | [ q ] ->
             D.set_field db oid "qty" (Value.sub (D.get_field db oid "qty") q);
             Value.Unit
           | _ -> Value.Unit))
  |> (fun b ->
       D.trigger_str b ~perpetual:true "pair"
         ~event:"after deposit; after deposit"
         ~action:(fun _ _ -> ()))
  |> (fun b ->
       D.trigger_str b ~perpetual:true ~mode:Ode_event.Detector.Committed
         "cpair" ~event:"after withdraw; after withdraw"
         ~action:(fun _ _ -> ()))
  |> fun b ->
  D.trigger_str b ~perpetual:true "tick" ~event:"every time(MS=70)"
    ~action:(fun _ _ -> ())

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* One workload transaction: a handful of random operations, then a
   commit or (1 in 5) an explicit abort. Clock advances — their own
   emission point — happen between transactions. Strictly sequential
   transactions, so the n-th shadow snapshot is exactly what replaying
   n frames must reconstruct. *)
let step rng db =
  if Random.State.int rng 4 = 0 then
    D.advance_clock db (Int64.of_int (20 + Random.State.int rng 100));
  let live = D.objects db in
  let tx = D.begin_txn db in
  (try
     for _ = 1 to 1 + Random.State.int rng 4 do
       match Random.State.int rng 10 with
       | 0 | 1 ->
         let oid = D.create db "item" [] in
         D.activate db oid
           (if Random.State.bool rng then "pair" else "cpair")
           [];
         if Random.State.int rng 3 = 0 then D.activate db oid "tick" []
       | 2 when live <> [] -> (
         let oid = pick rng live in
         if D.exists db oid then D.delete db oid)
       | 3 when live <> [] ->
         let oid = pick rng live in
         if D.exists db oid then
           D.set_field db oid "qty" (Value.Int (Random.State.int rng 100))
       | 4 when live <> [] ->
         let oid = pick rng live in
         if D.exists db oid then D.activate db oid "pair" []
       | 5 when live <> [] ->
         let oid = pick rng live in
         if D.exists db oid then D.deactivate db oid "cpair"
       | _ when live <> [] ->
         let oid = pick rng live in
         if D.exists db oid then
           ignore
             (D.call db oid
                (if Random.State.bool rng then "deposit" else "withdraw")
                [ Value.Int (1 + Random.State.int rng 9) ])
       | _ -> ()
     done;
     if Random.State.int rng 5 = 0 then D.abort db tx
     else
       match D.commit db tx with Ok () -> () | Error `Aborted -> ()
   with D.Lock_conflict _ -> D.abort db tx)

(* A probe run after recovery: does the revived database *behave*
   identically — firings, transaction ids, timer deliveries — not just
   carry equal bytes? *)
let probe pdb =
  let fired = ref [] in
  let _s =
    D.subscribe_firings pdb (fun f ->
        fired := (f.D.f_trigger, f.D.f_oid, f.D.f_txn) :: !fired)
  in
  (match
     D.with_txn pdb (fun _ ->
         let o = D.create pdb "item" [] in
         D.activate pdb o "pair" [];
         ignore (D.call pdb o "deposit" [ Value.Int 1 ]);
         ignore (D.call pdb o "deposit" [ Value.Int 2 ]);
         match D.objects pdb with
         | o0 :: _ -> ignore (D.call pdb o0 "deposit" [ Value.Int 3 ])
         | [] -> ())
   with
  | Ok () -> ()
  | Error `Aborted -> ());
  D.advance_clock pdb 100L;
  (List.rev !fired, D.image_bytes pdb)

(* The workload of the crash harness, logged with every batch flushed
   eagerly; the log stays under the checkpoint floor, so
   wal-0.log accumulates its full frame sequence. [on_batch] sees the
   database after each batch. Returns the log directory and the
   initial image. *)
let logged_workload ?on_batch ~seed () =
  let dir = fresh_dir () in
  let cfg = Wal.config ~flush_ms:0 ~sync_on_flush:false ?on_batch dir in
  let db = D.create_db ~durability:(`Wal cfg) () in
  D.register_class db (schema ());
  let base = D.image_bytes db in
  Alcotest.(check bool) "baseline snapshot = initial image" true
    (String.equal (Codec.of_file (Wal.snap_path dir 0)) base);
  let rng = Random.State.make [| seed |] in
  for _ = 1 to 40 do
    step rng db
  done;
  D.close_durability db;
  Alcotest.(check (option int)) "no checkpoint: generation 0 holds it all"
    (Some 0) (Wal.latest_gen dir);
  (dir, base, rng)

(* The load-bearing invariant of the whole layer: whatever point the
   log is killed or corrupted at, snapshot + replay reconstructs a
   state byte-identical to the shadow image captured when the last
   surviving batch was emitted — and the revived database behaves
   identically from there on: a torn log loses whole transactions
   only. *)
let crash_harness ~points ~seed () =
  let shadows = ref [] in
  let on_batch tdb = shadows := Persist.image_bytes tdb :: !shadows in
  let dir, base, rng = logged_workload ~on_batch ~seed () in
  let shadows = Array.of_list (List.rev !shadows) in
  let log = Codec.of_file (Wal.wal_path dir 0) in
  let snap = Codec.of_file (Wal.snap_path dir 0) in
  let hdr = String.length Wal.header in
  Alcotest.(check bool) "workload produced a substantial log" true
    (Array.length shadows > 60 && String.length log > hdr);
  for point = 1 to points do
    (* kill: cut the log at a random offset; 1 in 10 points corrupt a
       random byte instead (torn sector rather than lost tail) *)
    let damaged =
      if Random.State.int rng 10 = 0 then begin
        let i = hdr + Random.State.int rng (String.length log - hdr) in
        let b = Bytes.of_string log in
        Bytes.set b i
          (Char.chr
             (Char.code (Bytes.get b i) lxor (1 + Random.State.int rng 255)));
        Bytes.to_string b
      end
      else
        String.sub log 0 (hdr + Random.State.int rng (String.length log - hdr + 1))
    in
    let n = List.length (Wal.scan_bytes damaged).Wal.frames in
    let dir2 = fresh_dir () in
    Codec.to_file (Wal.snap_path dir2 0) snap;
    Codec.to_file (Wal.wal_path dir2 0) damaged;
    let rdb = D.create_db ~durability:(`Wal (Wal.config dir2)) () in
    D.register_class rdb (schema ());
    D.recover rdb;
    let expected = if n = 0 then base else shadows.(n - 1) in
    if not (String.equal (D.image_bytes rdb) expected) then
      Alcotest.failf "crash point %d: recovery after %d batches diverges" point
        n;
    (* recovery re-baselined: the damaged tail is gone for good *)
    let g = Option.get (Wal.latest_gen dir2) in
    if g < 1 then Alcotest.failf "crash point %d: no re-baseline" point;
    (* every 10th point, drive both databases forward and compare
       behaviour, not just bytes *)
    if point mod 10 = 0 then begin
      let sdb = D.create_db ~durability:`Image () in
      D.register_class sdb (schema ());
      let f = Filename.temp_file "ode_wal_shadow" ".img" in
      Codec.to_file f expected;
      D.load sdb f;
      Sys.remove f;
      let fired_r, img_r = probe rdb in
      let fired_s, img_s = probe sdb in
      if fired_r <> fired_s then
        Alcotest.failf "crash point %d: probe firings diverge" point;
      if not (String.equal img_r img_s) then
        Alcotest.failf "crash point %d: probe images diverge" point
    end
  done

let test_crash_heap () = crash_harness ~points:250 ~seed:42 ()

(* Golden digests pin the on-disk bytes: the ODE1 images of the
   stockroom and fleet scenarios, and the log and snapshot a fixed
   stockroom run leaves in its WAL directory. A change to any of them
   is a format change, and an image or log an older build wrote would
   no longer load or recover byte-for-byte. The config is explicit, so
   no environment leg changes the bytes. *)
let golden_stockroom config =
  let module S = Ode_scenarios.Stockroom in
  let sr = S.setup ~config () in
  List.iter
    (fun i ->
      let item = S.new_item sr ~name:(Printf.sprintf "i%d" i) ~eoq:20 ~balance:200 in
      ignore (S.withdraw sr ~item ~qty:(40 * i));
      ignore (S.deposit sr ~item ~qty:10))
    [ 1; 2; 3; 4; 5; 6 ];
  D.advance_clock sr.S.db 3_600_000L;
  sr.S.db

let golden_fleet () =
  let module F = Ode_scenarios.Fleet in
  let t =
    F.setup ~db:(Database.create_db ~config:Database.Config.default ()) ~vehicles:64 ()
  in
  F.tick t 300L;
  t.F.db

let test_golden_digests () =
  let hex s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "stockroom image"
    "2d7beb7d0a80a795296bc910841cf277"
    (hex (D.image_bytes (golden_stockroom Database.Config.default)));
  Alcotest.(check string) "fleet image" "4da2194d9771d85e4e704373d8b47711"
    (hex (D.image_bytes (golden_fleet ())));
  let dir = fresh_dir () in
  let config =
    {
      Database.Config.default with
      Database.Config.durability =
        `Wal (Wal.config ~flush_ms:0 ~sync_on_flush:false dir);
    }
  in
  let db = golden_stockroom config in
  (* a save checkpoints mid-run, so the current pair is generation 1
     with a non-empty snapshot and log *)
  let f = Filename.temp_file "ode_golden" ".img" in
  D.save db f;
  Sys.remove f;
  let tx = D.begin_txn db in
  ignore (D.create db "item" []);
  D.abort db tx;
  D.advance_clock db 86_400_000L;
  D.close_durability db;
  Alcotest.(check (option int)) "generation" (Some 1) (Wal.latest_gen dir);
  Alcotest.(check string) "wal-1.log" "e3560e25597a15d49eb927e27d1065d4"
    (hex (Codec.of_file (Wal.wal_path dir 1)));
  Alcotest.(check string) "snap-1.ode1" "2d7beb7d0a80a795296bc910841cf277"
    (hex (Codec.of_file (Wal.snap_path dir 1)))

(* A class whose objects carry a 16 KiB string, so a few hundred
   one-object commits log several MiB. *)
let blob_size = 16 * 1024

let blob_class () =
  D.define_class "blob"
  |> fun b -> D.field b "data" (Value.String "")

let put_blob db oid i =
  D.set_field db oid "data" (Value.String (String.make blob_size (Char.chr (i land 0xFF))))

let file_size path = (Unix.stat path).Unix.st_size

(* The generations in a log directory, snapshots and logs alike. *)
let gen_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         Filename.check_suffix f ".ode1" || Filename.check_suffix f ".log")
  |> List.sort compare

(* Checkpoints rotate the generation pair when the log outgrows the
   checkpoint threshold: the old snapshot + log are retired, and
   recovery from the rotated directory still reconstructs the exact
   final state. 20 blobs make a 320 KiB snapshot, so the 1 MiB floor
   sets the threshold, and 300 commits of one blob each (4.7 MiB of
   log) rotate 4 times. *)
let test_checkpoint_rotation () =
  let dir = fresh_dir () in
  let cfg = Wal.config ~flush_ms:0 ~sync_on_flush:false dir in
  let db = D.create_db ~durability:(`Wal cfg) () in
  D.register_class db (blob_class ());
  let oids =
    expect_ok (D.with_txn db (fun _ -> Array.init 20 (fun _ -> D.create db "blob" [])))
  in
  let commits = 300 in
  for i = 1 to commits do
    expect_ok (D.with_txn db (fun _ -> put_blob db oids.(i mod 20) i))
  done;
  D.close_durability db;
  let g = Option.get (Wal.latest_gen dir) in
  Alcotest.(check bool) "the log's size rotated the generation several times" true
    (g >= 3);
  Alcotest.(check bool) "no more often than the floor allows" true
    (g <= commits * (blob_size + 64) / Wal.checkpoint_floor);
  Alcotest.(check (list string)) "old pairs retired"
    [ Printf.sprintf "snap-%d.ode1" g; Printf.sprintf "wal-%d.log" g ]
    (gen_files dir);
  let img = D.image_bytes db in
  let db2 = D.create_db ~durability:(`Wal (Wal.config dir)) () in
  D.register_class db2 (blob_class ());
  D.recover db2;
  Alcotest.(check bool) "recovery from a rotated directory" true
    (String.equal (D.image_bytes db2) img)

(* The replay bound: after several rotations a crash (no
   [close_durability]) leaves at most [checkpoint_percent]% of the
   snapshot + [checkpoint_floor] + one batch of log to replay, and
   recovery reproduces the live image. 100 blobs make a 1.6 MiB
   snapshot, so the percentage sets the threshold. *)
let test_replay_bound () =
  let dir = fresh_dir () in
  let config =
    {
      Database.Config.default with
      Database.Config.durability =
        `Wal (Wal.config ~flush_ms:0 ~sync_on_flush:false dir);
    }
  in
  let db = Database.create_db ~config () in
  D.register_class db (blob_class ());
  let oids =
    Array.init 100 (fun i ->
        expect_ok
          (D.with_txn db (fun _ ->
               let oid = D.create db "blob" [] in
               put_blob db oid i;
               oid)))
  in
  let rng = Random.State.make [| 11; 1 |] in
  for i = 1 to 400 do
    let oid = oids.(Random.State.int rng 100) in
    expect_ok (D.with_txn db (fun _ -> put_blob db oid i))
  done;
  let live = D.image_bytes db in
  (* crash: the process stops here, nothing closed *)
  let g = Option.get (Wal.latest_gen dir) in
  Alcotest.(check bool) "rotated several times" true (g >= 2);
  Alcotest.(check (list string)) "one generation pair"
    [ Printf.sprintf "snap-%d.ode1" g; Printf.sprintf "wal-%d.log" g ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  let frames = (Wal.scan_file (Wal.wal_path dir g)).Wal.frames in
  let sizes = List.map (fun f -> 8 + String.length f) frames in
  let replayed = List.fold_left ( + ) 0 sizes in
  let batch = List.fold_left max 0 sizes in
  let snap = file_size (Wal.snap_path dir g) in
  let bound = (Wal.checkpoint_percent * snap / 100) + Wal.checkpoint_floor + batch in
  if replayed > bound then
    Alcotest.failf "%d log bytes to replay > bound %d (snapshot %d)" replayed bound
      snap;
  let config = { config with Database.Config.durability = `Wal (Wal.config dir) } in
  let db2 = Database.create_db ~config () in
  D.register_class db2 (blob_class ());
  D.recover db2;
  Alcotest.(check bool) "recovered image = live image" true
    (String.equal (D.image_bytes db2) live);
  D.close_durability db2

(* The floor: a one-object database whose snapshot is a few dozen
   bytes logs 5,000 commits without a checkpoint. A threshold of
   [checkpoint_percent]% of the snapshot alone would checkpoint about
   every second commit. *)
let test_checkpoint_floor () =
  let dir = fresh_dir () in
  let cfg = Wal.config ~flush_ms:0 ~sync_on_flush:false dir in
  let db = D.create_db ~durability:(`Wal cfg) () in
  D.register_class db (schema ());
  D.set_observability db true;
  let oid = expect_ok (D.with_txn db (fun _ -> D.create db "item" [])) in
  for _ = 1 to 5_000 do
    expect_ok (D.with_txn db (fun _ -> ignore (D.call db oid "deposit" [ Value.Int 1 ])))
  done;
  Alcotest.(check int) "no snapshot under the floor" 0
    (Obs.get (D.observe db) Obs.Wal_snapshots);
  Alcotest.(check (option int)) "still generation 0" (Some 0) (Wal.latest_gen dir);
  D.close_durability db

(* Under a wide-open group-commit window, batches buffer in memory and
   hit the disk only on an explicit sync — one physical write retiring
   many batches. *)
let test_group_commit_window () =
  let dir = fresh_dir () in
  let cfg =
    Wal.config ~flush_ms:3_600_000 ~sync_on_flush:false dir
  in
  let db = D.create_db ~durability:(`Wal cfg) () in
  D.register_class db (schema ());
  D.set_observability db true;
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "item" [] in
           D.activate db oid "pair" [];
           oid))
  in
  for _ = 1 to 2 do
    expect_ok
      (D.with_txn db (fun _ -> ignore (D.call db oid "deposit" [ Value.Int 1 ])))
  done;
  (* 3 commits x 1 batch: no class listens to [after tcommit], so no
     system transaction logs a second one *)
  let obs = D.observe db in
  Alcotest.(check int) "batches framed" 3 (Obs.get obs Obs.Wal_batches);
  Alcotest.(check int) "nothing flushed inside the window" 0
    (Obs.get obs Obs.Wal_flushes);
  let before = Wal.scan_file (Wal.wal_path dir 0) in
  Alcotest.(check int) "log still empty on disk" 0 (List.length before.Wal.frames);
  Alcotest.(check bool) "no damage" true (before.Wal.damage = None);
  D.sync_durability db;
  Alcotest.(check int) "one group flush retired them all" 1
    (Obs.get obs Obs.Wal_flushes);
  let after = Wal.scan_file (Wal.wal_path dir 0) in
  Alcotest.(check int) "all batches on disk after sync" 3
    (List.length after.Wal.frames);
  D.close_durability db;
  (* closed: further commits must not log *)
  expect_ok
    (D.with_txn db (fun _ -> ignore (D.call db oid "deposit" [ Value.Int 1 ])));
  Alcotest.(check int) "closed backend emits nothing" 3
    (List.length (Wal.scan_file (Wal.wal_path dir 0)).Wal.frames)

(* ODE_DURABILITY selects the backend at create_db. *)
let test_env_selector () =
  let old = Sys.getenv_opt "ODE_DURABILITY" in
  let restore () =
    Unix.putenv "ODE_DURABILITY" (match old with Some s -> s | None -> "")
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "ODE_DURABILITY" "wal:0";
      let db = D.create_db () in
      Alcotest.(check bool) "wal:<ms> selects the WAL" true
        (String.length (D.durability_name db) >= 4
        && String.sub (D.durability_name db) 0 4 = "wal:");
      D.close_durability db;
      Unix.putenv "ODE_DURABILITY" "image";
      Alcotest.(check string) "image selects the codec" "image"
        (D.durability_name (D.create_db ()));
      Unix.putenv "ODE_DURABILITY" "";
      Alcotest.(check string) "empty means image" "image"
        (D.durability_name (D.create_db ()));
      Unix.putenv "ODE_DURABILITY" "bogus";
      Alcotest.(check bool) "unknown backend rejected" true
        (match D.create_db () with
        | exception D.Ode_error _ -> true
        | _ -> false);
      Unix.putenv "ODE_DURABILITY" "wal:x";
      Alcotest.(check bool) "bad flush window rejected" true
        (match D.create_db () with
        | exception D.Ode_error _ -> true
        | _ -> false))

(* Satellite invariant: a WAL checkpoint snapshot and [save] of the
   same state are the same bytes — [save] serializes the heap once, in
   its checkpoint, and copies that snapshot — and recovery after
   further commits still reproduces the live image; property-tested
   over random workloads. *)
let prop_snapshot_equals_save =
  QCheck.Test.make ~name:"WAL snapshot bytes = save bytes" ~count:20
    QCheck.small_int (fun seed ->
      let dir = fresh_dir () in
      let cfg =
        Wal.config ~flush_ms:0 ~sync_on_flush:false dir
      in
      let db = D.create_db ~durability:(`Wal cfg) () in
      D.register_class db (schema ());
      let rng = Random.State.make [| seed; 77 |] in
      for _ = 1 to 8 do
        step rng db
      done;
      let f = Filename.temp_file "ode_wal_save" ".img" in
      D.save db f;
      let saved = Codec.of_file f in
      Sys.remove f;
      (* [save] checkpointed: the fresh generation's snapshot must be
         the very bytes just saved *)
      let g = Option.get (Wal.latest_gen dir) in
      let snap = Codec.of_file (Wal.snap_path dir g) in
      for _ = 1 to 4 do
        step rng db
      done;
      let live = D.image_bytes db in
      (* crash: nothing closed *)
      let rdb = D.create_db ~durability:(`Wal (Wal.config dir)) () in
      D.register_class rdb (schema ());
      D.recover rdb;
      D.close_durability rdb;
      String.equal saved snap && String.equal (D.image_bytes rdb) live)

(* The streamed writers produce [image_bytes]'s bytes: the checkpoint
   snapshot at the log root and [save]'s file (a copy of it) both equal
   [image_bytes], for the stockroom and fleet images. *)
let test_streamed_images () =
  let module S = Ode_scenarios.Stockroom in
  let module F = Ode_scenarios.Fleet in
  let stockroom config =
    let sr = S.setup ~config () in
    List.iter
      (fun i ->
        let item = S.new_item sr ~name:(Printf.sprintf "i%d" i) ~eoq:20 ~balance:200 in
        ignore (S.withdraw sr ~item ~qty:(40 * i));
        ignore (S.deposit sr ~item ~qty:10))
      [ 1; 2; 3; 4; 5; 6 ];
    D.advance_clock sr.S.db 3_600_000L;
    sr.S.db
  in
  let fleet config =
    let t = F.setup ~db:(Database.create_db ~config ()) ~vehicles:64 () in
    F.tick t 300L;
    t.F.db
  in
  List.iter
    (fun (what, build) ->
      let dir = fresh_dir () in
      let config =
        {
          Database.Config.default with
          Database.Config.durability =
            `Wal (Wal.config ~flush_ms:0 ~sync_on_flush:false dir);
        }
      in
      let db = build config in
      let f = Filename.temp_file "ode_wal_stream" ".img" in
      D.save db f;
      let saved = Codec.of_file f in
      Sys.remove f;
      let live = D.image_bytes db in
      Alcotest.(check bool) (what ^ ": save's file = image_bytes") true
        (String.equal saved live);
      let g = Option.get (Wal.latest_gen dir) in
      Alcotest.(check bool) (what ^ ": snapshot = image_bytes") true
        (String.equal (Codec.of_file (Wal.snap_path dir g)) live);
      D.close_durability db)
    [ ("stockroom", stockroom); ("fleet", fleet) ]

(* The frame scanner classifies every damage shape [odec wal-dump]
   reports. *)
let test_scan_damage_classification () =
  let dir = fresh_dir () in
  let cfg =
    Wal.config ~flush_ms:0 ~sync_on_flush:false dir
  in
  let db = D.create_db ~durability:(`Wal cfg) () in
  D.register_class db (schema ());
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "item" [] in
           D.activate db oid "pair" [];
           oid))
  in
  (* a second commit, so the log holds two batches *)
  expect_ok
    (D.with_txn db (fun _ -> ignore (D.call db oid "deposit" [ Value.Int 1 ])));
  D.close_durability db;
  let log = Codec.of_file (Wal.wal_path dir 0) in
  let intact = Wal.scan_bytes log in
  Alcotest.(check int) "intact: both batches" 2 (List.length intact.Wal.frames);
  Alcotest.(check bool) "intact: no damage" true (intact.Wal.damage = None);
  (* decode: the first batch upserted the created object *)
  (match Wal.decode_summary (List.hd intact.Wal.frames) with
  | { Wal.s_entries = [ Wal.Upsert { oid = o; class_name; n_triggers } ]; _ } ->
    Alcotest.(check int) "upserted oid" oid o;
    Alcotest.(check string) "class carried" "item" class_name;
    Alcotest.(check int) "activation carried" 1 n_triggers
  | _ -> Alcotest.fail "unexpected first-batch summary");
  (* lost tail: chop one byte off the end *)
  (match Wal.scan_bytes (String.sub log 0 (String.length log - 1)) with
  | { Wal.frames = [ _ ]; damage = Some (Wal.Truncated _) } -> ()
  | _ -> Alcotest.fail "expected a truncated tail");
  (* torn sector: flip the last byte *)
  let b = Bytes.of_string log in
  Bytes.set b (Bytes.length b - 1)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 0xFF));
  (match Wal.scan_bytes (Bytes.to_string b) with
  | { Wal.frames = [ _ ]; damage = Some (Wal.Bad_crc { index = 1; _ }) } -> ()
  | _ -> Alcotest.fail "expected a CRC failure on the second frame");
  match Wal.scan_bytes "BOGUS bytes" with
  | { Wal.damage = Some Wal.Bad_header; _ } -> ()
  | _ -> Alcotest.fail "expected a header failure"

(* A directory in the older per-member layout of partitioned databases
   — a [group-manifest] and [p<k>/] logs, no root pair — is refused at
   attach and at recover, instead of being baselined empty beside the
   old logs. *)
let test_refuses_member_layout () =
  let dir = fresh_dir () in
  Codec.to_file (Filename.concat dir "group-manifest") "ODEGROUP1 partitions=2\n";
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
  refused "attach" (fun () -> D.create_db ~durability:(`Wal (Wal.config dir)) ());
  Alcotest.(check (option int)) "attach wrote no generation" None (Wal.latest_gen dir);
  (* recover: a database that attached to a fresh directory, which then
     took the old layout's place *)
  let dir2 = fresh_dir () in
  let db = D.create_db ~durability:(`Wal (Wal.config dir2)) () in
  Array.iter (fun f -> Sys.remove (Filename.concat dir2 f)) (Sys.readdir dir2);
  Codec.to_file (Filename.concat dir2 "group-manifest") "ODEGROUP1 partitions=2\n";
  refused "recover" (fun () -> D.recover db)

let suite =
  [
    Alcotest.test_case "crash harness, heap backend (250 points)" `Quick
      test_crash_heap;
    Alcotest.test_case "golden digests of image, log and snapshot bytes" `Quick
      test_golden_digests;
    Alcotest.test_case "checkpoint rotation" `Quick test_checkpoint_rotation;
    Alcotest.test_case "replay bound" `Quick test_replay_bound;
    Alcotest.test_case "checkpoint floor" `Quick test_checkpoint_floor;
    Alcotest.test_case "group-commit window" `Quick test_group_commit_window;
    Alcotest.test_case "ODE_DURABILITY selector" `Quick test_env_selector;
    QCheck_alcotest.to_alcotest prop_snapshot_equals_save;
    Alcotest.test_case "streamed images = image_bytes" `Quick test_streamed_images;
    Alcotest.test_case "scanner damage classification" `Quick
      test_scan_damage_classification;
    Alcotest.test_case "older per-member layout refused" `Quick
      test_refuses_member_layout;
  ]
