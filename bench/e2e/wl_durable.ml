(* durable_deposit: single-deposit commits against 100,000 accounts in
   a two-partition engine group logging to a write-ahead log with the
   Wal.config defaults (50 ms group commit, fsync on, a snapshot every
   1,000 batches). The only workload through Wal, Persist and
   Engine_group; it moves with log and checkpoint work, not with codec
   or kernel work. *)

open Common
module D = Ode_odb.Database
module Wal = Ode_odb.Wal
module Value = Ode_base.Value
module Registry = Ode_obs.Registry

let accounts = 100_000
let partitions = 2
let windows = 10

(* The account class of bench e14, except that its one perpetual
   trigger completes on every deposit (e14's never does), so the
   workload has a reaction time to report. *)
let acct_class () =
  let b = D.define_class "acct" in
  let b = D.field b "q" (Value.Int 0) in
  let b =
    D.method_ b ~kind:D.Updating "deposit" (fun db oid _ ->
        D.set_field db oid "q" (Value.add (D.get_field db oid "q") (Value.Int 1));
        Value.Unit)
  in
  D.trigger_str b ~perpetual:true "audit" ~event:"after deposit" ~action:(fun _ _ -> ())

let config dir =
  { D.Config.default with D.Config.partitions; durability = `Wal (Wal.config dir) }

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type state = { db : D.t; dir : string; oids : D.oid array }

(* The log lives in a fresh directory under $TMPDIR; population is one
   transaction, as in e14. *)
let setup ctx () =
  let dir = Filename.temp_dir "odebench-wal" "" in
  let db = D.create_db ~config:(config dir) () in
  D.register_class db (acct_class ());
  let n = scaled ctx accounts in
  let oids = Array.make n 0 in
  (match
     D.with_txn db (fun _ ->
         for i = 0 to n - 1 do
           let oid = D.create db "acct" [] in
           D.activate db oid "audit" [];
           oids.(i) <- oid
         done)
   with
  | Ok () -> ()
  | Error `Aborted -> failwith "durable: population aborted");
  { db; dir; oids }

type pass = {
  commits : int;
  aborted : int;
  ops_per_s : float;  (* the final sync_durability counted in *)
  lat_us : Samples.t;
  lag_us : Samples.t;
  commit_us : Samples.t;
}

(* Closed loop for [seconds] of one-deposit transactions on seeded
   uniform accounts, then a sync so every commit is on disk. *)
let run_pass ctx st ~seconds =
  let db = st.db and tr = ctx.tracer in
  let rs = rng ~seed:ctx.seed 3 in
  let n = Array.length st.oids in
  let lat_us = Samples.create ~windows and lag_us = Samples.create ~windows in
  let commit_us = Samples.create ~windows:1 in
  let op_start = ref 0 in
  let sub =
    D.subscribe_firings db (fun _ ->
        Samples.add lag_us (float_of_int (now_ns () - !op_start) /. 1e3))
  in
  let aborted = ref 0 in
  let win = Windows.start ~n:windows ~seconds in
  let i = ref 0 in
  while Windows.elapsed win < seconds do
    let w = Windows.current win in
    Samples.window lat_us w;
    Samples.window lag_us w;
    let oid = st.oids.(Random.State.int rs n) in
    let req = !i in
    op_start := now_ns ();
    Tracer.span tr "txn" ~req (fun () ->
        let tx = Tracer.span tr "txn.begin" ~req (fun () -> D.begin_txn db) in
        ignore (Tracer.span tr "engine.call" ~req (fun () -> D.call db oid "deposit" []));
        let c0 = now_ns () in
        (match Tracer.span tr "txn.commit" ~req (fun () -> D.commit db tx) with
        | Ok () -> ()
        | Error `Aborted -> incr aborted);
        if tr.Tracer.on then Samples.add commit_us (float_of_int (now_ns () - c0) /. 1e3));
    Samples.add lat_us (float_of_int (now_ns () - !op_start) /. 1e3);
    Windows.count win w 1;
    incr i
  done;
  Tracer.span tr "wal.sync" (fun () -> D.sync_durability db);
  (* the sync is part of the last window's time *)
  Windows.count win (Windows.current win) 0;
  let ops_per_s = Windows.rate win in
  D.unsubscribe db sub;
  { commits = !i; aborted = !aborted; ops_per_s; lat_us; lag_us; commit_us }

(* Close the log, recover a fresh database from the same directory and
   compare images; also every committed deposit must be in the image. *)
let check_and_close ctx st p =
  D.close_durability st.db;
  let live = D.image_bytes st.db in
  let sum =
    Array.fold_left (fun acc oid -> acc + Value.to_int (D.get_field st.db oid "q")) 0 st.oids
  in
  let db2 = D.create_db ~config:(config st.dir) () in
  D.register_class db2 (acct_class ());
  let t0 = now_ns () in
  Tracer.span ctx.tracer "wal.recover" (fun () -> D.recover db2);
  let recover_ms = float_of_int (now_ns () - t0) /. 1e6 in
  let same = D.image_bytes db2 = live in
  D.close_durability db2;
  rm_rf st.dir;
  ( [
      ("durable: recovered image = live image", same);
      ("durable: deposits in the image = commits", sum = p.commits - p.aborted);
    ],
    recover_ms )

(* Mean frame size over the partitions' current logs. *)
let bytes_per_batch dir =
  let frames = ref 0 and bytes = ref 0 in
  for k = 0 to partitions - 1 do
    let d = Wal.member_dir dir k in
    match Wal.latest_gen d with
    | None -> ()
    | Some g ->
      List.iter
        (fun f ->
          incr frames;
          bytes := !bytes + String.length f)
        (Wal.scan_file (Wal.wal_path d g)).Wal.frames
  done;
  if !frames = 0 then 0.0 else float_of_int !bytes /. float_of_int !frames

let run ctx =
  if not ctx.trace then begin
    let discard st =
      D.close_durability st.db;
      rm_rf st.dir
    in
    let st, setup_s, reps = timed_setups ~discard ~repeat:ctx.repeat_setup (setup ctx) in
    let p = run_pass ctx st ~seconds:ctx.seconds in
    let rss = peak_rss_mb (Unix.getpid ()) in
    let checks, _ = check_and_close ctx st p in
    {
      attempted = p.commits;
      failed = p.aborted;
      checks;
      metrics =
        end_to_end ~ops:p.ops_per_s ~ops_n:p.commits ~lat:p.lat_us ~lag:p.lag_us
          ~setup:(setup_s, reps) ~rss;
    }
  end
  else begin
    let half = ctx.seconds /. 2.0 in
    let st0 = setup ctx () in
    let plain = run_pass ctx st0 ~seconds:half in
    let checks0, _ = check_and_close ctx st0 plain in
    let st = setup ctx () in
    let obs = D.observe st.db in
    Registry.set_enabled obs true;
    ctx.tracer.Tracer.on <- true;
    let p = run_pass ctx st ~seconds:half in
    let batches = Registry.get obs Registry.Wal_batches in
    let flushes = Registry.get obs Registry.Wal_flushes in
    let snapshots = Registry.get obs Registry.Wal_snapshots in
    let bpb = bytes_per_batch st.dir in
    let image = Filename.concat st.dir "checkpoint.ode1" in
    let t0 = now_ns () in
    Tracer.span ctx.tracer "persist.save" (fun () -> D.save st.db image);
    let checkpoint_ms = float_of_int (now_ns () - t0) /. 1e6 in
    Registry.set_enabled obs false;
    let checks, recover_ms = check_and_close ctx st p in
    ctx.tracer.Tracer.on <- false;
    let tr = ctx.tracer in
    {
      attempted = plain.commits + p.commits;
      failed = plain.aborted + p.aborted;
      checks = checks0 @ checks;
      metrics =
        [
          span_us tr "txn.begin_us" "txn.begin";
          span_us tr "engine.call_us" "engine.call";
          span_us tr "txn.commit_us" "txn.commit";
          m "txn.commit_p50_us" "us" (Samples.percentile p.commit_us 0.50) ~samples:p.commits;
          m "txn.commit_p999_us" "us" (Samples.percentile p.commit_us 0.999) ~samples:p.commits;
          m "wal.batches_per_commit" "count"
            (float_of_int batches /. float_of_int p.commits)
            ~samples:p.commits;
          m "wal.flushes" "count" (float_of_int flushes);
          m "wal.snapshots" "count" (float_of_int snapshots);
          m "wal.bytes_per_batch" "B" bpb;
          m "persist.checkpoint_ms" "ms" checkpoint_ms;
          m "wal.recover_ms" "ms" recover_ms;
          m "trace.overhead_ratio" "ratio" (plain.ops_per_s /. p.ops_per_s);
        ];
    }
  end
