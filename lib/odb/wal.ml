(* Write-ahead-log durability backend.

   Commit is the durability boundary: every finished transaction (user
   commit and abort, system transactions, timer deliveries) and every
   clock advancement emits one {e batch} — a logical redo record
   carrying the oid/txn counters, the clock, a full-object upsert or a
   delete for every object the transaction touched, and the timer queue
   when it moved.

   One frame per commit makes a commit atomic by construction: a torn
   tail loses whole transactions only.

   Batches are CRC-framed and appended to the current log under a
   group-commit window. A checkpoint writes a full ODE1 snapshot (the
   exact [Persist.save] bytes — one codec path, streamed to the file)
   and starts an empty log. Recovery is snapshot + replay
   of every complete, CRC-valid frame, stopping at the first damaged
   one.

   When to checkpoint is sized by the log, not by the heap: a
   generation checkpoints once the frames appended to its log reach
   [max (checkpoint_percent% of its snapshot's bytes, checkpoint_floor)]
   (100% and 1 MiB), checked after each batch while no transaction is
   open. Writing a snapshot costs about its own size, so checkpoint
   work is amortised O(1) per logged byte whatever the heap holds; the
   log a crash leaves to replay is at most one snapshot's worth plus
   the floor plus the batch that crossed the threshold. The floor keeps
   a near-empty database, whose snapshot is a few bytes, from
   checkpointing on every commit.

   Why full-object upserts rather than fine-grained deltas derived from
   the undo log: the undo log does {e not} enumerate every mutation —
   full-history automaton advances, §9 collection in full-history mode
   and rearm bookkeeping are deliberately never undo-logged (they
   survive aborts by design). The touched-oid set is the reliable
   enumeration; serializing each touched object whole through
   [Persist.write_obj] captures all of it, keeps replay trivial, and
   makes the recovered state byte-identical to a shadow run by
   construction (pinned by test/test_wal.ml's crash-injection
   harness).

   On-disk layout, per database directory:

     snap-<g>.ode1   full image, the exact [Persist.save] bytes
     wal-<g>.log     "ODEW1" header, then frames
                     [len:4 LE][crc32:4 LE][payload]

   exactly one generation <g> pair is current. The checkpoint protocol
   writes snap-<g+1> atomically, then an empty wal-<g+1>, then removes
   the old pair — recovery picks the largest g with {e both} files
   present, so a crash between any two steps falls back to the complete
   older pair. Recovery always ends by checkpointing the recovered
   state into a fresh generation, so a damaged log tail is never
   appended to. *)

module Codec = Ode_base.Codec
module Registry = Ode_obs.Registry
module Trace = Ode_obs.Trace
open Types

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected)                                      *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := t.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  dir : string;  (* the database's log directory; created on attach *)
  flush_ms : int;
      (* group-commit window: batches buffer in memory and reach disk
         when a batch arrives at least this many ms after the last
         flush. 0 = write + sync every batch. *)
  sync_on_flush : bool;
      (* fsync after each physical write (default). Tests that only
         need same-process file contents turn it off. *)
  on_batch : (db -> unit) option;
      (* test hook, called after each batch is framed (and, under
         [flush_ms = 0], flushed): the crash harness captures its
         shadow snapshot here *)
}

let config ?(flush_ms = 50) ?(sync_on_flush = true) ?on_batch dir =
  { dir; flush_ms; sync_on_flush; on_batch }

(* The checkpoint rule of the header comment. Constants, not [config]
   fields: the ratio is what bounds both checkpoint work per logged
   byte and replay length, so no caller should need another one. *)
let checkpoint_percent = 100
let checkpoint_floor = 1 lsl 20

let log_limit ~snap_bytes =
  max (snap_bytes * checkpoint_percent / 100) checkpoint_floor

let header = "ODEW1"
let snap_path dir g = Filename.concat dir (Printf.sprintf "snap-%d.ode1" g)
let wal_path dir g = Filename.concat dir (Printf.sprintf "wal-%d.log" g)

let parse_gen ~prefix ~suffix name =
  if
    String.length name > String.length prefix + String.length suffix
    && String.sub name 0 (String.length prefix) = prefix
    && String.sub name
         (String.length name - String.length suffix)
         (String.length suffix)
       = suffix
  then
    int_of_string_opt
      (String.sub name (String.length prefix)
         (String.length name - String.length prefix - String.length suffix))
  else None

(* Largest generation with both its snapshot and its log present — the
   only pair the checkpoint protocol guarantees complete. *)
let latest_gen dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then None
  else begin
    let snaps = Hashtbl.create 8 and wals = Hashtbl.create 8 in
    Array.iter
      (fun name ->
        (match parse_gen ~prefix:"snap-" ~suffix:".ode1" name with
        | Some g -> Hashtbl.replace snaps g ()
        | None -> ());
        match parse_gen ~prefix:"wal-" ~suffix:".log" name with
        | Some g -> Hashtbl.replace wals g ()
        | None -> ())
      (Sys.readdir dir);
    Hashtbl.fold
      (fun g () best ->
        if Hashtbl.mem wals g then
          match best with Some b when b >= g -> best | _ -> Some g
        else best)
      snaps None
  end

(* ------------------------------------------------------------------ *)
(* Frames and batch payloads                                           *)
(* ------------------------------------------------------------------ *)

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int (crc32 payload));
  Bytes.blit_string payload 0 b 8 len;
  Bytes.unsafe_to_string b

type damage =
  | Bad_header
  | Truncated of { offset : int }  (* incomplete frame starts here *)
  | Bad_crc of { index : int; offset : int }

type scan_result = {
  frames : string list;  (* complete, CRC-valid payloads, log order *)
  damage : damage option;  (* why the scan stopped early, if it did *)
}

(* Walk the framing without decoding payloads. Recovery, the crash
   harness and [odec wal-dump] all share this so "how many batches
   survive" has exactly one definition. *)
let scan_bytes data =
  let n = String.length data in
  if n < String.length header || String.sub data 0 (String.length header) <> header
  then { frames = []; damage = Some Bad_header }
  else begin
    let u32 off =
      Int32.to_int (String.get_int32_le data off) land 0xFFFFFFFF
    in
    let rec go acc index off =
      if off = n then { frames = List.rev acc; damage = None }
      else if off + 8 > n then
        { frames = List.rev acc; damage = Some (Truncated { offset = off }) }
      else begin
        let len = u32 off and crc = u32 (off + 4) in
        if off + 8 + len > n then
          { frames = List.rev acc; damage = Some (Truncated { offset = off }) }
        else begin
          let payload = String.sub data (off + 8) len in
          if crc32 payload <> crc then
            { frames = List.rev acc; damage = Some (Bad_crc { index; offset = off }) }
          else go (payload :: acc) (index + 1) (off + 8 + len)
        end
      end
    in
    go [] 0 (String.length header)
  end

let scan_file path = scan_bytes (Codec.of_file path)

(* One redo batch: counters and clock always; a tagged upsert/delete
   per touched object (deduplicated, first-touch order); the whole
   timer queue when it moved since the last batch. *)
let serialize_batch db oids =
  let w = Codec.writer () in
  Codec.write_int w db.store.next_oid;
  Codec.write_int w db.txns.next_txn_id;
  Codec.write_int w (Int64.to_int db.wheel.clock_ms);
  let seen = Hashtbl.create 16 in
  let uniq =
    List.filter
      (fun oid ->
        if Hashtbl.mem seen oid then false
        else begin
          Hashtbl.add seen oid ();
          true
        end)
      oids
  in
  Codec.write_int w (List.length uniq);
  List.iter
    (fun oid ->
      match Store.find_obj db oid with
      | Some o when not o.o_deleted ->
        Codec.write_int w 0;
        Persist.write_obj w o
      | Some _ | None ->
        (* deleted (tombstoned) or already removed: redo as a removal —
           replay then matches a fresh [Persist.load], which also drops
           tombstones *)
        Codec.write_int w 1;
        Codec.write_int w oid)
    uniq;
  Codec.write_option w
    (fun w ts -> Codec.write_list w Persist.write_timer ts)
    (if db.wheel.timers_dirty then Some (Timewheel.pending db) else None);
  db.wheel.timers_dirty <- false;
  Codec.contents w

(* Replay one batch: the counters and clock, then the objects, then the
   timer queue if carried. *)
let apply_batch db payload =
  let r = Codec.reader payload in
  db.store.next_oid <- Codec.read_int r;
  db.txns.next_txn_id <- Codec.read_int r;
  Timewheel.set_clock db (Int64.of_int (Codec.read_int r));
  let n = Codec.read_int r in
  for _ = 1 to n do
    match Codec.read_int r with
    | 0 ->
      let ((oid, _, _, _) as raw) = Persist.read_obj_raw r in
      if Store.mem db oid then Store.remove_obj db oid;
      Persist.install_obj db raw
    | 1 ->
      let oid = Codec.read_int r in
      if Store.mem db oid then Store.remove_obj db oid
    | t -> raise (Codec.Corrupt (Printf.sprintf "bad WAL entry tag %d" t))
  done;
  match Codec.read_option r (fun r -> Codec.read_list r Persist.read_timer) with
  | Some timers -> Timewheel.replace db timers
  | None -> ()

(* Decoded shape for [odec wal-dump] — framing plus a per-batch summary,
   no schema needed. *)
type entry_summary =
  | Upsert of { oid : int; class_name : string; n_triggers : int }
  | Delete of int

type batch_summary = {
  s_next_oid : int;
  s_next_txn : int;
  s_clock_ms : int64;
  s_entries : entry_summary list;
  s_timers : int option;  (* [Some n]: the batch carries n timers *)
}

let decode_summary payload =
  let r = Codec.reader payload in
  let s_next_oid = Codec.read_int r in
  let s_next_txn = Codec.read_int r in
  let s_clock_ms = Int64.of_int (Codec.read_int r) in
  let n = Codec.read_int r in
  let s_entries =
    List.init n (fun _ ->
        match Codec.read_int r with
        | 0 ->
          let oid, cname, _, triggers = Persist.read_obj_raw r in
          Upsert { oid; class_name = cname; n_triggers = List.length triggers }
        | 1 -> Delete (Codec.read_int r)
        | t -> raise (Codec.Corrupt (Printf.sprintf "bad WAL entry tag %d" t)))
  in
  let s_timers =
    Option.map List.length
      (Codec.read_option r (fun r -> Codec.read_list r Persist.read_timer))
  in
  { s_next_oid; s_next_txn; s_clock_ms; s_entries; s_timers }

(* ------------------------------------------------------------------ *)
(* The backend                                                         *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A directory written by the older partitioned layout: member logs
   under [<dir>/p<k>] and a [group-manifest] at the root, but no root
   pair. Attaching would baseline an empty generation 0 beside them
   and a later [recover] would return an empty database, so both
   refuse it. *)
let refuse_member_layout dir =
  if Sys.file_exists (Filename.concat dir "group-manifest") then
    ode_error
      "WAL directory %s holds per-member logs (group-manifest, p<k>/) from \
       an older layout, which this version does not recover"
      dir

(* Where the older per-member layout kept member [k]'s log. Nothing
   writes there any more; [bench/e2e/wl_durable.ml] still sums frames
   under it. *)
let member_dir dir k = Filename.concat dir (Printf.sprintf "p%d" k)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let now_ms () = Unix.gettimeofday () *. 1000.

(* Per-instance mutable state lives in this record, closed over by the
   packed backend — each [create_db] gets its own. No file descriptor is
   held between flushes: a flush is open-append/write/[fsync]/close, so
   a test suite churning thousands of databases cannot exhaust fds. *)
type state = {
  cfg : config;
  mutable gen : int;
  mutable log_bytes : int;  (* framed into the current generation's log *)
  mutable log_limit : int;  (* [log_limit] of the generation's snapshot *)
  pending : Buffer.t;  (* framed batches not yet on disk *)
  mutable pending_batches : int;
  mutable last_flush : float;  (* ms; start of the group-commit window *)
  mutable closed : bool;
}

let flush st db =
  if Buffer.length st.pending > 0 then begin
    let fd =
      Unix.openfile
        (wal_path st.cfg.dir st.gen)
        [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
        0o644
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        write_all fd (Buffer.contents st.pending);
        if st.cfg.sync_on_flush then Unix.fsync fd);
    let obs = db.obs in
    if Registry.enabled obs then begin
      Registry.incr obs Registry.Wal_flushes;
      Registry.span obs
        (Trace.Wal_flushed
           { batches = st.pending_batches; bytes = Buffer.length st.pending })
    end;
    Buffer.clear st.pending;
    st.pending_batches <- 0
  end;
  st.last_flush <- now_ms ()

(* Write generation [g]'s pair — the snapshot of [db], then an empty
   log — and make it current. *)
let write_gen st db g =
  let snap_bytes = Persist.write_image db (snap_path st.cfg.dir g) in
  Codec.to_file (wal_path st.cfg.dir g) header;
  st.gen <- g;
  st.log_bytes <- 0;
  st.log_limit <- log_limit ~snap_bytes

(* Checkpoint: flush the log so generation [gen] is complete on disk,
   write the next generation's snapshot — the {e exact} [Persist.save]
   bytes — and empty log, then retire the old pair. *)
let checkpoint st db =
  flush st db;
  let g = st.gen in
  write_gen st db (g + 1);
  (try Sys.remove (snap_path st.cfg.dir g) with Sys_error _ -> ());
  (try Sys.remove (wal_path st.cfg.dir g) with Sys_error _ -> ());
  if Registry.enabled db.obs then Registry.incr db.obs Registry.Wal_snapshots

let emit st db oids =
  if not st.closed then begin
    let framed = frame (serialize_batch db oids) in
    Buffer.add_string st.pending framed;
    st.pending_batches <- st.pending_batches + 1;
    st.log_bytes <- st.log_bytes + String.length framed;
    if Registry.enabled db.obs then Registry.incr db.obs Registry.Wal_batches;
    if st.cfg.flush_ms <= 0 || now_ms () -. st.last_flush >= float st.cfg.flush_ms
    then flush st db;
    (* a checkpoint waits for a moment with no transaction open *)
    if st.log_bytes >= st.log_limit && db.txns.open_txns = [] then
      checkpoint st db;
    match st.cfg.on_batch with Some f -> f db | None -> ()
  end

let attach st db =
  mkdir_p st.cfg.dir;
  match latest_gen st.cfg.dir with
  | Some g ->
    (* existing state: do not touch it — the caller registers classes
       and runs [recover]; committing without recovering first is a
       caller error (batches would extend a log whose prefix was never
       replayed) *)
    st.gen <- g
  | None ->
    refuse_member_layout st.cfg.dir;
    (* fresh directory: baseline at generation 0 so a crash before the
       first commit still recovers (to the empty database) *)
    write_gen st db 0

let recover st db =
  if db.txns.open_txns <> [] then
    ode_error "cannot recover with open transactions";
  match latest_gen st.cfg.dir with
  | None ->
    refuse_member_layout st.cfg.dir;
    ode_error "no WAL state to recover in %s" st.cfg.dir
  | Some g ->
    Persist.load_image db (Codec.of_file (snap_path st.cfg.dir g));
    let { frames; damage } = scan_file (wal_path st.cfg.dir g) in
    List.iter (apply_batch db) frames;
    Buffer.clear st.pending;
    st.pending_batches <- 0;
    st.gen <- g;
    let obs = db.obs in
    if Registry.enabled obs then begin
      Registry.add obs Registry.Wal_replayed (List.length frames);
      Registry.span obs
        (Trace.Wal_recovered
           { gen = g; batches = List.length frames;
             damaged = damage <> None })
    end;
    (* re-baseline: the recovered state becomes the next generation's
       snapshot and any damaged log tail is retired with the old pair —
       nothing is ever appended after damage *)
    checkpoint st db

(* [path] gets a copy of [src] through the temp-file-and-rename path. *)
let copy_file src path =
  In_channel.with_open_bin src (fun ic ->
      Codec.with_out_file path (fun oc ->
          let buf = Bytes.create 65536 in
          let rec go () =
            let n = In_channel.input ic buf 0 (Bytes.length buf) in
            if n > 0 then begin
              Out_channel.output oc buf 0 n;
              go ()
            end
          in
          go ()))

let backend cfg =
  let st =
    {
      cfg;
      gen = 0;
      log_bytes = 0;
      log_limit = checkpoint_floor;
      pending = Buffer.create 256;
      pending_batches = 0;
      last_flush = now_ms ();
      closed = false;
    }
  in
  {
    dur_name = "wal:" ^ cfg.dir;
    dur_attach = (fun db -> attach st db);
    dur_commit = (fun db oids -> emit st db oids);
    dur_save =
      (fun db path ->
        if db.txns.open_txns <> [] then
          ode_error "cannot save with open transactions";
        (* the heap is serialized once: the checkpoint's snapshot is
           the exact [Persist.save] bytes, so the caller gets a copy *)
        checkpoint st db;
        copy_file (snap_path st.cfg.dir st.gen) path);
    dur_load =
      (fun db path ->
        Persist.load db path;
        (* buffered batches describe the pre-load state: drop them and
           re-baseline the log on what was just loaded *)
        Buffer.clear st.pending;
        st.pending_batches <- 0;
        checkpoint st db);
    dur_recover = (fun db -> recover st db);
    dur_sync = (fun db -> flush st db);
    dur_close =
      (fun db ->
        if not st.closed then begin
          flush st db;
          st.closed <- true
        end);
  }
