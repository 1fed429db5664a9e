module D = Ode_odb.Database
module Value = Ode_base.Value
module Registry = Ode_obs.Registry
module Hist = Ode_obs.Hist
module P = Protocol

(* ------------------------------------------------------------------ *)
(* Connection state                                                    *)
(* ------------------------------------------------------------------ *)

(* The outbox is a queue of fully-encoded frames. Firing notifications
   are tagged so the bounded-outbox accounting (and the backpressure
   policies) apply to the stream, never to request replies — a reply is
   the answer to something the client just sent, so the client is
   reading. *)
type out_kind = K_firing | K_other

type conn = {
  c_fd : Unix.file_descr;
  c_dec : Frame.decoder;
  c_out : (out_kind * string) Queue.t;
  mutable c_head_off : int;  (* partial-write offset into the head frame *)
  mutable c_fir_queued : int;  (* K_firing frames currently queued *)
  mutable c_dropped : int;  (* drops since the last [lagged] notification *)
  mutable c_policy : P.policy;
  mutable c_sub : D.subscription option;
  mutable c_txn : D.txn option;
  mutable c_dead : bool;
}

type t = {
  db : D.t;
  scfg : D.Config.serve;
  listen_fd : Unix.file_descr;
  port : int;
  (* self-pipe: [stop] from another thread writes one byte to wake the
     select loop *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stopping : bool Atomic.t;
  mutable thread : Thread.t option;
  mutable conns : conn list;
  (* the post coalescer: reversed items and reversed waiting
     (connection, request id, contributed count) triples, flushed as one
     [post_many] on an idle round, when the window closes, the cap is
     hit, or a barrier verb arrives *)
  mutable b_items : (int * Ode_event.Symbol.basic * Value.t list) list;
  mutable b_n : int;
  mutable b_waiters : (conn * int * int) list;
  mutable b_deadline : float;
  mutable n_batches : int;
  mutable n_requests : int;
  mutable n_accepted : int;
  mutable n_dropped : int;
  verb_hist : (string, Hist.t) Hashtbl.t;  (* per-verb handling latency *)
  rbuf : bytes;  (* one read(2)'s bytes *)
  wbuf : bytes;  (* one write(2)'s bytes, gathered from an outbox *)
  obuf : Buffer.t;  (* the frame being encoded *)
  (* firings posted since the last encode, in order: a flush encodes
     them after its commit, before the replies it queues *)
  fired : (conn * P.firing) Queue.t;
  (* the server loop's stages (see [stage_names]): cumulative wall ns
     and counts, split by a clock read at each change of stage *)
  st_ns : int array;
  st_n : int array;
  mutable st_cur : int;
  mutable st_t0 : int;
}

let s_select = 0  (* blocked in select(2); n = rounds *)
let s_read = 1  (* accept, read(2), framing, the idle check; n = reads *)
let s_decode = 2  (* payload -> request; n = requests *)
let s_handle = 3  (* verbs and the coalescer; n = requests not coalesced *)
let s_flush = 4  (* a batch's post_many and commit; n = batches *)
let s_encode = 5  (* replies and firings -> frames; n = frames *)
let s_write = 6  (* gathering outboxes, write(2); n = writes *)

let stage_names = [| "select"; "read"; "decode"; "handle"; "flush"; "encode"; "write" |]

(* Close the current stage at the clock and open [s]; returns the stage
   it closed, for a nested stage to restore. *)
let enter t s =
  let now = Registry.now_ns () in
  let cur = t.st_cur in
  t.st_ns.(cur) <- t.st_ns.(cur) + (now - t.st_t0);
  t.st_t0 <- now;
  t.st_cur <- s;
  cur

let count t s = t.st_n.(s) <- t.st_n.(s) + 1

type stats = {
  s_connections : int;
  s_accepted : int;
  s_requests : int;
  s_batches : int;
  s_dropped : int;
}

let db t = t.db
let port t = t.port

let stats t =
  {
    s_connections = List.length t.conns;
    s_accepted = t.n_accepted;
    s_requests = t.n_requests;
    s_batches = t.n_batches;
    s_dropped = t.n_dropped;
  }

let create ?db ~(config : D.Config.t) () =
  (* a peer that vanishes mid-write must surface as EPIPE on the write,
     not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let db = match db with Some db -> db | None -> D.create_db ~config () in
  let scfg = config.D.Config.serve in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  let addr =
    Unix.ADDR_INET (Client.resolve_host scfg.D.Config.host, scfg.D.Config.port)
  in
  (match Unix.bind listen_fd addr with
  | () -> ()
  | exception e ->
    Unix.close listen_fd;
    raise e);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> scfg.D.Config.port
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  {
    db;
    scfg;
    listen_fd;
    port;
    wake_r;
    wake_w;
    stopping = Atomic.make false;
    thread = None;
    conns = [];
    b_items = [];
    b_n = 0;
    b_waiters = [];
    b_deadline = 0.0;
    n_batches = 0;
    n_requests = 0;
    n_accepted = 0;
    n_dropped = 0;
    verb_hist = Hashtbl.create 16;
    rbuf = Bytes.create 65536;
    wbuf = Bytes.create 65536;
    obuf = Buffer.create 256;
    fired = Queue.create ();
    st_ns = Array.make (Array.length stage_names) 0;
    st_n = Array.make (Array.length stage_names) 0;
    st_cur = s_select;
    st_t0 = Registry.now_ns ();
  }

(* ------------------------------------------------------------------ *)
(* Output path                                                         *)
(* ------------------------------------------------------------------ *)

(* Copy the outbox, from the unwritten part of its head frame on, into
   [wbuf] until it is full; returns the byte count. *)
let gather t conn =
  let cap = Bytes.length t.wbuf in
  let len = ref 0 and skip = ref conn.c_head_off in
  (try
     Queue.iter
       (fun (_, s) ->
         let k = min (String.length s - !skip) (cap - !len) in
         Bytes.blit_string s !skip t.wbuf !len k;
         len := !len + k;
         skip := 0;
         if !len = cap then raise_notrace Exit)
       conn.c_out
   with Exit -> ());
  !len

(* Drop the first [n] written bytes from the outbox: whole frames are
   popped, a partly written head frame keeps its offset. *)
let consume conn n =
  let n = ref n in
  while !n > 0 do
    let kind, s = Queue.peek conn.c_out in
    let rest = String.length s - conn.c_head_off in
    if !n >= rest then begin
      ignore (Queue.pop conn.c_out);
      conn.c_head_off <- 0;
      if kind = K_firing then conn.c_fir_queued <- conn.c_fir_queued - 1;
      n := !n - rest
    end
    else begin
      conn.c_head_off <- conn.c_head_off + !n;
      n := 0
    end
  done

(* Write queued frames until the socket would block, as one write(2) per
   64 KiB of outbox. A hard write error only marks the connection dead —
   teardown (unsubscribe, abort, close) happens in the main loop's
   sweep, never from inside the posting pipeline. *)
let write_some t conn =
  try
    let more = ref true in
    while !more && not (Queue.is_empty conn.c_out) do
      let len = gather t conn in
      count t s_write;
      let n = Unix.single_write conn.c_fd t.wbuf 0 len in
      consume conn n;
      more := n = len
    done
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error _ | Sys_error _ -> conn.c_dead <- true

(* Frame [obuf]'s contents onto the outbox. *)
let enqueue t conn kind =
  count t s_encode;
  Queue.add (kind, Frame.of_buffer t.obuf) conn.c_out

let encode_fired t =
  while not (Queue.is_empty t.fired) do
    let conn, f = Queue.pop t.fired in
    if not conn.c_dead then begin
      Buffer.clear t.obuf;
      P.add_firing t.obuf f;
      enqueue t conn K_firing
    end
  done

(* Every frame other than a firing goes out behind the firings posted
   before it, as it did when firings were encoded on the spot. *)
let push_other t conn write =
  encode_fired t;
  if not conn.c_dead then begin
    Buffer.clear t.obuf;
    write t.obuf;
    enqueue t conn K_other
  end

let reply t conn ~id resp = push_other t conn (fun b -> P.add_reply b ~id resp)

let batch_reply t conn ~id ~batch ~queued ~firings =
  push_other t conn (fun b -> P.add_batch_reply b ~id ~batch ~queued ~firings)

(* The Block policy: stall right here — inside the posting pipeline —
   until this subscriber's outbox has room or the subscriber dies.
   This is the documented contract: block-policy subscribers are
   lossless, and one that stops reading stops the server. *)
let drain_until_room t conn =
  encode_fired t;
  while (not conn.c_dead) && conn.c_fir_queued >= t.scfg.D.Config.outbox_bound do
    match Unix.select [] [ conn.c_fd ] [] 1.0 with
    | _, w, _ -> if w <> [] then write_some t conn
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* A firing counts against the outbox bound from the moment it is
   posted; its frame is encoded later, by [encode_fired]. *)
let fire t conn (f : D.firing) =
  Queue.add
    ( conn,
      {
        P.fg_trigger = f.D.f_trigger;
        fg_class = f.D.f_class;
        fg_oid = f.D.f_oid;
        fg_at = f.D.f_at;
        fg_txn = f.D.f_txn;
      } )
    t.fired;
  conn.c_fir_queued <- conn.c_fir_queued + 1

let push_firing t conn (f : D.firing) =
  if not conn.c_dead then begin
    let bound = t.scfg.D.Config.outbox_bound in
    match conn.c_policy with
    | P.Drop when conn.c_fir_queued >= bound ->
      conn.c_dropped <- conn.c_dropped + 1;
      t.n_dropped <- t.n_dropped + 1;
      let obs = D.observe t.db in
      if Registry.enabled obs then Registry.incr obs Registry.Net_outbox_dropped
    | P.Drop ->
      if conn.c_dropped > 0 then begin
        push_other t conn (fun b -> P.add_lagged b conn.c_dropped);
        conn.c_dropped <- 0
      end;
      fire t conn f
    | P.Block ->
      if conn.c_fir_queued >= bound then drain_until_room t conn;
      fire t conn f
  end

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)
(* ------------------------------------------------------------------ *)

let items_of ps = List.map (fun it -> (it.P.i_oid, it.P.i_event, it.P.i_args)) ps

(* Flush the coalesced batch as one [post_many] inside one server
   transaction, then answer every request that contributed. All the
   coalesced posts came from clients with no open transaction, so order
   within the batch is arrival order and the outcome is exactly what
   the same merged sequence produces through the in-process API (the
   equivalence property in test/test_net.ml). *)
let flush_batch t =
  if t.b_n > 0 then begin
    let prev = enter t s_flush in
    count t s_flush;
    let items = List.rev t.b_items in
    let waiters = List.rev t.b_waiters in
    t.b_items <- [];
    t.b_n <- 0;
    t.b_waiters <- [];
    t.n_batches <- t.n_batches + 1;
    let serial = t.n_batches in
    let fired = ref 0 in
    let outcome =
      match D.with_txn t.db (fun _ -> fired := D.post_many t.db items) with
      | Ok () -> Ok !fired
      | Error `Aborted -> Error (P.err_aborted, "batch aborted")
      | exception D.Ode_error msg -> Error (P.err_ode, msg)
      | exception D.Lock_conflict oid ->
        Error (P.err_ode, Printf.sprintf "lock conflict on oid %d" oid)
      | exception Value.Type_error msg -> Error (P.err_ode, "type error: " ^ msg)
      (* last resort: flush_batch also runs from the select loop's flush
         triggers, so anything escaping here would both kill the server
         and leave every coalesced waiter without a reply *)
      | exception e -> Error (P.err_ode, "internal error: " ^ Printexc.to_string e)
    in
    ignore (enter t s_encode);
    List.iter
      (fun (conn, id, n) ->
        match outcome with
        | Ok total -> batch_reply t conn ~id ~batch:serial ~queued:n ~firings:total
        | Error (code, msg) -> reply t conn ~id (P.R_error (code, msg)))
      waiters;
    ignore (enter t prev)
  end

let due t now = t.b_n > 0 && now >= t.b_deadline
let window_s t = float_of_int t.scfg.D.Config.batch_window_ms /. 1000.0

(* Run [f] for a connection that holds no transaction: begin/commit
   around it, mapping the abort outcomes onto wire errors. *)
let in_auto_txn t f =
  match D.with_txn t.db (fun _ -> f ()) with
  | Ok j -> P.R_ok j
  | Error `Aborted -> P.R_error (P.err_aborted, "transaction aborted")
  | exception D.Ode_error msg -> P.R_error (P.err_ode, msg)
  | exception D.Lock_conflict oid ->
    P.R_error (P.err_ode, Printf.sprintf "lock conflict on oid %d" oid)
  | exception Value.Type_error msg -> P.R_error (P.err_ode, "type error: " ^ msg)

(* Run [f] inside the connection's open transaction. [Tabort] from a
   trigger action aborts that transaction — the wire client learns via
   [err_aborted] and the transaction is gone. *)
let in_conn_txn t conn tx f =
  D.switch_txn t.db tx;
  match f () with
  | j -> P.R_ok j
  | exception D.Tabort ->
    conn.c_txn <- None;
    (try D.abort t.db tx with _ -> ());
    P.R_error (P.err_aborted, "transaction aborted")
  | exception D.Lock_conflict oid ->
    conn.c_txn <- None;
    (try D.abort t.db tx with _ -> ());
    P.R_error (P.err_ode, Printf.sprintf "lock conflict on oid %d" oid)
  | exception D.Ode_error msg -> P.R_error (P.err_ode, msg)
  | exception Value.Type_error msg -> P.R_error (P.err_ode, "type error: " ^ msg)

let status_json t =
  let module J = Json in
  let d = D.stats t.db in
  let verb_rows =
    Hashtbl.fold
      (fun verb h acc ->
        ( verb,
          J.Obj
            [
              ("count", J.Int (Hist.count h));
              ("p50_us", J.Float (float_of_int (Hist.quantile_ns h 0.5) /. 1e3));
              ("p99_us", J.Float (float_of_int (Hist.quantile_ns h 0.99) /. 1e3));
              ("max_us", J.Float (float_of_int (Hist.max_ns h) /. 1e3));
            ] )
        :: acc)
      t.verb_hist []
  in
  J.Obj
    [
      ("config", J.String (D.config_summary t.db));
      ( "server",
        J.Obj
          [
            ("port", J.Int t.port);
            ("connections", J.Int (List.length t.conns));
            ("accepted", J.Int t.n_accepted);
            ("requests", J.Int t.n_requests);
            ("batches", J.Int t.n_batches);
            ("outbox_dropped", J.Int t.n_dropped);
            ("subscribers", J.Int (D.subscriber_count t.db));
            ("batch_window_ms", J.Int t.scfg.D.Config.batch_window_ms);
            ("outbox_bound", J.Int t.scfg.D.Config.outbox_bound);
            ( "stages",
              J.Obj
                (Array.to_list
                   (Array.mapi
                      (fun i name ->
                        (name, J.Obj [ ("ns", J.Int t.st_ns.(i)); ("n", J.Int t.st_n.(i)) ]))
                      stage_names)) );
          ] );
      ( "db",
        J.Obj
          [
            ("objects", J.Int d.D.n_objects);
            ("classes", J.Int d.D.n_classes);
            ("active_triggers", J.Int d.D.n_active_triggers);
            ("timers", J.Int d.D.n_timers);
            ("state_bytes", J.Int d.D.state_bytes);
            ("clock_ms", J.Int (Int64.to_int (D.now t.db)));
          ] );
      ("verbs", J.Obj (List.sort compare verb_rows));
    ]

let handle_request t conn ~id (req : P.request) =
  let barrier () = flush_batch t in
  match req with
  | P.Post it when conn.c_txn = None ->
    (* the coalescer path: no reply yet — it comes with the flush *)
    if t.b_n = 0 then t.b_deadline <- Unix.gettimeofday () +. window_s t;
    t.b_items <- (it.P.i_oid, it.P.i_event, it.P.i_args) :: t.b_items;
    t.b_n <- t.b_n + 1;
    t.b_waiters <- (conn, id, 1) :: t.b_waiters;
    if t.b_n >= t.scfg.D.Config.max_batch then flush_batch t
  | P.Post_many [] when conn.c_txn = None ->
    (* a true no-op: answered on the spot — enrolling a zero-item waiter
       would wait on a window that [due] never opens (it watches
       [b_n > 0]), and routing it through the flush would spend a
       server transaction (and a WAL batch record) on posting nothing.
       [batch = 0] marks "joined no batch". *)
    batch_reply t conn ~id ~batch:0 ~queued:0 ~firings:0
  | P.Post_many its when conn.c_txn = None ->
    if t.b_n = 0 then t.b_deadline <- Unix.gettimeofday () +. window_s t;
    List.iter
      (fun it -> t.b_items <- (it.P.i_oid, it.P.i_event, it.P.i_args) :: t.b_items)
      its;
    t.b_n <- t.b_n + List.length its;
    t.b_waiters <- (conn, id, List.length its) :: t.b_waiters;
    if t.b_n >= t.scfg.D.Config.max_batch then flush_batch t
  | P.Post it ->
    barrier ();
    let tx = Option.get conn.c_txn in
    reply t conn ~id
      (in_conn_txn t conn tx (fun () ->
           let n = D.post_many t.db (items_of [ it ]) in
           Json.Obj [ ("firings", Json.Int n) ]))
  | P.Post_many its ->
    barrier ();
    let tx = Option.get conn.c_txn in
    reply t conn ~id
      (in_conn_txn t conn tx (fun () ->
           let n = D.post_many t.db (items_of its) in
           Json.Obj [ ("firings", Json.Int n) ]))
  | P.Status ->
    barrier ();
    reply t conn ~id (P.R_ok (status_json t))
  | P.Schema src -> (
    barrier ();
    match Ode_odl.Odl.load_schema t.db src with
    | classes ->
      reply t conn ~id
        (P.R_ok
           (Json.Obj
              [ ("classes", Json.List (List.map (fun c -> Json.String c) classes)) ]))
    | exception Ode_odl.Odl.Odl_error (msg, pos) ->
      reply t conn ~id
        (P.R_error (P.err_ode, Printf.sprintf "ODL error at offset %d: %s" pos msg))
    | exception D.Ode_error msg -> reply t conn ~id (P.R_error (P.err_ode, msg)))
  | P.Create (cls, args) ->
    barrier ();
    let mk () = Json.Obj [ ("oid", Json.Int (D.create t.db cls args)) ] in
    reply t conn ~id
      (match conn.c_txn with
      | Some tx -> in_conn_txn t conn tx mk
      | None -> in_auto_txn t mk)
  | P.Call (oid, name, args) ->
    barrier ();
    let mk () =
      Json.Obj [ ("result", P.encode_value (D.call t.db oid name args)) ]
    in
    reply t conn ~id
      (match conn.c_txn with
      | Some tx -> in_conn_txn t conn tx mk
      | None -> in_auto_txn t mk)
  | P.Tbegin ->
    barrier ();
    reply t conn ~id
      (match conn.c_txn with
      | Some _ -> P.R_error (P.err_state, "transaction already open")
      | None -> (
        match D.begin_txn t.db with
        | tx ->
          conn.c_txn <- Some tx;
          P.R_ok (Json.Obj [ ("txn", Json.Int (D.txn_id tx)) ])
        | exception D.Ode_error msg -> P.R_error (P.err_ode, msg)))
  | P.Tcommit ->
    barrier ();
    reply t conn ~id
      (match conn.c_txn with
      | None -> P.R_error (P.err_state, "no open transaction")
      | Some tx -> (
        conn.c_txn <- None;
        match D.commit t.db tx with
        | Ok () -> P.R_ok (Json.Obj [ ("committed", Json.Bool true) ])
        | Error `Aborted -> P.R_error (P.err_aborted, "transaction aborted")
        | exception D.Ode_error msg -> P.R_error (P.err_ode, msg)))
  | P.Tabort ->
    barrier ();
    reply t conn ~id
      (match conn.c_txn with
      | None -> P.R_error (P.err_state, "no open transaction")
      | Some tx -> (
        conn.c_txn <- None;
        match D.abort t.db tx with
        | () -> P.R_ok (Json.Obj [ ("aborted", Json.Bool true) ])
        | exception D.Ode_error msg -> P.R_error (P.err_ode, msg)))
  | P.Advance_clock ms ->
    barrier ();
    reply t conn ~id
      (match D.advance_clock t.db ms with
      | () -> P.R_ok (Json.Obj [ ("now", Json.Int (Int64.to_int (D.now t.db))) ])
      | exception D.Ode_error msg -> P.R_error (P.err_ode, msg))
  | P.Save path ->
    barrier ();
    reply t conn ~id
      (match D.save t.db path with
      | () -> P.R_ok (Json.Obj [ ("saved", Json.String path) ])
      | exception D.Ode_error msg -> P.R_error (P.err_ode, msg)
      | exception Sys_error msg -> P.R_error (P.err_ode, msg))
  | P.Subscribe policy ->
    barrier ();
    reply t conn ~id
      (match conn.c_sub with
      | Some _ -> P.R_error (P.err_state, "already subscribed")
      | None ->
        conn.c_policy <- policy;
        conn.c_sub <- Some (D.subscribe_firings t.db (fun f -> push_firing t conn f));
        P.R_ok
          (Json.Obj
             [
               ( "policy",
                 Json.String (match policy with P.Block -> "block" | P.Drop -> "drop")
               );
             ]))
  | P.Unsubscribe ->
    barrier ();
    reply t conn ~id
      (match conn.c_sub with
      | None -> P.R_error (P.err_state, "not subscribed")
      | Some sub ->
        D.unsubscribe t.db sub;
        conn.c_sub <- None;
        P.R_ok (Json.Obj [ ("unsubscribed", Json.Bool true) ]))
  | P.Shutdown ->
    barrier ();
    reply t conn ~id (P.R_ok (Json.Obj [ ("stopping", Json.Bool true) ]));
    Atomic.set t.stopping true

let verb_hist t verb =
  match Hashtbl.find_opt t.verb_hist verb with
  | Some h -> h
  | None ->
    let h = Hist.create () in
    Hashtbl.add t.verb_hist verb h;
    h

let handle_payload t conn b off len =
  t.n_requests <- t.n_requests + 1;
  let obs = D.observe t.db in
  if Registry.enabled obs then Registry.incr obs Registry.Net_requests;
  let prev = enter t s_decode in
  count t s_decode;
  let decoded = P.decode_payload b off len in
  ignore (enter t s_handle);
  (match decoded with
  | Error (id, code, msg) -> reply t conn ~id (P.R_error (code, msg))
  | Ok (id, req) ->
    (match req with
    | (P.Post _ | P.Post_many _) when conn.c_txn = None -> ()
    | _ -> count t s_handle);
    let t0 = Registry.now_ns () in
    (* exception barrier: one bad request must never take down the
       select loop — anything the verb handlers did not map to a wire
       error themselves becomes an error reply on this connection *)
    (try handle_request t conn ~id req
     with e ->
       reply t conn ~id (P.R_error (P.err_ode, "internal error: " ^ Printexc.to_string e)));
    Hist.record (verb_hist t (P.verb_of_request req)) (Registry.now_ns () - t0));
  ignore (enter t prev)

(* ------------------------------------------------------------------ *)
(* Connection lifecycle                                                *)
(* ------------------------------------------------------------------ *)

(* Full teardown — the "small fix" invariant: a dropped connection takes
   its subscription, its open transaction and its outbox with it, so a
   connect/subscribe/disconnect storm leaves the database exactly where
   it started (pinned by test_net's leak test). Only ever called from
   the main loop, never from inside the posting pipeline. *)
let teardown t conn =
  conn.c_dead <- true;
  (match conn.c_sub with
  | Some sub ->
    D.unsubscribe t.db sub;
    conn.c_sub <- None
  | None -> ());
  (match conn.c_txn with
  | Some tx ->
    conn.c_txn <- None;
    (try D.abort t.db tx with _ -> ())
  | None -> ());
  Queue.clear conn.c_out;
  (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c -> not (c == conn)) t.conns

(* [Unix.select] is limited to fds below FD_SETSIZE (1024); past the cap
   we stop accepting (and stop polling the listen socket), so excess
   connection attempts wait in the kernel backlog instead of pushing an
   fd into select's undefined range and crashing the loop. *)
let max_conns = 960

let accept_loop t =
  let continue = ref true in
  while !continue && List.length t.conns < max_conns do
    match Unix.accept t.listen_fd with
    | fd, _addr ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      let conn =
        {
          c_fd = fd;
          c_dec = Frame.decoder ~max:t.scfg.D.Config.max_frame_bytes ();
          c_out = Queue.create ();
          c_head_off = 0;
          c_fir_queued = 0;
          c_dropped = 0;
          c_policy =
            (match t.scfg.D.Config.backpressure with
            | D.Config.Block -> P.Block
            | D.Config.Drop -> P.Drop);
          c_sub = None;
          c_txn = None;
          c_dead = false;
        }
      in
      t.conns <- conn :: t.conns;
      t.n_accepted <- t.n_accepted + 1;
      let obs = D.observe t.db in
      if Registry.enabled obs then Registry.incr obs Registry.Net_connections
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let pump_reads t conn =
  let continue = ref true in
  while !continue && not conn.c_dead do
    count t s_read;
    match Unix.read conn.c_fd t.rbuf 0 (Bytes.length t.rbuf) with
    | 0 ->
      (* EOF: a peer that died mid-frame is torn down like any other *)
      conn.c_dead <- true;
      continue := false
    | n ->
      Frame.feed conn.c_dec t.rbuf n;
      let drain = ref true in
      while !drain && not conn.c_dead do
        match Frame.next_slice conn.c_dec with
        | Ok (Some (b, off, len)) -> handle_payload t conn b off len
        | Ok None -> drain := false
        | Error (`Oversized len) ->
          (* unrecoverable for a length-prefixed stream: tell the peer,
             then drop it (best-effort — the write may fail) *)
          reply t conn ~id:(-1)
            (P.R_error
               ( P.err_parse,
                 Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len
                   t.scfg.D.Config.max_frame_bytes ));
          write_some t conn;
          conn.c_dead <- true;
          drain := false
      done;
      if n < Bytes.length t.rbuf then continue := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) ->
      conn.c_dead <- true;
      continue := false
  done

let drain_wake t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r b 0 64 with
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* No connection has unread input: a zero-timeout select over them. *)
let idle t =
  let fds = List.filter_map (fun c -> if c.c_dead then None else Some c.c_fd) t.conns in
  match Unix.select fds [] [] 0.0 with
  | [], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* Write every outbox with frames queued, the ones this round's flush
   filled included. *)
let write_round t =
  encode_fired t;
  List.iter (fun c -> if not (c.c_dead || Queue.is_empty c.c_out) then write_some t c) t.conns

let run t =
  t.st_t0 <- Registry.now_ns ();
  while not (Atomic.get t.stopping) do
    let now = Unix.gettimeofday () in
    let timeout =
      if t.b_n > 0 then Float.max 0.0 (t.b_deadline -. now) else 0.25
    in
    let readers =
      let conn_fds = t.wake_r :: List.map (fun c -> c.c_fd) t.conns in
      if List.length t.conns < max_conns then t.listen_fd :: conn_fds
      else conn_fds
    in
    let writers =
      List.filter_map
        (fun c -> if Queue.is_empty c.c_out then None else Some c.c_fd)
        t.conns
    in
    ignore (enter t s_select);
    count t s_select;
    (match Unix.select readers writers [] timeout with
    | rs, _, _ ->
      ignore (enter t s_read);
      if List.memq t.wake_r rs then drain_wake t;
      if List.memq t.listen_fd rs then accept_loop t;
      List.iter (fun c -> if List.memq c.c_fd rs then pump_reads t c) t.conns;
      (* the batch closes on an idle round (no connection has unread
         input), at the window's deadline, or on every round when
         [batch_window_ms = 0]; the cap and the barrier verbs close it
         from [handle_request] *)
      if t.b_n > 0
         && (t.scfg.D.Config.batch_window_ms = 0
            || due t (Unix.gettimeofday ())
            || idle t)
      then flush_batch t;
      ignore (enter t s_write);
      write_round t
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    (* sweep: teardown everything that died this iteration *)
    List.iter (fun c -> if c.c_dead then teardown t c) t.conns
  done;
  (* orderly shutdown: answer the posts still in the window, then give
     each client a bounded chance to drain its outbox *)
  flush_batch t;
  encode_fired t;
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec drain () =
    let pending =
      List.filter_map
        (fun c ->
          if c.c_dead || Queue.is_empty c.c_out then None else Some c.c_fd)
        t.conns
    in
    if pending <> [] && Unix.gettimeofday () < deadline then begin
      (match Unix.select [] pending [] 0.1 with
      | _, ws, _ ->
        List.iter (fun c -> if List.memq c.c_fd ws then write_some t c) t.conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      drain ()
    end
  in
  drain ();
  List.iter (fun c -> teardown t c) t.conns;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()

let start t = t.thread <- Some (Thread.create run t)

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    match Unix.write t.wake_w (Bytes.of_string "x") 0 1 with
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  end;
  match t.thread with
  | Some th ->
    t.thread <- None;
    Thread.join th
  | None -> ()
