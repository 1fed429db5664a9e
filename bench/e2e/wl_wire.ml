(* wire_ingest: the only workload through the wire layers and the batch
   kernel. An Ode_net.Server with the default serve config (2 ms
   coalescing window, block-policy outboxes) runs in its own process
   over bench e15's meter schema. One generator thread drives two
   connections with 100-event post_many requests written directly with
   Frame + Protocol, so requests can be pipelined; each connection posts
   to its own half of the objects, and connection A is also subscribed
   to the firing stream.

   Phase 1 is an open loop of seeded Poisson arrivals at 1,000
   requests/s for two thirds of the run: each request is timed from its
   scheduled send time, and so is each firing it causes. Phase 2 is a
   closed loop for the last third, each connection keeping 8 requests in
   flight: its acknowledged events per second are the server's capacity.
   The server and the generator are pinned to different CPUs. *)

open Common
module D = Ode_odb.Database
module Server = Ode_net.Server
module Frame = Ode_net.Frame
module P = Ode_net.Protocol
module Value = Ode_base.Value

let objects = 1_024
let events_per_req = 100
let rate = 1_000  (* phase-1 requests per second *)
let depth = 8  (* phase-2 requests in flight per connection *)
let spike_q = 5  (* the Spike trigger fires on bump(q) with q > 5 *)
let windows = 10  (* per phase: phase 1's hold ~1,300 requests each *)

let schema =
  {|
  class meter {
    int total = 0;
    int spikes = 0;
  public:
    meter() { activate Spike(); }
    update void bump(int q) { total = total + q; }
    update void mark() { spikes = spikes + 1; }
  trigger:
    Spike() : perpetual after bump(q) && q > 5 ==> mark();
  };
  |}

let bump = Ode_event.Symbol.Method (After, "bump")

(* The meters are created in one transaction, so their oids are the
   consecutive range [first, first + n). *)
let populate db n =
  ignore (Ode_odl.Odl.load_schema db schema);
  match D.with_txn db (fun _ -> Array.init n (fun _ -> D.create db "meter" [])) with
  | Ok oids ->
    Array.iteri (fun i o -> if o <> oids.(0) + i then failwith "wire: oids not consecutive") oids;
    oids.(0)
  | Error `Aborted -> failwith "wire: population aborted"

(* ------------------------------------------------------------------ *)
(* Growable int arrays for the generator's records                     *)
(* ------------------------------------------------------------------ *)

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let get v i = v.a.(i)
  let set v i x = v.a.(i) <- x
  let length v = v.n
end

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; port : int; first_oid : int; n_oids : int }

let start_server ctx =
  flush_all ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    pin server_cpu;
    let code =
      try
        let config =
          {
            D.Config.default with
            D.Config.serve = { D.Config.default_serve with D.Config.port = 0 };
          }
        in
        let db = D.create_db ~config () in
        let n = scaled ctx objects in
        let first = populate db n in
        let srv = Server.create ~db ~config () in
        let oc = Unix.out_channel_of_descr w in
        Printf.fprintf oc "%d %d %d\n" (Server.port srv) first n;
        close_out oc;
        Server.run srv;
        0
      with e ->
        prerr_endline ("odebench: wire server: " ^ Printexc.to_string e);
        3
    in
    Unix._exit code
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match Scanf.sscanf_opt line "%d %d %d" (fun p f n -> (p, f, n)) with
    | Some (port, first_oid, n_oids) -> { pid; port; first_oid; n_oids }
    | None ->
      ignore (Unix.waitpid [] pid);
      failwith "wire: the server process did not start"

(* Wait for the server to exit; after [grace] seconds, kill it. *)
let reap srv ~grace =
  let deadline = Unix.gettimeofday () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      go ()
    | 0, _ ->
      (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] srv.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The generator                                                       *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  out : string Queue.t;
  mutable off : int;  (* bytes of the head frame already written *)
  mutable eof : bool;
}

type gen = {
  tr : Tracer.t;
  conns : conn array;  (* 0 = A (subscribed), 1 = B *)
  (* per request, indexed by request id *)
  r_conn : Vec.t;
  r_sched : Vec.t;  (* ns: scheduled send (phase 1) or actual send *)
  r_sent : Vec.t;
  r_ack : Vec.t;  (* ns; 0 while unanswered *)
  r_batch : Vec.t;  (* server batch serial; -1 on an error reply *)
  r_phase : Vec.t;
  (* per event, indexed by request id * events_per_req + position *)
  e_oid : Vec.t;
  e_q : Vec.t;
  (* per firing, in arrival order *)
  f_oid : Vec.t;
  f_txn : Vec.t;
  f_recv : Vec.t;
  inflight : int array;  (* unanswered requests per connection *)
  mutable acked : int;
  mutable lagged : int;
  mutable garbled : int;  (* frames that did not parse or decode *)
  ctl : (int, P.response) Hashtbl.t;  (* replies to control requests *)
  mutable next_ctl : int;
  mutable pacer : unit -> unit;
      (* sends whatever the open-loop schedule has made due; called
         between incoming frames too, so a burst of firings to parse
         does not hold back the schedule *)
  draws : Random.State.t array;  (* per connection *)
  first_oid : int;
  half : int;
  seed : int;
}

let ctl_base = 1 lsl 40

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  { fd; dec = Frame.decoder (); out = Queue.create (); off = 0; eof = false }

let flush_out c =
  let progress = ref true in
  while !progress && not (Queue.is_empty c.out) do
    let s = Queue.peek c.out in
    let len = String.length s in
    match Unix.write_substring c.fd s c.off (len - c.off) with
    | n ->
      c.off <- c.off + n;
      if c.off = len then begin
        ignore (Queue.pop c.out);
        c.off <- 0
      end
      else progress := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      progress := false
  done

let on_payload g payload =
  let msg =
    match Tracer.span g.tr "json.parse_client" (fun () -> J.of_string payload) with
    | Ok j -> P.decode_msg j
    | Error e -> Error e
  in
  match msg with
  | Ok (P.Reply (id, resp)) when id >= ctl_base -> Hashtbl.replace g.ctl id resp
  | Ok (P.Reply (id, resp)) when id >= 0 && id < Vec.length g.r_ack && Vec.get g.r_ack id = 0 ->
    Vec.set g.r_ack id (now_ns ());
    g.acked <- g.acked + 1;
    let k = Vec.get g.r_conn id in
    g.inflight.(k) <- g.inflight.(k) - 1;
    Vec.set g.r_batch id
      (match resp with
      | P.R_ok body -> (
        match J.member "batch" body with Some (J.Int b) -> b | _ -> -1)
      | P.R_error _ -> -1)
  | Ok (P.Firing f) ->
    Vec.push g.f_oid f.P.fg_oid;
    Vec.push g.f_txn f.P.fg_txn;
    Vec.push g.f_recv (now_ns ())
  | Ok (P.Lagged k) -> g.lagged <- g.lagged + k
  | Ok (P.Reply _) | Error _ -> g.garbled <- g.garbled + 1

let buf = Bytes.create 65536

let read_some g c =
  let continue = ref true in
  while !continue do
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 ->
      c.eof <- true;
      continue := false
    | n ->
      Frame.feed c.dec buf n;
      let rec drain k =
        match Frame.next c.dec with
        | Ok (Some payload) ->
          on_payload g payload;
          if k land 31 = 0 then g.pacer ();
          drain (k + 1)
        | Ok None -> ()
        | Error (`Oversized _) ->
          g.garbled <- g.garbled + 1;
          c.eof <- true
      in
      drain 1;
      if n < Bytes.length buf then continue := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      continue := false
  done

(* One select round: read whatever arrived, write whatever is queued. *)
let poll g timeout =
  let live = List.filter (fun c -> not c.eof) (Array.to_list g.conns) in
  if live = [] then failwith "wire: the server closed both connections";
  let rfds = List.map (fun c -> c.fd) live in
  let wfds = List.filter_map (fun c -> if Queue.is_empty c.out then None else Some c.fd) live in
  match Unix.select rfds wfds [] (Float.max 0.0 timeout) with
  | rs, ws, _ ->
    List.iter (fun c -> if List.memq c.fd rs then read_some g c) live;
    List.iter (fun c -> if List.memq c.fd ws then flush_out c) live
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let send_frame c payload =
  Queue.add (Frame.encode payload) c.out;
  flush_out c

(* A control request (subscribe, status, shutdown) on connection [k],
   answered before this returns. *)
let control g k req =
  let id = ctl_base + g.next_ctl in
  g.next_ctl <- g.next_ctl + 1;
  send_frame g.conns.(k) (P.encode_request ~id req);
  let deadline = Unix.gettimeofday () +. 30.0 in
  while (not (Hashtbl.mem g.ctl id)) && Unix.gettimeofday () < deadline do
    poll g 0.05
  done;
  match Hashtbl.find_opt g.ctl id with
  | Some (P.R_ok j) -> j
  | Some (P.R_error (code, msg)) -> failwith (Printf.sprintf "wire: [%s] %s" code msg)
  | None -> failwith ("wire: no reply to " ^ P.verb_of_request req)

(* Request [id] on connection [k]: 100 events on the connection's own
   half of the objects, q uniform over 0–9 from the connection's own
   seeded stream. *)
let send_post g ~k ~sched ~phase =
  let id = Vec.length g.r_conn in
  let rs = g.draws.(k) in
  let items =
    List.init events_per_req (fun _ ->
        let oid = g.first_oid + (k * g.half) + Random.State.int rs g.half in
        let q = Random.State.int rs 10 in
        Vec.push g.e_oid oid;
        Vec.push g.e_q q;
        { P.i_oid = oid; i_event = bump; i_args = [ Value.Int q ] })
  in
  let payload =
    Tracer.span g.tr "protocol.encode_request" ~req:id (fun () ->
        P.encode_request ~id (P.Post_many items))
  in
  Vec.push g.r_conn k;
  Vec.push g.r_sched sched;
  Vec.push g.r_ack 0;
  Vec.push g.r_batch (-1);
  Vec.push g.r_phase phase;
  g.inflight.(k) <- g.inflight.(k) + 1;
  let c = g.conns.(k) in
  Tracer.span g.tr "frame.write" ~req:id (fun () -> send_frame c payload);
  Vec.push g.r_sent (now_ns ())

let wait_acks g ~deadline =
  while g.acked < Vec.length g.r_conn && Unix.gettimeofday () < deadline do
    poll g 0.05
  done

type pass = {
  g : gen;
  srv : server;
  p1_reqs : int;  (* requests 0 .. p1_reqs-1 are phase 1 *)
  p2_events : int;  (* events acknowledged inside phase 2 *)
  capacity : float;  (* phase 2's acknowledged events per second *)
  cpu_s : float;  (* server CPU over both phases *)
  rss_mb : float;
  status : J.t;
}

let open_gen ctx srv =
  let half = srv.n_oids / 2 in
  if half < 1 then failwith "wire: too few objects";
  {
    tr = ctx.tracer;
    conns = [| connect srv.port; connect srv.port |];
    r_conn = Vec.create ();
    r_sched = Vec.create ();
    r_sent = Vec.create ();
    r_ack = Vec.create ();
    r_batch = Vec.create ();
    r_phase = Vec.create ();
    e_oid = Vec.create ();
    e_q = Vec.create ();
    f_oid = Vec.create ();
    f_txn = Vec.create ();
    f_recv = Vec.create ();
    inflight = [| 0; 0 |];
    acked = 0;
    lagged = 0;
    garbled = 0;
    ctl = Hashtbl.create 8;
    next_ctl = 0;
    pacer = ignore;
    draws = [| rng ~seed:ctx.seed 10; rng ~seed:ctx.seed 11 |];
    first_oid = srv.first_oid;
    half;
    seed = ctx.seed;
  }

(* Set-up: server process up (schema, population, listening socket),
   both connections open, A subscribed. *)
let setup ctx () =
  let srv = start_server ctx in
  let g = open_gen ctx srv in
  ignore (control g 0 (P.Subscribe P.Block));
  (srv, g)

let close srv g =
  (try ignore (control g 1 P.Shutdown) with Failure _ -> ());
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) g.conns;
  reap srv ~grace:10.0

let expected_firings g =
  let n = ref 0 in
  for i = 0 to Vec.length g.e_q - 1 do
    if Vec.get g.e_q i > spike_q then incr n
  done;
  !n

let run_pass (srv, g) ~seconds =
  Fun.protect
    ~finally:(fun () -> reap srv ~grace:0.0)
    (fun () ->
      let t1 = seconds *. 2.0 /. 3.0 and t2 = seconds /. 3.0 in
      let cpu0 = cpu_seconds srv.pid in
      (* phase 1: open loop, alternating connections *)
      let n1 = max 2 (int_of_float (t1 *. float_of_int rate)) in
      (* Poisson arrivals: independent users, and no fixed phase between
         the send schedule and the server's coalescing window *)
      let gaps = rng ~seed:g.seed 12 in
      let sched =
        let t = ref (now_ns () + 10_000_000) in
        Array.init n1 (fun _ ->
            let u = 1.0 -. Random.State.float gaps 1.0 in
            t := !t + int_of_float (-.log u *. 1e9 /. float_of_int rate);
            !t)
      in
      let next = ref 0 in
      let send_due () =
        let now = now_ns () in
        while !next < n1 && sched.(!next) <= now do
          send_post g ~k:(!next mod 2) ~sched:sched.(!next) ~phase:1;
          incr next
        done
      in
      g.pacer <- send_due;
      while !next < n1 do
        send_due ();
        if !next < n1 then
          poll g (float_of_int (sched.(!next) - now_ns ()) /. 1e9)
      done;
      g.pacer <- ignore;
      wait_acks g ~deadline:(Unix.gettimeofday () +. 30.0);
      (* phase 2: closed loop, [depth] requests in flight per connection *)
      let p2_start = now_ns () in
      let p2_end = p2_start + int_of_float (t2 *. 1e9) in
      while now_ns () < p2_end do
        for k = 0 to 1 do
          while g.inflight.(k) < depth && now_ns () < p2_end do
            send_post g ~k ~sched:(now_ns ()) ~phase:2
          done
        done;
        poll g 0.01
      done;
      (* capacity: events acknowledged per second, by window of phase 2,
         each window over the span between its first and last
         acknowledgement *)
      let acks = Array.make windows 0 in
      let first = Array.make windows max_int and last = Array.make windows 0 in
      for id = n1 to Vec.length g.r_conn - 1 do
        let a = Vec.get g.r_ack id in
        if a > 0 && a <= p2_end then begin
          let w = min (windows - 1) ((a - p2_start) * windows / (p2_end - p2_start)) in
          acks.(w) <- acks.(w) + 1;
          first.(w) <- min first.(w) a;
          last.(w) <- max last.(w) a
        end
      done;
      let p2_events = Array.fold_left ( + ) 0 acks * events_per_req in
      let capacity =
        better_quartile ~higher:true
          (List.filter_map
             (fun w ->
               if last.(w) > first.(w) then
                 Some
                   (float_of_int ((acks.(w) - 1) * events_per_req)
                   /. (float_of_int (last.(w) - first.(w)) /. 1e9))
               else None)
             (List.init windows Fun.id))
      in
      wait_acks g ~deadline:(Unix.gettimeofday () +. 30.0);
      let cpu1 = cpu_seconds srv.pid in
      (* the firings of the last batches may still be on their way *)
      let want = expected_firings g in
      let deadline = ref (Unix.gettimeofday () +. 5.0) in
      while Vec.length g.f_oid < want && Unix.gettimeofday () < !deadline do
        let before = Vec.length g.f_oid in
        poll g 0.05;
        if Vec.length g.f_oid > before then deadline := Unix.gettimeofday () +. 5.0
      done;
      let rss_mb = peak_rss_mb srv.pid in
      let status = control g 1 P.Status in
      close srv g;
      {
        g;
        srv;
        p1_reqs = n1;
        p2_events;
        capacity;
        cpu_s = cpu1 -. cpu0;
        rss_mb;
        status;
      })

(* ------------------------------------------------------------------ *)
(* Output checks and phase-1 timings                                   *)
(* ------------------------------------------------------------------ *)

type verdict = {
  bad_requests : int;  (* error replies and missing replies *)
  checks : (string * bool) list;
  ack_us : Samples.t;  (* phase 1, from the scheduled send *)
  late_us : Samples.t;  (* phase 1, send - scheduled *)
  lag_us : Samples.t;  (* phase 1, firing receipt - scheduled send *)
}

(* Firings for one object must arrive in the order of its q > 5 events,
   each in the server transaction of the batch its request joined. Batch
   serials and transaction ids both increase with time, and every batch
   fires, so the i-th smallest serial belongs to the i-th smallest
   firing transaction. *)
let verify p =
  let g = p.g in
  let nreq = Vec.length g.r_conn in
  let ack_us = Samples.create ~windows and late_us = Samples.create ~windows in
  let lag_us = Samples.create ~windows in
  let window id = id * windows / p.p1_reqs in
  let bad = ref 0 in
  for id = 0 to nreq - 1 do
    if Vec.get g.r_ack id = 0 || Vec.get g.r_batch id < 0 then incr bad
    else if Vec.get g.r_phase id = 1 then begin
      Samples.window ack_us (window id);
      Samples.window late_us (window id);
      let sched = Vec.get g.r_sched id in
      Samples.add ack_us (float_of_int (Vec.get g.r_ack id - sched) /. 1e3);
      Samples.add late_us (float_of_int (Vec.get g.r_sent id - sched) /. 1e3)
    end
  done;
  let distinct v n =
    let l = List.sort_uniq compare (List.init n (Vec.get v)) in
    Array.of_list (List.filter (fun x -> x >= 0) l)
  in
  let batches = distinct g.r_batch nreq in
  let txns = distinct g.f_txn (Vec.length g.f_txn) in
  let txn_of_batch = Hashtbl.create (Array.length batches) in
  if Array.length batches = Array.length txns then
    Array.iteri (fun i b -> Hashtbl.replace txn_of_batch b txns.(i)) batches;
  (* per object, its q > 5 events' request ids in posting order *)
  let pending = Hashtbl.create 1024 in
  for e = 0 to Vec.length g.e_q - 1 do
    if Vec.get g.e_q e > spike_q then begin
      let oid = Vec.get g.e_oid e in
      let q =
        match Hashtbl.find_opt pending oid with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.add pending oid q;
          q
      in
      Queue.add (e / events_per_req) q
    end
  done;
  let fifo_ok = ref (Hashtbl.length txn_of_batch > 0) in
  for f = 0 to Vec.length g.f_oid - 1 do
    match Hashtbl.find_opt pending (Vec.get g.f_oid f) with
    | Some q when not (Queue.is_empty q) ->
      let id = Queue.pop q in
      if Hashtbl.find_opt txn_of_batch (Vec.get g.r_batch id) <> Some (Vec.get g.f_txn f)
      then fifo_ok := false;
      if Vec.get g.r_phase id = 1 then begin
        Samples.window lag_us (window id);
        Samples.add lag_us (float_of_int (Vec.get g.f_recv f - Vec.get g.r_sched id) /. 1e3)
      end
    | _ -> fifo_ok := false
  done;
  let checks =
    [
      ("wire: every request acknowledged ok", !bad = 0);
      ("wire: firings = events with q > 5", Vec.length g.f_oid = expected_firings g);
      ("wire: firings per oid in FIFO order", !fifo_ok);
      ("wire: no garbled or lagged frames", g.garbled = 0 && g.lagged = 0);
    ]
  in
  { bad_requests = !bad; checks; ack_us; late_us; lag_us }

(* ------------------------------------------------------------------ *)
(* Traced replay of the recorded batches through each layer            *)
(* ------------------------------------------------------------------ *)

(* Rebuild the server's database in-process and push every recorded
   batch through the layers a server runs for it — frame decode, JSON
   parse, request decode, then begin + post_many + commit, then the
   reply and firing encodes — each call under its own span. Requests
   that shared a server batch are replayed as one batch, in send
   order. Returns the number of events replayed. *)
let replay ctx p =
  let g = p.g and tr = ctx.tracer in
  let db = D.create_db ~config:D.Config.default () in
  ignore (populate db p.srv.n_oids);
  let fired = ref [] in
  let sub =
    D.subscribe_firings db (fun f ->
        fired :=
          {
            P.fg_trigger = f.D.f_trigger;
            fg_class = f.D.f_class;
            fg_oid = f.D.f_oid;
            fg_at = f.D.f_at;
            fg_txn = f.D.f_txn;
          }
          :: !fired)
  in
  let by_batch = Hashtbl.create 1024 in
  for id = Vec.length g.r_conn - 1 downto 0 do
    let b = Vec.get g.r_batch id in
    Hashtbl.replace by_batch b (id :: Option.value ~default:[] (Hashtbl.find_opt by_batch b))
  done;
  let serials = List.sort compare (Hashtbl.fold (fun b _ acc -> b :: acc) by_batch []) in
  let dec = Frame.decoder () in
  let events = ref 0 in
  List.iter
    (fun b ->
      let ids = Hashtbl.find by_batch b in
      Tracer.span tr "replay.batch" ~req:b (fun () ->
          let items =
            List.concat_map
              (fun id ->
                let wire =
                  P.encode_request ~id
                    (P.Post_many
                       (List.init events_per_req (fun j ->
                            let e = (id * events_per_req) + j in
                            {
                              P.i_oid = Vec.get g.e_oid e;
                              i_event = bump;
                              i_args = [ Value.Int (Vec.get g.e_q e) ];
                            })))
                  |> Frame.encode |> Bytes.unsafe_of_string
                in
                let payload =
                  Tracer.span tr "frame.decode" ~req:id (fun () ->
                      Frame.feed dec wire (Bytes.length wire);
                      match Frame.next dec with
                      | Ok (Some s) -> s
                      | _ -> failwith "wire replay: frame did not decode")
                in
                let j =
                  Tracer.span tr "json.parse" ~req:id (fun () ->
                      match J.of_string payload with
                      | Ok j -> j
                      | Error e -> failwith ("wire replay: " ^ e))
                in
                match Tracer.span tr "protocol.decode_request" ~req:id (fun () -> P.decode_request j) with
                | Ok (_, P.Post_many its) ->
                  List.map (fun it -> (it.P.i_oid, it.P.i_event, it.P.i_args)) its
                | _ -> failwith "wire replay: request did not decode")
              ids
          in
          events := !events + List.length items;
          fired := [];
          let tx = Tracer.span tr "txn.begin" ~req:b (fun () -> D.begin_txn db) in
          let n =
            Tracer.span tr "engine.post_many" ~req:b ~calls:(List.length items) (fun () ->
                D.post_many db items)
          in
          (match Tracer.span tr "txn.commit" ~req:b (fun () -> D.commit db tx) with
          | Ok () -> ()
          | Error `Aborted -> failwith "wire replay: batch aborted");
          List.iter
            (fun id ->
              ignore
                (Tracer.span tr "protocol.encode_reply" ~req:id (fun () ->
                     P.encode_reply ~id
                       (P.R_ok
                          (J.Obj
                             [
                               ("batch", J.Int b);
                               ("queued", J.Int events_per_req);
                               ("firings", J.Int n);
                             ])))))
            ids;
          List.iter
            (fun f -> ignore (Tracer.span tr "protocol.encode_firing" (fun () -> P.encode_firing f)))
            (List.rev !fired)))
    (List.filter (fun b -> b >= 0) serials);
  D.unsubscribe db sub;
  !events

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

let run ctx =
  if not ctx.trace then begin
    let discard (srv, g) = close srv g in
    let st, setup_s, reps = timed_setups ~discard ~repeat:ctx.repeat_setup (setup ctx) in
    let p = run_pass st ~seconds:ctx.seconds in
    let v = verify p in
    {
      attempted = Vec.length p.g.r_conn;
      failed = v.bad_requests;
      checks = v.checks;
      metrics =
        end_to_end ~ops:p.capacity ~ops_n:p.p2_events ~lat:v.ack_us ~lag:v.lag_us
          ~setup:(setup_s, reps) ~rss:p.rss_mb;
    }
  end
  else begin
    let half = ctx.seconds /. 2.0 in
    let plain = run_pass (setup ctx ()) ~seconds:half in
    let v0 = verify plain in
    let tr = ctx.tracer in
    tr.Tracer.on <- true;
    let p = run_pass (setup ctx ()) ~seconds:half in
    let v = verify p in
    let events = replay ctx p in
    tr.Tracer.on <- false;
    let reqs = Tracer.calls tr "json.parse" in
    let per_req name = Tracer.mean_us tr name in
    let batches = Tracer.calls tr "replay.batch" in
    let per_batch name = Tracer.total_us tr name /. float_of_int (max 1 batches) in
    let req_work =
      per_req "frame.decode" +. per_req "json.parse" +. per_req "protocol.decode_request"
      +. per_req "protocol.encode_reply"
    in
    let batch_work = per_batch "txn.begin" +. per_batch "engine.post_many" +. per_batch "txn.commit" in
    let firing_work = Tracer.total_us tr "protocol.encode_firing" in
    let acked_events = (Vec.length p.g.r_conn - v.bad_requests) * events_per_req in
    let cpu_per_event = p.cpu_s *. 1e6 /. float_of_int (max 1 acked_events) in
    let layer_per_event =
      ((req_work *. float_of_int reqs) +. (batch_work *. float_of_int batches) +. firing_work)
      /. float_of_int (max 1 events)
    in
    let status_int path =
      List.fold_left
        (fun j k -> Option.bind j (J.member k))
        (Some p.status) path
      |> Option.map (function J.Int n -> n | _ -> 0)
      |> Option.value ~default:0
    in
    let posts = status_int [ "verbs"; "post_many"; "count" ] in
    let server_batches = status_int [ "server"; "batches" ] in
    {
      attempted = Vec.length plain.g.r_conn + Vec.length p.g.r_conn;
      failed = v0.bad_requests + v.bad_requests;
      checks = v0.checks @ v.checks;
      metrics =
        [
          span_us tr "frame.decode_us_per_req" "frame.decode";
          span_us tr "json.parse_us_per_req" "json.parse";
          span_us tr "protocol.decode_us_per_req" "protocol.decode_request";
          span_us tr "protocol.encode_request_us" "protocol.encode_request";
          span_us tr "protocol.encode_reply_us" "protocol.encode_reply";
          span_us tr "protocol.encode_firing_us" "protocol.encode_firing";
          span_us tr "txn.begin_us" "txn.begin";
          m "engine.post_many_ns_per_event" "ns"
            (Tracer.mean_us tr "engine.post_many" *. 1e3)
            ~samples:events;
          span_us tr "txn.commit_us" "txn.commit";
          m "server.cpu_us_per_event" "us" cpu_per_event ~samples:acked_events;
          m "server.other_cpu_us_per_event" "us" (cpu_per_event -. layer_per_event)
            ~samples:acked_events;
          m "server.reqs_per_batch" "count"
            (float_of_int posts /. float_of_int (max 1 server_batches))
            ~samples:server_batches;
          m "server.wait_p50_us" "us" (Samples.percentile v.ack_us 0.50 -. req_work -. batch_work)
            ~samples:(Samples.count v.ack_us);
          m "gen.late_p99_us" "us" (Samples.percentile v.late_us 0.99)
            ~samples:(Samples.count v.late_us);
          m "trace.overhead_ratio" "ratio" (plain.capacity /. p.capacity);
        ];
    }
  end
