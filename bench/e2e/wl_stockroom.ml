(* stockroom_txn: the paper's §3.5 stockroom (T1–T8 active) scaled to
   64 stockRoom objects of 16 items each, driven by single-call
   transactions in a closed loop — the per-call posting path
   (Database.call posting ~7 basic events against 8 triggers, masks,
   tcomplete, abort/undo) with no wire, no batch kernel and no log. *)

open Common
module D = Ode_odb.Database
module S = Ode_scenarios.Stockroom
module Value = Ode_base.Value
module Registry = Ode_obs.Registry

let rooms = 64
let items_per_room = 16
let initial_balance = 1_000
let eoq = 50
let hour_ms = 3_600_000L
let windows = 20

type state = { sr : S.t; room : D.oid array; item : D.oid array array }

(* One more stockRoom is one more object of the scenario's class: its
   constructor activates T1–T8 exactly as for the first. *)
let setup ctx () =
  let sr = S.setup () in
  let n = scaled ctx rooms in
  let room =
    Array.init n (fun r ->
        if r = 0 then sr.S.stockroom
        else
          match D.with_txn sr.S.db (fun _ -> D.create sr.S.db "stockRoom" []) with
          | Ok oid -> oid
          | Error `Aborted -> failwith "stockroom: room creation aborted")
  in
  let item =
    Array.map
      (fun _ ->
        Array.init items_per_room (fun i ->
            S.new_item sr ~name:(Printf.sprintf "item%d" i) ~eoq ~balance:initial_balance))
      room
  in
  { sr; room; item }

type pass = {
  txns : int;
  ops_per_s : float;
  lat_us : Samples.t;
  lag_us : Samples.t;
  unexpected : int;  (* aborts T1 should not have caused, or T1 misses *)
  t1_aborts : int;
  unauthorized_withdrawals : int;
  logs : int array;  (* per room: committed withdrawals with qty > 100 *)
  delta : int array array;  (* per item: committed deposits - withdrawals *)
  counts : (Registry.counter * int) list;  (* registry at [count_at] txns *)
}

let counted =
  Registry.
    [
      Posts;
      Classified;
      Index_skipped;
      Transitions;
      Firings;
      Tcomplete_rounds;
      Undo_entries;
    ]

(* Closed loop for [seconds]: 70% withdrawals, 30% deposits, quantity
   uniform over 1–200, 5% from an unauthorized user (T1 aborts those
   withdrawals), one simulated hour every 10,000 transactions. *)
let run_pass ctx st ~seconds ~count_at =
  let db = st.sr.S.db in
  let tr = ctx.tracer in
  let obs = D.observe db in
  let rs = rng ~seed:ctx.seed 1 in
  let hour_every = scaled ctx 10_000 in
  let nrooms = Array.length st.room in
  let lat_us = Samples.create ~windows and lag_us = Samples.create ~windows in
  let op_start = ref 0 in
  let sub =
    D.subscribe_firings db (fun _ ->
        Samples.add lag_us (float_of_int (now_ns () - !op_start) /. 1e3))
  in
  let logs = Array.make nrooms 0 in
  let delta = Array.map (fun a -> Array.make (Array.length a) 0) st.item in
  let unexpected = ref 0 and t1_aborts = ref 0 and unauth_w = ref 0 in
  let counts = ref [] in
  let win = Windows.start ~n:windows ~seconds in
  let i = ref 0 in
  while Windows.elapsed win < seconds do
    let w = Windows.current win in
    Samples.window lat_us w;
    Samples.window lag_us w;
    let r = Random.State.int rs nrooms in
    let k = Random.State.int rs items_per_room in
    let withdraw = Random.State.int rs 100 < 70 in
    let qty = 1 + Random.State.int rs 200 in
    let unauthorized = Random.State.int rs 100 < 5 in
    st.sr.S.current_user <- (if unauthorized then "mallory" else "amy");
    let meth = if withdraw then "withdraw" else "deposit" in
    let args = [ Value.Oid st.item.(r).(k); Value.Int qty ] in
    let req = !i in
    op_start := now_ns ();
    (* Database.with_txn, spelled out so each layer call gets its span *)
    let committed =
      Tracer.span tr "txn" ~req (fun () ->
          let tx = Tracer.span tr "txn.begin" ~req (fun () -> D.begin_txn db) in
          match Tracer.span tr "engine.call" ~req (fun () -> D.call db st.room.(r) meth args) with
          | _ -> (
            match Tracer.span tr "txn.commit" ~req (fun () -> D.commit db tx) with
            | Ok () -> true
            | Error `Aborted -> false)
          | exception D.Tabort ->
            Tracer.span tr "txn.abort" ~req (fun () -> D.abort db tx);
            false)
    in
    Samples.add lat_us (float_of_int (now_ns () - !op_start) /. 1e3);
    let t1_case = withdraw && unauthorized in
    if t1_case then incr unauth_w;
    if committed = t1_case then incr unexpected;
    if (not committed) && t1_case then incr t1_aborts;
    if committed then begin
      delta.(r).(k) <- delta.(r).(k) + (if withdraw then -qty else qty);
      if withdraw && qty > 100 then logs.(r) <- logs.(r) + 1
    end;
    Windows.count win w 1;
    incr i;
    if !i = count_at then counts := List.map (fun c -> (c, Registry.get obs c)) counted;
    if !i mod hour_every = 0 then begin
      op_start := now_ns ();
      Tracer.span tr "timewheel.advance" (fun () -> D.advance_clock db hour_ms)
    end
  done;
  let ops_per_s = Windows.rate win in
  D.unsubscribe db sub;
  {
    txns = !i;
    ops_per_s;
    lat_us;
    lag_us;
    unexpected = !unexpected;
    t1_aborts = !t1_aborts;
    unauthorized_withdrawals = !unauth_w;
    logs;
    delta;
    counts = !counts;
  }

let checks st p =
  let logs_ok =
    Array.for_all Fun.id
      (Array.mapi
         (fun r oid ->
           st.sr.S.stockroom <- oid;
           S.counter st.sr "logs" = p.logs.(r))
         st.room)
  in
  let balances_ok =
    Array.for_all Fun.id
      (Array.mapi
         (fun r items ->
           Array.for_all Fun.id
             (Array.mapi
                (fun k it -> S.item_balance st.sr it = initial_balance + p.delta.(r).(k))
                items))
         st.item)
  in
  [
    ("stockroom: T1 aborts = unauthorized withdrawals", p.t1_aborts = p.unauthorized_withdrawals);
    ("stockroom: logs = committed withdrawals with qty > 100", logs_ok);
    ("stockroom: balance = initial + deposits - withdrawals", balances_ok);
  ]

let run ctx =
  if not ctx.trace then begin
    let st, setup_s, reps = timed_setups ~repeat:ctx.repeat_setup (setup ctx) in
    let p = run_pass ctx st ~seconds:ctx.seconds ~count_at:0 in
    let rss = peak_rss_mb (Unix.getpid ()) in
    {
      attempted = p.txns;
      failed = p.unexpected;
      checks = checks st p;
      metrics =
        end_to_end ~ops:p.ops_per_s ~ops_n:p.txns ~lat:p.lat_us ~lag:p.lag_us
          ~setup:(setup_s, reps) ~rss;
    }
  end
  else begin
    let half = ctx.seconds /. 2.0 in
    let st0 = setup ctx () in
    let plain = run_pass ctx st0 ~seconds:half ~count_at:0 in
    let checks0 = checks st0 plain in
    let st = setup ctx () in
    let obs = D.observe st.sr.S.db in
    Registry.set_enabled obs true;
    ctx.tracer.Tracer.on <- true;
    (* the per-transaction counts cover a fixed prefix of the seeded
       sequence, so they repeat exactly from run to run *)
    let count_at = scaled ctx 20_000 in
    let p = run_pass ctx st ~seconds:half ~count_at in
    ctx.tracer.Tracer.on <- false;
    Registry.set_enabled obs false;
    let tr = ctx.tracer in
    let per_txn c =
      match List.assoc_opt c p.counts with
      | Some n -> float_of_int n /. float_of_int count_at
      | None -> failwith "stockroom: the traced pass ended before the count window"
    in
    let count name c = m name "count" (per_txn c) ~samples:count_at in
    {
      attempted = plain.txns + p.txns;
      failed = plain.unexpected + p.unexpected;
      checks = checks0 @ checks st p;
      metrics =
        [
          span_us tr "txn.begin_us" "txn.begin";
          span_us tr "engine.call_us" "engine.call";
          span_us tr "txn.commit_us" "txn.commit";
          span_us tr "txn.abort_us" "txn.abort";
          span_us tr "timewheel.advance_us" "timewheel.advance";
          count "engine.posts_per_txn" Registry.Posts;
          count "engine.classified_per_txn" Registry.Classified;
          count "engine.index_skipped_per_txn" Registry.Index_skipped;
          count "engine.transitions_per_txn" Registry.Transitions;
          count "engine.firings_per_txn" Registry.Firings;
          count "txn.tcomplete_rounds_per_txn" Registry.Tcomplete_rounds;
          count "txn.undo_entries_per_txn" Registry.Undo_entries;
          m "trace.overhead_ratio" "ratio" (plain.ops_per_s /. p.ops_per_s);
        ];
    }
  end
