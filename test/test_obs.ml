(* The Ode_obs observability layer: pinned pipeline counters for a
   scripted scenario, latency-histogram bookkeeping, the trace ring's
   ordering/truncation/sink behaviour, and the firing-subscription
   surface. *)

open Ode_odb
module D = Database
module Value = Ode_base.Value
module Symbol = Ode_event.Symbol
module Obs = Ode_obs.Registry
module Trace = Ode_obs.Trace
module Hist = Ode_obs.Hist

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "transaction unexpectedly aborted"

(* the per-kind key exactly as the engine prints it *)
let kind basic = Format.asprintf "%a" Symbol.pp_basic_key (Symbol.basic_key basic)

(* One object of class [c] with two armed perpetual triggers: [hit] on
   [after ping] (fires on every call) and [inert] on an event never
   posted (pruned by the dispatch index). With [~listening:true] the
   class also declares [txn], on [after tbegin], [before tcomplete] and
   [after tcommit], never activated: the class then listens to those
   transaction events, so they are posted to the object.
   Setup runs with observability OFF so the counters reflect only the
   scripted transactions. *)
let scripted_db ?trace_capacity ?(listening = false) () =
  (* image durability pinned: these tests assert exact span sequences
     and counts of the posting pipeline, which the WAL's own
     [Wal_flushed] spans would interleave with under the
     ODE_DURABILITY=wal CI leg (WAL observability is pinned in
     test_wal.ml instead) *)
  let c = D.Config.of_env () in
  let c =
    {
      c with
      D.Config.durability = `Image;
      trace_capacity = Option.value trace_capacity ~default:c.D.Config.trace_capacity;
    }
  in
  let db = D.create_db ~config:c () in
  let b = D.define_class "c" in
  let b = D.field b "n" (Value.Int 0) in
  let b = D.method_ b ~kind:D.Updating "ping" (fun _ _ _ -> Value.Unit) in
  let b =
    D.trigger_str b ~perpetual:true "hit" ~event:"after ping"
      ~action:(fun _ _ -> ())
  in
  let b =
    D.trigger_str b ~perpetual:true "inert" ~event:"after never_posted"
      ~action:(fun _ _ -> ())
  in
  let b =
    if not listening then b
    else
      D.trigger_str b ~perpetual:true "txn"
        ~event:"after tbegin | before tcomplete | after tcommit"
        ~action:(fun _ _ -> ())
  in
  D.register_class db b;
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "c" [] in
           D.activate db oid "hit" [];
           D.activate db oid "inert" [];
           oid))
  in
  (db, oid)

let ping db oid =
  expect_ok (D.with_txn db (fun _ -> ignore (D.call db oid "ping" [])))

(* ------------------------------------------------------------------ *)
(* Pinned counters                                                     *)
(* ------------------------------------------------------------------ *)

(* Each transaction posts exactly 6 occurrences to the object, the 6
   events around the call ([before access], [before update],
   [before ping], [after ping], [after update], [after access]): the
   class declares no trigger on a transaction event, so none is posted
   (the §6 fixpoint still runs its one round). Of 2 active triggers, the
   index hands the classifier one candidate on the [after ping] post and
   prunes the rest: 1 + 2*5 = 11 skips per transaction.
   When the class listens ([~listening:true]), 3 more are posted:
   [after tbegin], one [before tcomplete] (the fixpoint converges in one
   round: nothing fires on tcomplete), and [after tcommit] from the
   system transaction: 9 posts and 1 + 2*8 = 17 skips. *)
let n_txns = 5

let test_pinned_counters ~listening () =
  let db, oid = scripted_db ~listening () in
  let posts = if listening then 9 else 6 in
  let txn_kind = if listening then n_txns else 0 in
  D.set_observability db true;
  (* latency histograms are sink-gated; force timing so the probe-count
     pins below stay meaningful without attaching a sink *)
  Obs.set_timing (D.observe db) true;
  for _ = 1 to n_txns do
    ping db oid
  done;
  let r = D.observe db in
  Alcotest.(check int) "posts" (posts * n_txns) (Obs.get r Obs.Posts);
  Alcotest.(check int) "db posts" 0 (Obs.get r Obs.Db_posts);
  Alcotest.(check int) "classified" n_txns (Obs.get r Obs.Classified);
  Alcotest.(check int) "index skipped"
    ((1 + (2 * (posts - 1))) * n_txns)
    (Obs.get r Obs.Index_skipped);
  Alcotest.(check int) "transitions" n_txns (Obs.get r Obs.Transitions);
  Alcotest.(check int) "firings" n_txns (Obs.get r Obs.Firings);
  Alcotest.(check int) "tcomplete rounds" n_txns (Obs.get r Obs.Tcomplete_rounds);
  Alcotest.(check int) "undo entries" 0 (Obs.get r Obs.Undo_entries);
  Alcotest.(check int) "timer deliveries" 0 (Obs.get r Obs.Timer_deliveries);
  Alcotest.(check int) "lock conflicts" 0 (Obs.get r Obs.Lock_conflicts);
  let by_kind = Obs.posts_by_kind r in
  let count k = Option.value ~default:0 (List.assoc_opt k by_kind) in
  Alcotest.(check int) "after ping" n_txns
    (count (kind (Symbol.Method (Symbol.After, "ping"))));
  Alcotest.(check int) "before ping" n_txns
    (count (kind (Symbol.Method (Symbol.Before, "ping"))));
  Alcotest.(check int) "after tbegin" txn_kind (count (kind Symbol.Tbegin));
  Alcotest.(check int) "before tcomplete" txn_kind (count (kind Symbol.Tcomplete));
  Alcotest.(check int) "after tcommit" txn_kind (count (kind Symbol.Tcommit));
  Alcotest.(check int) "post latencies" (posts * n_txns)
    (Hist.count (Obs.hist r Obs.Post));
  Alcotest.(check int) "call latencies" n_txns (Hist.count (Obs.hist r Obs.Call));
  Alcotest.(check int) "commit latencies" n_txns
    (Hist.count (Obs.hist r Obs.Commit));
  Alcotest.(check int) "action latencies" n_txns
    (Hist.count (Obs.hist r Obs.Action))

(* Latency histograms are only fed when timing data has a consumer: a
   trace sink is attached, or [set_timing] forced it on. Counters, the
   kind table and the span ring stay exact regardless. *)
let test_timing_gate () =
  let db, oid = scripted_db () in
  D.set_observability db true;
  let r = D.observe db in
  ping db oid;
  Alcotest.(check int) "counters exact without a sink" 6 (Obs.get r Obs.Posts);
  List.iter
    (fun p ->
      Alcotest.(check int)
        ("no " ^ Obs.probe_name p ^ " latencies without a consumer")
        0
        (Hist.count (Obs.hist r p)))
    Obs.all_probes;
  Alcotest.(check int) "spans still emitted" 11
    (List.length (Trace.spans (Obs.trace r)));
  (* attaching a sink turns the clock reads back on *)
  let sink = Trace.add_sink (Obs.trace r) (fun _ -> ()) in
  ping db oid;
  Alcotest.(check int) "post latencies with a sink" 6
    (Hist.count (Obs.hist r Obs.Post));
  Alcotest.(check int) "call latencies with a sink" 1
    (Hist.count (Obs.hist r Obs.Call));
  Trace.remove_sink (Obs.trace r) sink;
  ping db oid;
  Alcotest.(check int) "gated again after detach" 6
    (Hist.count (Obs.hist r Obs.Post));
  (* and the explicit override works without any sink *)
  Obs.set_timing r true;
  ping db oid;
  Alcotest.(check int) "forced timing feeds histograms" 12
    (Hist.count (Obs.hist r Obs.Post))

let test_disabled_counts_nothing () =
  let db, oid = scripted_db () in
  ping db oid;
  let r = D.observe db in
  List.iter
    (fun c -> Alcotest.(check int) (Obs.counter_name c) 0 (Obs.get r c))
    Obs.all_counters;
  List.iter
    (fun p ->
      Alcotest.(check int) (Obs.probe_name p) 0 (Hist.count (Obs.hist r p)))
    Obs.all_probes;
  Alcotest.(check int) "no spans" 0 (List.length (Trace.spans (Obs.trace r)));
  Alcotest.(check (list (pair string int))) "no kinds" [] (Obs.posts_by_kind r)

let test_abort_and_undo () =
  let db, oid = scripted_db () in
  D.set_observability db true;
  let tx = D.begin_txn db in
  D.set_field db oid "n" (Value.Int 1);
  D.abort db tx;
  let r = D.observe db in
  Alcotest.(check int) "one undo entry retired" 1 (Obs.get r Obs.Undo_entries);
  Alcotest.(check bool) "abort span emitted" true
    (List.exists
       (function Trace.Txn_abort _ -> true | _ -> false)
       (Trace.spans (Obs.trace r)))

let test_lock_conflict_counter () =
  let db, oid = scripted_db () in
  D.set_observability db true;
  let t1 = D.begin_txn db in
  ignore (D.call db oid "ping" []);
  let t2 = D.begin_txn db in
  (match D.call db oid "ping" [] with
  | exception D.Lock_conflict o -> Alcotest.(check int) "conflicting oid" oid o
  | _ -> Alcotest.fail "expected a lock conflict");
  Alcotest.(check int) "lock conflicts" 1
    (Obs.get (D.observe db) Obs.Lock_conflicts);
  D.abort db t2;
  D.switch_txn db t1;
  D.abort db t1

let test_timer_deliveries () =
  let db = D.create_db () in
  let b = D.define_class "w" in
  let b =
    D.trigger_str b ~perpetual:true "tick" ~event:"every time(MS=100)"
      ~action:(fun _ _ -> ())
  in
  D.register_class db b;
  let _oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "w" [] in
           D.activate db oid "tick" [];
           oid))
  in
  D.set_observability db true;
  D.advance_clock db 250L;
  let r = D.observe db in
  Alcotest.(check int) "two due timers delivered" 2
    (Obs.get r Obs.Timer_deliveries);
  Alcotest.(check int) "two delivery spans" 2
    (List.length
       (List.filter
          (function Trace.Timer_delivered _ -> true | _ -> false)
          (Trace.spans (Obs.trace r))))

let test_reset_keeps_enabled () =
  let db, oid = scripted_db () in
  D.set_observability db true;
  ping db oid;
  let r = D.observe db in
  Obs.reset r;
  Alcotest.(check bool) "still enabled" true (Obs.enabled r);
  Alcotest.(check int) "counters zeroed" 0 (Obs.get r Obs.Posts);
  Alcotest.(check int) "trace cleared" 0 (List.length (Trace.spans (Obs.trace r)));
  ping db oid;
  Alcotest.(check int) "counting resumes" 6 (Obs.get r Obs.Posts)

(* ------------------------------------------------------------------ *)
(* Trace ring                                                          *)
(* ------------------------------------------------------------------ *)

let tag = function
  | Trace.Txn_begin { system = false; _ } -> "B"
  | Trace.Txn_begin { system = true; _ } -> "b"
  | Trace.Txn_commit _ -> "C"
  | Trace.Txn_abort _ -> "A"
  | Trace.Posted _ -> "p"
  | Trace.Advanced _ -> "a"
  | Trace.Fired _ -> "f"
  | Trace.Action_ran _ -> "r"
  | Trace.Timer_delivered _ -> "t"
  | Trace.Wal_flushed _ -> "w"
  | Trace.Wal_recovered _ -> "R"

let test_span_order () =
  let db, oid = scripted_db () in
  D.set_observability db true;
  ping db oid;
  let spans = Trace.spans (Obs.trace (D.observe db)) in
  (* user txn begins; the 4 pre-body posts; the [after ping] post
     advances [hit], which fires and runs its action; the 2 post-body
     posts; commit. No transaction event is posted and no system
     transaction opens: the class does not listen to them. *)
  Alcotest.(check string) "pipeline span sequence" "BppppafrppC"
    (String.concat "" (List.map tag spans));
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped (Obs.trace (D.observe db)))

let test_ring_truncation () =
  let db, oid = scripted_db ~trace_capacity:4 () in
  D.set_observability db true;
  ping db oid;
  let tr = Obs.trace (D.observe db) in
  Alcotest.(check int) "capacity" 4 (Trace.capacity tr);
  Alcotest.(check int) "ring keeps capacity spans" 4 (List.length (Trace.spans tr));
  Alcotest.(check int) "older spans counted as dropped" 7 (Trace.dropped tr);
  (* the retained spans are the MOST RECENT ones, oldest first *)
  Alcotest.(check string) "tail of the sequence" "rppC"
    (String.concat "" (List.map tag (Trace.spans tr)));
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (List.length (Trace.spans tr));
  Alcotest.(check int) "dropped reset" 0 (Trace.dropped tr)

let test_sinks_see_everything () =
  let db, oid = scripted_db ~trace_capacity:4 () in
  D.set_observability db true;
  let tr = Obs.trace (D.observe db) in
  let n = ref 0 in
  let sink = Trace.add_sink tr (fun _ -> incr n) in
  ping db oid;
  Alcotest.(check int) "sink saw every span, ring kept 4" 11 !n;
  Trace.remove_sink tr sink;
  ping db oid;
  Alcotest.(check int) "detached sink sees nothing" 11 !n

let test_trace_validation () =
  match Trace.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be rejected"

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let test_hist () =
  let h = Hist.create () in
  Alcotest.(check int) "empty count" 0 (Hist.count h);
  Alcotest.(check int) "empty quantile" 0 (Hist.quantile_ns h 0.99);
  List.iter (Hist.record h) [ 100; 200; 400; 800; 100_000 ];
  Alcotest.(check int) "count" 5 (Hist.count h);
  Alcotest.(check int) "sum" 101_500 (Hist.sum_ns h);
  Alcotest.(check int) "max" 100_000 (Hist.max_ns h);
  Alcotest.(check (float 0.01)) "mean" 20_300.0 (Hist.mean_ns h);
  let q50 = Hist.quantile_ns h 0.5 in
  Alcotest.(check bool) "median within its 2x bucket" true
    (q50 >= 200 && q50 <= 512);
  Alcotest.(check bool) "p99 covers the outlier" true
    (Hist.quantile_ns h 0.99 >= 100_000);
  Hist.reset h;
  Alcotest.(check int) "reset" 0 (Hist.count h)

(* ------------------------------------------------------------------ *)
(* Subscriptions                                                       *)
(* ------------------------------------------------------------------ *)

let test_subscription_order () =
  (* two subscribers see every firing, in subscription order, once *)
  let db, oid = scripted_db () in
  let seen = ref [] in
  let _s1 = D.subscribe_firings db (fun f -> seen := (1, f) :: !seen) in
  let _s2 = D.subscribe_firings db (fun f -> seen := (2, f) :: !seen) in
  for _ = 1 to 3 do
    ping db oid
  done;
  let deliveries = List.rev !seen in
  Alcotest.(check int) "both saw all three firings" 6 (List.length deliveries);
  Alcotest.(check (list int)) "subscription order per firing"
    [ 1; 2; 1; 2; 1; 2 ]
    (List.map fst deliveries)

let test_unsubscribe_during_delivery () =
  (* a subscriber that unsubscribes itself mid-batch must not break the
     walk, and later subscribers still see the firing *)
  let db, oid = scripted_db () in
  let first = ref 0 and second = ref 0 in
  let sub = ref None in
  sub :=
    Some
      (D.subscribe_firings db (fun _ ->
           incr first;
           match !sub with Some s -> D.unsubscribe db s | None -> ()));
  let _s2 = D.subscribe_firings db (fun _ -> incr second) in
  ping db oid;
  ping db oid;
  Alcotest.(check int) "self-unsubscribed after one delivery" 1 !first;
  Alcotest.(check int) "later subscriber saw both" 2 !second

(* Counters stay {e exact} over a logged [post_many] batch: 16
   objects × 25 pings in one batch, every counter pinned to its computed
   truth — the [wal_*] counters included — and two runs of the
   identical batch count the same, bit for bit. *)
let test_exact_counters_post_many () =
  let run () =
    (* a WAL flushed per batch, whatever the environment selects *)
    let dir = Filename.temp_file "ode_obs_wal" "" in
    Sys.remove dir;
    let durability = `Wal (Ode_odb.Wal.config ~flush_ms:0 ~sync_on_flush:false dir) in
    let db = D.create_db ~config:{ (D.Config.of_env ()) with D.Config.durability } () in
    let b = D.define_class "c" in
    let b = D.method_ b ~kind:D.Updating "ping" (fun _ _ _ -> Value.Unit) in
    let b =
      D.trigger_str b ~perpetual:true "hit" ~event:"after ping"
        ~action:(fun _ _ -> ())
    in
    D.register_class db b;
    let oids =
      expect_ok
        (D.with_txn db (fun _ ->
             List.init 16 (fun _ ->
                 let oid = D.create db "c" [] in
                 D.activate db oid "hit" [];
                 oid)))
    in
    D.set_observability db true;
    let batch =
      List.concat_map
        (fun oid ->
          List.init 25 (fun _ -> (oid, Symbol.Method (Symbol.After, "ping"), [])))
        oids
    in
    let fired = ref 0 in
    expect_ok (D.with_txn db (fun _ -> fired := D.post_many db batch));
    let obs = D.observe db in
    D.close_durability db;
    ( !fired,
      List.map (fun c -> (Obs.counter_name c, Obs.get obs c)) Obs.all_counters,
      Obs.posts_by_kind obs )
  in
  let f1, c1, k1 = run () in
  let f2, c2, k2 = run () in
  Alcotest.(check int) "firings" 400 f1;
  let get name l = List.assoc name l in
  (* 400 pings; the class listens to no transaction event *)
  Alcotest.(check int) "posts" 400 (get "posts" c1);
  Alcotest.(check int) "classified" 400 (get "classified" c1);
  Alcotest.(check int) "transitions" 400 (get "transitions" c1);
  Alcotest.(check int) "firings counter" 400 (get "firings" c1);
  Alcotest.(check int) "tcomplete rounds" 1 (get "tcomplete_rounds" c1);
  (* one commit, one batch, one flush *)
  Alcotest.(check int) "WAL batches" 1 (get "wal_batches" c1);
  Alcotest.(check int) "WAL flushes" 1 (get "wal_flushes" c1);
  Alcotest.(check int) "second run's firings" f1 f2;
  Alcotest.(check (list (pair string int))) "second run counts the same" c1 c2;
  Alcotest.(check (list (pair string int))) "kind table identical" k1 k2

let suite =
  [
    Alcotest.test_case "pinned pipeline counters" `Quick
      (test_pinned_counters ~listening:false);
    Alcotest.test_case "exact counters of a logged post_many batch" `Quick
      test_exact_counters_post_many;
    Alcotest.test_case "pinned counters, listening" `Quick
      (test_pinned_counters ~listening:true);
    Alcotest.test_case "timing gate" `Quick test_timing_gate;
    Alcotest.test_case "disabled = all zeros" `Quick test_disabled_counts_nothing;
    Alcotest.test_case "abort + undo accounting" `Quick test_abort_and_undo;
    Alcotest.test_case "lock-conflict counter" `Quick test_lock_conflict_counter;
    Alcotest.test_case "timer deliveries" `Quick test_timer_deliveries;
    Alcotest.test_case "reset keeps enabled" `Quick test_reset_keeps_enabled;
    Alcotest.test_case "span ordering" `Quick test_span_order;
    Alcotest.test_case "ring truncation" `Quick test_ring_truncation;
    Alcotest.test_case "sinks see every span" `Quick test_sinks_see_everything;
    Alcotest.test_case "trace validation" `Quick test_trace_validation;
    Alcotest.test_case "histogram bookkeeping" `Quick test_hist;
    Alcotest.test_case "subscription order" `Quick test_subscription_order;
    Alcotest.test_case "unsubscribe during delivery" `Quick
      test_unsubscribe_during_delivery;
  ]
