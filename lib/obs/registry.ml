(* The per-database observability registry: named counters, per-probe
   latency histograms, a posts-by-kind table and the trace ring.

   Disabled by default. Every instrumentation point in the database
   layers guards on [enabled], so a disabled registry costs one
   inlinable boolean load per probe — verified against the E9-dispatch
   bench (EXPERIMENTS.md, E10-obs-overhead). *)

type counter =
  | Posts
  | Db_posts
  | Classified
  | Index_skipped
  | Transitions
  | Firings
  | Tcomplete_rounds
  | Undo_entries
  | Timer_deliveries
  | Lock_conflicts
  | Classes_registered
  | Triggers_indexed
  | Wal_batches
  | Wal_flushes
  | Wal_snapshots
  | Wal_replayed
  | Net_connections
  | Net_requests
  | Net_outbox_dropped

let counter_index = function
  | Posts -> 0
  | Db_posts -> 1
  | Classified -> 2
  | Index_skipped -> 3
  | Transitions -> 4
  | Firings -> 5
  | Tcomplete_rounds -> 6
  | Undo_entries -> 7
  | Timer_deliveries -> 8
  | Lock_conflicts -> 9
  | Classes_registered -> 10
  | Triggers_indexed -> 11
  | Wal_batches -> 12
  | Wal_flushes -> 13
  | Wal_snapshots -> 14
  | Wal_replayed -> 15
  | Net_connections -> 16
  | Net_requests -> 17
  | Net_outbox_dropped -> 18

let n_counters = 19

let all_counters =
  [
    Posts; Db_posts; Classified; Index_skipped; Transitions; Firings;
    Tcomplete_rounds; Undo_entries; Timer_deliveries; Lock_conflicts;
    Classes_registered; Triggers_indexed; Wal_batches; Wal_flushes;
    Wal_snapshots; Wal_replayed; Net_connections; Net_requests;
    Net_outbox_dropped;
  ]

let counter_name = function
  | Posts -> "posts"
  | Db_posts -> "db_posts"
  | Classified -> "classified"
  | Index_skipped -> "index_skipped"
  | Transitions -> "transitions"
  | Firings -> "firings"
  | Tcomplete_rounds -> "tcomplete_rounds"
  | Undo_entries -> "undo_entries"
  | Timer_deliveries -> "timer_deliveries"
  | Lock_conflicts -> "lock_conflicts"
  | Classes_registered -> "classes_registered"
  | Triggers_indexed -> "triggers_indexed"
  | Wal_batches -> "wal_batches"
  | Wal_flushes -> "wal_flushes"
  | Wal_snapshots -> "wal_snapshots"
  | Wal_replayed -> "wal_replayed"
  | Net_connections -> "net_connections"
  | Net_requests -> "net_requests"
  | Net_outbox_dropped -> "net_outbox_dropped"

type probe = Post | Call | Commit | Action

let probe_index = function Post -> 0 | Call -> 1 | Commit -> 2 | Action -> 3
let n_probes = 4
let all_probes = [ Post; Call; Commit; Action ]

let probe_name = function
  | Post -> "post"
  | Call -> "call"
  | Commit -> "commit"
  | Action -> "action"

(* Counters are [Atomic] and the kind table and trace ring are guarded
   by [mu], so counts stay exact, not approximate, even if more than one
   thread emits into the same registry. The engine itself emits from
   the one thread that posts. Histograms stay plain: every [record_ns]
   site is on that thread. *)
type t = {
  mutable on : bool;
  mutable force_timing : bool;
  counters : int Atomic.t array;
  mu : Mutex.t;
  by_kind : (string, int) Hashtbl.t;
  hists : Hist.t array;
  trace : Trace.t;
}

let create ?(trace_capacity = 1024) () =
  {
    on = false;
    force_timing = false;
    counters = Array.init n_counters (fun _ -> Atomic.make 0);
    mu = Mutex.create ();
    by_kind = Hashtbl.create 16;
    hists = Array.init n_probes (fun _ -> Hist.create ());
    trace = Trace.create ~capacity:trace_capacity;
  }

let[@inline] enabled t = t.on
let set_enabled t flag = t.on <- flag

(* Reading the clock twice per pipeline entry point dominates the cost
   of an enabled registry on short operations, so latency histograms are
   recorded only when someone is actually consuming timing data: a trace
   sink is attached, or timing was forced on explicitly. Counters, the
   kind table and the span ring are exact either way. *)
let[@inline] timing t = t.on && (t.force_timing || Trace.has_sinks t.trace)
let set_timing t flag = t.force_timing <- flag
let[@inline] incr t c = Atomic.incr t.counters.(counter_index c)

let[@inline] add t c n =
  ignore (Atomic.fetch_and_add t.counters.(counter_index c) n)

let get t c = Atomic.get t.counters.(counter_index c)

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Hand-inlined lock/unlock: this runs once per enabled post, and the
   [locked] wrapper's closure + [Fun.protect] allocation is measurable
   there. [Hashtbl] operations on a well-formed table do not raise. *)
let incr_kind t kind =
  Mutex.lock t.mu;
  (match Hashtbl.find_opt t.by_kind kind with
  | Some n -> Hashtbl.replace t.by_kind kind (n + 1)
  | None -> Hashtbl.add t.by_kind kind 1);
  Mutex.unlock t.mu

let posts_by_kind t =
  locked t (fun () -> Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.by_kind [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let hist t p = t.hists.(probe_index p)
let[@inline] record_ns t p ns = Hist.record t.hists.(probe_index p) ns
let trace t = t.trace

(* Sinks attached to the trace run under [mu]: they must be quick and
   must not call back into the registry. Lock/unlock is hand-inlined as
   in [incr_kind] — one span per enabled post — but kept exception-safe
   because sinks are user code. *)
let span t s =
  Mutex.lock t.mu;
  match Trace.emit t.trace s with
  | () -> Mutex.unlock t.mu
  | exception e ->
    Mutex.unlock t.mu;
    raise e

let reset t =
  Array.iter (fun c -> Atomic.set c 0) t.counters;
  locked t (fun () -> Hashtbl.reset t.by_kind);
  Array.iter Hist.reset t.hists;
  Trace.clear t.trace

(* Monotonic enough for latency deltas within one process; µs-resolution
   wall clock scaled to ns. *)
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let pp ppf t =
  Format.fprintf ppf "@[<v>observability %s@," (if t.on then "on" else "off");
  List.iter
    (fun c ->
      let n = get t c in
      if n > 0 then Format.fprintf ppf "  %-20s %d@," (counter_name c) n)
    all_counters;
  let kinds = posts_by_kind t in
  if kinds <> [] then begin
    Format.fprintf ppf "  posts by kind:@,";
    List.iter (fun (k, n) -> Format.fprintf ppf "    %-24s %d@," k n) kinds
  end;
  List.iter
    (fun p ->
      let h = hist t p in
      if Hist.count h > 0 then
        Format.fprintf ppf "  %-8s %a@," (probe_name p) Hist.pp h)
    all_probes;
  Format.fprintf ppf "  trace: %d span(s) retained, %d dropped@]"
    (List.length (Trace.spans t.trace))
    (Trace.dropped t.trace)
