(* Shared machinery of the end-to-end benchmark: a monotonic clock, CPU
   pinning, measurement windows and bounded-memory latency samples, the
   span recorder of the traced run, /proc readers, set-up timing, the
   BENCHMARK.json reader, and the result record every workload
   returns. *)

module J = Ode_net.Json

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* ------------------------------------------------------------------ *)
(* CPU placement                                                       *)
(* ------------------------------------------------------------------ *)

external allowed_cpu : int -> int = "odebench_allowed_cpu" [@@noalloc]
external pin_cpu : int -> bool = "odebench_pin_cpu" [@@noalloc]

let pin cpu = if cpu >= 0 then ignore (pin_cpu cpu)

(* The measuring process runs on the first CPU it is allowed, and the
   wire server on the second when there is one: with the kernel free to
   place them, the two processes sometimes share a CPU and sometimes
   not, and wire throughput swings by a third between runs. Read before
   any pinning, so forked children still see both CPUs and [nproc]
   counts all of them. *)
let main_cpu = allowed_cpu 0
let server_cpu = match allowed_cpu 1 with -1 -> main_cpu | c -> c
let nproc = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Randomness                                                          *)
(* ------------------------------------------------------------------ *)

(* Every random choice of a workload comes from its own stream, derived
   from the run's seed and a per-purpose salt, so one seed always
   produces the same inputs whatever else the run does. *)
let rng ~seed salt = Random.State.make [| seed; salt |]

(* ------------------------------------------------------------------ *)
(* Windows and samples                                                 *)
(* ------------------------------------------------------------------ *)

(* A measured loop is split into [n] windows of equal wall time, and
   every figure is computed per window first. A run reports the better
   quartile of its windows: the 75th percentile of per-window rates and
   the 25th percentile of per-window latency percentiles. On a shared
   machine, contention from outside only ever slows a window, for
   seconds at a time; the better quartile follows the code under test
   and not the neighbours, where a whole-run figure or the median window
   moves with them. *)
let better_quartile ~higher values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let q = if higher then 0.75 else 0.25 in
    a.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let median values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The clock of one time-bounded loop: which window it is in, and how
   many operations each window finished between the first time the loop
   entered it and its last [count]. *)
module Windows = struct
  type t = {
    t0 : int;
    seconds : float;
    ops : float array;
    first : int array;  (* ns; 0 until the window is entered *)
    last : int array;
  }

  let start ~n ~seconds =
    {
      t0 = now_ns ();
      seconds;
      ops = Array.make n 0.0;
      first = Array.make n 0;
      last = Array.make n 0;
    }

  let elapsed t = secs_since t.t0

  let current t =
    let n = Array.length t.ops in
    let w = min (n - 1) (int_of_float (secs_since t.t0 /. t.seconds *. float_of_int n)) in
    if t.first.(w) = 0 then t.first.(w) <- now_ns ();
    w

  let count t w k =
    t.ops.(w) <- t.ops.(w) +. float_of_int k;
    t.last.(w) <- now_ns ()

  let total t = int_of_float (Array.fold_left ( +. ) 0.0 t.ops)

  (* Operations per second: the better quartile of the windows, each
     over its measured span rather than its nominal length. *)
  let rate t =
    better_quartile ~higher:true
      (List.filter_map
         (fun w ->
           if t.last.(w) > t.first.(w) then
             Some (t.ops.(w) /. (float_of_int (t.last.(w) - t.first.(w)) /. 1e9))
           else None)
         (List.init (Array.length t.ops) Fun.id))
end

(* Latencies kept per window, in a fixed amount of memory. Once a
   window's buffer is full, every other kept value is dropped and the
   keep-stride doubles, so the buffer always holds a uniform systematic
   sample of everything the window saw. Memory is allocated (and
   touched) up front, so it does not grow with throughput: a faster
   engine must not show up as a larger peak_rss_mb. *)
module Samples = struct
  type win = {
    buf : float array;
    mutable kept : int;
    mutable stride : int;
    mutable seen : int;
  }

  type t = { wins : win array; mutable cur : int }

  let create ~windows =
    {
      wins =
        Array.init windows (fun _ ->
            { buf = Array.make (1 lsl 15) 0.0; kept = 0; stride = 1; seen = 0 });
      cur = 0;
    }

  let window t i = t.cur <- max 0 (min (Array.length t.wins - 1) i)

  let add t v =
    let w = t.wins.(t.cur) in
    let i = w.seen in
    w.seen <- i + 1;
    if i mod w.stride = 0 then begin
      if w.kept = Array.length w.buf then begin
        for k = 0 to (w.kept / 2) - 1 do
          w.buf.(k) <- w.buf.(2 * k)
        done;
        w.kept <- w.kept / 2;
        w.stride <- 2 * w.stride
      end;
      w.buf.(w.kept) <- v;
      w.kept <- w.kept + 1
    end

  let count t = Array.fold_left (fun acc w -> acc + w.seen) 0 t.wins

  (* nearest-rank percentile of one window *)
  let rank w p =
    let a = Array.sub w.buf 0 w.kept in
    Array.sort Float.compare a;
    a.(max 0 (min (w.kept - 1) (int_of_float (Float.ceil (p *. float_of_int w.kept)) - 1)))

  (* The better quartile, over the windows that saw values, of each
     window's [p]-th percentile; 0 when nothing was recorded. *)
  let percentile t p =
    better_quartile ~higher:false
      (List.filter_map
         (fun w -> if w.kept = 0 then None else Some (rank w p))
         (Array.to_list t.wins))
end

(* ------------------------------------------------------------------ *)
(* Spans of the traced run                                             *)
(* ------------------------------------------------------------------ *)

(* One span per call the benchmark makes into a layer's public function:
   name, start, end, parent span and request id. Spans are kept in
   memory (the first [cap] of them; later ones are only aggregated and
   counted as dropped) and written out as JSON lines when the run ends.
   Per-name totals are kept for every span, so the per-layer metrics do
   not depend on the cap. When tracing is off, [span] just calls [f]. *)
module Tracer = struct
  type agg = { mutable calls : int; mutable ns : int }

  type t = {
    mutable on : bool;
    cap : int;
    sname : string array;
    sstart : int array;
    sstop : int array;
    sparent : int array;
    sreq : int array;
    mutable n : int;
    mutable dropped : int;
    mutable stack : int list;  (* open spans, innermost first *)
    origin : int;
    aggs : (string, agg) Hashtbl.t;
  }

  let create ?(cap = 200_000) () =
    {
      on = false;
      cap;
      sname = Array.make cap "";
      sstart = Array.make cap 0;
      sstop = Array.make cap 0;
      sparent = Array.make cap (-1);
      sreq = Array.make cap (-1);
      n = 0;
      dropped = 0;
      stack = [];
      origin = now_ns ();
      aggs = Hashtbl.create 32;
    }

  let agg t name =
    match Hashtbl.find_opt t.aggs name with
    | Some a -> a
    | None ->
      let a = { calls = 0; ns = 0 } in
      Hashtbl.add t.aggs name a;
      a

  let finish t name id t0 =
    let t1 = now_ns () in
    let a = agg t name in
    a.calls <- a.calls + 1;
    a.ns <- a.ns + (t1 - t0);
    if id >= 0 then begin
      t.sstop.(id) <- t1;
      t.stack <- List.tl t.stack
    end

  (* [span t name f] runs [f] under a span. [req] tags the request (or
     transaction) the call works for; [calls] counts the call as that
     many units of work, for spans wrapped around a loop. *)
  let span ?(req = -1) ?(calls = 1) t name f =
    if not t.on then f ()
    else begin
      let t0 = now_ns () in
      let id =
        if t.n < t.cap then begin
          let id = t.n in
          t.n <- id + 1;
          t.sname.(id) <- name;
          t.sstart.(id) <- t0;
          t.sparent.(id) <- (match t.stack with p :: _ -> p | [] -> -1);
          t.sreq.(id) <- req;
          t.stack <- id :: t.stack;
          id
        end
        else begin
          t.dropped <- t.dropped + 1;
          -1
        end
      in
      let record () =
        finish t name id t0;
        if calls <> 1 then begin
          let a = agg t name in
          a.calls <- a.calls + calls - 1
        end
      in
      match f () with
      | v ->
        record ();
        v
      | exception e ->
        record ();
        raise e
    end

  (* Mean microseconds per unit of work under [name]; 0 when the run
     made no such call. *)
  let mean_us t name =
    match Hashtbl.find_opt t.aggs name with
    | Some a when a.calls > 0 -> float_of_int a.ns /. float_of_int a.calls /. 1e3
    | _ -> 0.0

  let calls t name =
    match Hashtbl.find_opt t.aggs name with Some a -> a.calls | None -> 0

  let total_us t name =
    match Hashtbl.find_opt t.aggs name with
    | Some a -> float_of_int a.ns /. 1e3
    | None -> 0.0

  let write t ~path ~header =
    let oc = open_out path in
    output_string oc (J.to_string header);
    output_char oc '\n';
    for i = 0 to t.n - 1 do
      let line =
        J.Obj
          [
            ("id", J.Int i);
            ("name", J.String t.sname.(i));
            ("start_ns", J.Int (t.sstart.(i) - t.origin));
            ("end_ns", J.Int (t.sstop.(i) - t.origin));
            ("parent", J.Int t.sparent.(i));
            ("req", J.Int t.sreq.(i));
          ]
      in
      output_string oc (J.to_string line);
      output_char oc '\n'
    done;
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* /proc                                                               *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in path in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  close_in ic;
  Buffer.contents buf

(* VmHWM — the process's peak resident set — in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* utime + stime of a process in seconds. /proc reports clock ticks,
   which Linux fixes at 100 per second for this interface. *)
let cpu_seconds pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name may hold spaces; fields resume after its ')' *)
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* fields 14 and 15 of stat(5); [rest] starts at field 3 *)
  float_of_string fields.(11) +. float_of_string fields.(12) |> fun t -> t /. 100.0

(* ------------------------------------------------------------------ *)
(* Set-up timing                                                       *)
(* ------------------------------------------------------------------ *)

(* Run [f] in a forked child and return the float it computes. The
   child exits without running at_exit handlers, so buffers the parent
   had not flushed are not written twice. *)
let in_child (f : unit -> float) =
  flush_all ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let v = try f () with _ -> Float.nan in
    let oc = Unix.out_channel_of_descr w in
    Printf.fprintf oc "%h\n" v;
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let line = try input_line ic with End_of_file -> "nan" in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    float_of_string line

(* The set-up time of a workload: throw-away set-ups, each in a child
   process so the measured process's memory is not inflated ([discard]
   releases what one holds outside the process, such as files), then
   the real one; [setup_s] is the median of all of them. With [repeat],
   at least 4 throw-aways run, and more while they have taken under a
   second (at most 24), so a set-up of a few milliseconds is measured as
   steadily as one of a second. Returns the real set-up, [setup_s] and
   how many set-ups it is the median of. *)
let timed_setups ?(discard = ignore) ~repeat (setup : unit -> 'a) =
  let spent = ref 0.0 and throwaway = ref [] in
  while
    repeat
    && (List.length !throwaway < 4 || (!spent < 1.0 && List.length !throwaway < 24))
  do
    let dt =
      in_child (fun () ->
          let t0 = now_ns () in
          let v = setup () in
          let dt = secs_since t0 in
          discard v;
          dt)
    in
    if Float.is_nan dt then failwith "a set-up in a child process failed";
    spent := !spent +. dt;
    throwaway := dt :: !throwaway
  done;
  let t0 = now_ns () in
  let v = setup () in
  let all = secs_since t0 :: !throwaway in
  (v, median all, List.length all)

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

let json_num = function J.Float f -> Some f | J.Int n -> Some (float_of_int n) | _ -> None
let json_str k j = match J.member k j with Some (J.String s) -> s | _ -> ""

(* One metric of the benchmark definition; [bound] is 0 for per-layer
   metrics, which have none. *)
type spec = { name : string; unit_ : string; higher : bool; bound : float }

(* The end-to-end and per-layer metric lists of a BENCHMARK.json: the
   one place the metric set is defined. *)
let load_specs path =
  let j =
    match J.of_string (read_file path) with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e)
    | exception Sys_error e -> failwith e
  in
  let list key =
    match J.member key j with
    | Some (J.List l) ->
      List.map
        (fun e ->
          {
            name = json_str "name" e;
            unit_ = json_str "unit" e;
            higher = json_str "better" e = "higher";
            bound = Option.value ~default:0.0 (Option.bind (J.member "bound" e) json_num);
          })
        l
    | _ -> failwith (Printf.sprintf "%s: no %s list" path key)
  in
  (list "end_to_end", list "per_layer")

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let m ?(samples = 1) name unit_ value = { name; value; unit_; samples }

(* The end-to-end set as every untraced run reports it: [lat] is the
   workload's operation latency, [lag] its firing lag. *)
let end_to_end ~ops ~ops_n ~lat ~lag ~setup:(setup_s, reps) ~rss =
  [
    m "ops_per_s" "op/s" ops ~samples:ops_n;
    m "p50_us" "us" (Samples.percentile lat 0.50) ~samples:(Samples.count lat);
    m "p99_us" "us" (Samples.percentile lat 0.99) ~samples:(Samples.count lat);
    m "firing_lag_p50_us" "us" (Samples.percentile lag 0.50) ~samples:(Samples.count lag);
    m "firing_lag_p99_us" "us" (Samples.percentile lag 0.99) ~samples:(Samples.count lag);
    m "setup_s" "s" setup_s ~samples:reps;
    m "peak_rss_mb" "MiB" rss;
  ]

(* mean microseconds per call of the spans named [span] *)
let span_us tr name span =
  m name "us" (Tracer.mean_us tr span) ~samples:(Tracer.calls tr span)

type outcome = {
  attempted : int;  (* operations tried *)
  failed : int;  (* operations that failed unexpectedly; the caller adds failed checks *)
  checks : (string * bool) list;
  metrics : metric list;
}

(* What every workload run is given. [scale] is 1 for a measured run
   and 1/20 under --quick (sizes only: the schedule keeps its shape). *)
type ctx = {
  seed : int;
  seconds : float;
  scale : float;
  trace : bool;
  repeat_setup : bool;  (* time several set-ups for setup_s *)
  tracer : Tracer.t;
}

let scaled ctx n = max 1 (int_of_float (Float.round (float_of_int n *. ctx.scale)))
