(* fleet_timers: time-driven firing. Ode_scenarios.Fleet arms every
   heartbeat at t=0, so each 50 ms tick delivers a large group of timers
   due at the same instant; the tick loop crosses the 30 s one-shot
   service burst and idles/resumes every 7th vehicle on a fixed
   schedule. No wire, no batch kernel, no log. *)

open Common
module D = Ode_odb.Database
module Fleet = Ode_scenarios.Fleet
module Registry = Ode_obs.Registry

let vehicles = 4_000
let tick_ms = 50
let stride = 7
let windows = 20

(* the tick schedule: idle on ticks = 50 (mod 100), resume on 75 *)
let idles i = i mod 100 = 50
let resumes i = i mod 100 = 75

let setup ctx () =
  let db = D.create_db ~config:D.Config.default () in
  Fleet.setup ~db ~vehicles:(scaled ctx vehicles) ()

(* Beats every vehicle must have recorded after [ticks] ticks: a
   heartbeat of period p armed at instant a is due at a + p, a + 2p, …;
   a timer due exactly at the instant an idle happens is delivered
   first (the tick delivers everything due up to and including its
   target), and a resume arms afresh from its own instant. *)
let expected_beats ~n ~ticks =
  let period j = snd Fleet.cadences.(j mod Array.length Fleet.cadences) in
  let total = ref 0 in
  for j = 0 to n - 1 do
    let p = period j in
    let beats a d = (d - a) / p in
    if j mod stride <> 0 then total := !total + beats 0 (ticks * tick_ms)
    else begin
      let active_from = ref (Some 0) in
      for i = 0 to ticks - 1 do
        let now = (i + 1) * tick_ms in
        match !active_from with
        | Some a when idles i ->
          total := !total + beats a now;
          active_from := None
        | None when resumes i -> active_from := Some now
        | _ -> ()
      done;
      match !active_from with
      | Some a -> total := !total + beats a (ticks * tick_ms)
      | None -> ()
    end
  done;
  !total

type pass = {
  ticks : int;
  deliveries : int;
  ops_per_s : float;  (* deliveries per second *)
  tick_us : Samples.t;
  lag_us : Samples.t;
}

(* Tick until [seconds] have passed, but at least until the service
   burst is behind us, so every run covers the same kind of work. *)
let run_pass ctx (fleet : Fleet.t) ~seconds =
  let db = fleet.Fleet.db in
  let tr = ctx.tracer in
  let tick_us = Samples.create ~windows and lag_us = Samples.create ~windows in
  let win = Windows.start ~n:windows ~seconds in
  let op_start = ref 0 and w = ref 0 in
  let sub =
    D.subscribe_firings db (fun _ ->
        Windows.count win !w 1;
        Samples.add lag_us (float_of_int (now_ns () - !op_start) /. 1e3))
  in
  let n = Fleet.size fleet in
  let per_stride = (n + stride - 1) / stride in
  let min_ticks = (Fleet.service_after_ms / tick_ms) + 1 in
  let ticks = ref 0 in
  while !ticks < min_ticks || Windows.elapsed win < seconds do
    let i = !ticks in
    w := Windows.current win;
    Samples.window tick_us !w;
    Samples.window lag_us !w;
    op_start := now_ns ();
    Tracer.span tr "timewheel.advance" ~req:i (fun () ->
        Fleet.tick fleet (Int64.of_int tick_ms));
    Samples.add tick_us (float_of_int (now_ns () - !op_start) /. 1e3);
    if idles i then
      Tracer.span tr "engine.deactivate" ~calls:per_stride (fun () ->
          Fleet.idle fleet ~stride);
    if resumes i then
      Tracer.span tr "engine.activate" ~calls:per_stride (fun () ->
          Fleet.resume fleet ~stride);
    ticks := i + 1
  done;
  let ops_per_s = Windows.rate win in
  D.unsubscribe db sub;
  { ticks = !ticks; deliveries = Windows.total win; ops_per_s; tick_us; lag_us }

let checks fleet p =
  let n = Fleet.size fleet in
  let alerts = Fleet.total_alerts fleet and beats = Fleet.total_beats fleet in
  let want_beats = expected_beats ~n ~ticks:p.ticks in
  [
    ("fleet: total_alerts = vehicles", alerts = n);
    ("fleet: total_beats = cadence/idle/resume schedule", beats = want_beats);
    ("fleet: deliveries = beats + alerts", p.deliveries = beats + alerts);
  ]

(* The control for same-instant grouping: re-activate every heartbeat
   at a distinct millisecond of one 1 s period, then time ticks again. *)
let staggered_us_per_delivery ctx (fleet : Fleet.t) ~seconds =
  let db = fleet.Fleet.db in
  Fleet.idle fleet ~stride:1;
  let n = Fleet.size fleet in
  for k = 0 to 999 do
    (match
       D.with_txn db (fun _ ->
           let j = ref k in
           while !j < n do
             D.activate db fleet.Fleet.vehicles.(!j) (Fleet.cadence_of !j) [];
             j := !j + 1000
           done)
     with
    | Ok () -> ()
    | Error `Aborted -> failwith "fleet: staggered re-activation aborted");
    D.advance_clock db 1L
  done;
  let delivered = ref 0 in
  let sub = D.subscribe_firings db (fun _ -> incr delivered) in
  let t0 = now_ns () in
  while secs_since t0 < seconds do
    Tracer.span ctx.tracer "timewheel.advance_staggered" (fun () ->
        Fleet.tick fleet (Int64.of_int tick_ms))
  done;
  D.unsubscribe db sub;
  Tracer.total_us ctx.tracer "timewheel.advance_staggered" /. float_of_int (max 1 !delivered)

let run ctx =
  if not ctx.trace then begin
    let fleet, setup_s, reps = timed_setups ~repeat:ctx.repeat_setup (setup ctx) in
    let p = run_pass ctx fleet ~seconds:ctx.seconds in
    let rss = peak_rss_mb (Unix.getpid ()) in
    {
      attempted = p.ticks;
      failed = 0;
      checks = checks fleet p;
      metrics =
        end_to_end ~ops:p.ops_per_s ~ops_n:p.deliveries ~lat:p.tick_us ~lag:p.lag_us
          ~setup:(setup_s, reps) ~rss;
    }
  end
  else begin
    let half = ctx.seconds /. 2.0 in
    let fleet0 = setup ctx () in
    let plain = run_pass ctx fleet0 ~seconds:half in
    let checks0 = checks fleet0 plain in
    let fleet = setup ctx () in
    let obs = D.observe fleet.Fleet.db in
    Registry.set_enabled obs true;
    ctx.tracer.Tracer.on <- true;
    let p = run_pass ctx fleet ~seconds:half in
    let checks = checks fleet p in
    let deliveries = Registry.get obs Registry.Timer_deliveries in
    let firings = Registry.get obs Registry.Firings in
    Registry.set_enabled obs false;
    let stag = staggered_us_per_delivery ctx fleet ~seconds:(half /. 4.0) in
    ctx.tracer.Tracer.on <- false;
    let tr = ctx.tracer in
    let per_tick x = float_of_int x /. float_of_int p.ticks in
    let aligned_us = Tracer.total_us tr "timewheel.advance" /. float_of_int (max 1 p.deliveries) in
    {
      attempted = plain.ticks + p.ticks;
      failed = 0;
      checks = checks0 @ checks;
      metrics =
        [
          m "timewheel.us_per_delivery" "us" aligned_us ~samples:p.deliveries;
          m "timewheel.staggered_us_per_delivery" "us" stag;
          span_us tr "engine.deactivate_us" "engine.deactivate";
          span_us tr "engine.activate_us" "engine.activate";
          m "timewheel.deliveries_per_tick" "count" (per_tick deliveries) ~samples:p.ticks;
          m "engine.firings_per_tick" "count" (per_tick firings) ~samples:p.ticks;
          m "trace.overhead_ratio" "ratio" (plain.ops_per_s /. p.ops_per_s);
        ];
    }
  end
