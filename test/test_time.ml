(* Time events (§3.1): at / every / after, delivered from the simulated
   clock, including composition with other events (trigger T7's shape). *)

open Ode_odb
module D = Database
module Value = Ode_base.Value
module P = Ode_lang.Parser

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "transaction unexpectedly aborted"

let make_db triggers =
  let db = D.create_db ~config:{ (D.Config.of_env ()) with D.Config.start_time = (Clock.ms_of_civil (Clock.civil ~hr:8 1992 6 2)) } () in
  D.register_class db
    (D.define_class "vessel"
    |> (fun b -> D.field b "pressure" (Value.Float 0.0))
    |> (fun b ->
         D.method_ b ~kind:D.Updating "set_pressure" (fun db oid args ->
             match args with
             | [ p ] ->
               D.set_field db oid "pressure" p;
               Value.Unit
             | _ -> Value.Unit))
    |> triggers);
  db

let test_every_period () =
  let fired = ref 0 in
  let db =
    make_db (fun b ->
        D.trigger b ~perpetual:true "tick" ~event:(P.parse_event "every time(MS=100)")
          ~action:(fun _ _ -> incr fired))
  in
  let _oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "vessel" [] in
           D.activate db oid "tick" [];
           oid))
  in
  D.advance_clock db 1_000L;
  Alcotest.(check int) "10 periods" 10 !fired;
  D.advance_clock db 50L;
  Alcotest.(check int) "no partial period" 10 !fired;
  D.advance_clock db 50L;
  Alcotest.(check int) "next period" 11 !fired

let test_after_period_once () =
  let fired = ref 0 in
  let db =
    make_db (fun b ->
        D.trigger b ~perpetual:true "delayed"
          ~event:(P.parse_event "after time(HR=2, M=30)")
          ~action:(fun _ _ -> incr fired))
  in
  ignore
    (expect_ok
       (D.with_txn db (fun _ ->
            let oid = D.create db "vessel" [] in
            D.activate db oid "delayed" [];
            oid)));
  D.advance_clock db (Int64.mul 3_600_000L 2L);
  Alcotest.(check int) "not yet" 0 !fired;
  D.advance_clock db 1_800_000L;
  Alcotest.(check int) "fires at +2h30" 1 !fired;
  D.advance_clock db 86_400_000L;
  Alcotest.(check int) "does not recur" 1 !fired

let test_at_daily () =
  let fired = ref [] in
  let db =
    make_db (fun b ->
        D.trigger b ~perpetual:true "dayEnd" ~event:(P.parse_event "at time(HR=17)")
          ~action:(fun db _ -> fired := D.now db :: !fired))
  in
  ignore
    (expect_ok
       (D.with_txn db (fun _ ->
            let oid = D.create db "vessel" [] in
            D.activate db oid "dayEnd" [];
            oid)));
  (* clock starts 1992-06-02 08:00; advance three days *)
  D.advance_clock db (Int64.mul 86_400_000L 3L);
  let expected =
    [
      Clock.ms_of_civil (Clock.civil ~hr:17 1992 6 2);
      Clock.ms_of_civil (Clock.civil ~hr:17 1992 6 3);
      Clock.ms_of_civil (Clock.civil ~hr:17 1992 6 4);
    ]
  in
  Alcotest.(check (list int64)) "daily at 17:00" expected (List.rev !fired)

let test_deactivation_cancels () =
  let fired = ref 0 in
  let db =
    make_db (fun b ->
        D.trigger b ~perpetual:true "tick" ~event:(P.parse_event "every time(MS=100)")
          ~action:(fun _ _ -> incr fired))
  in
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "vessel" [] in
           D.activate db oid "tick" [];
           oid))
  in
  D.advance_clock db 250L;
  Alcotest.(check int) "two ticks" 2 !fired;
  expect_ok (D.with_txn db (fun _ -> D.deactivate db oid "tick"));
  D.advance_clock db 1_000L;
  Alcotest.(check int) "no ticks after deactivation" 2 !fired

let test_time_in_composition () =
  (* relative(dayBegin, choose 2 (after set_pressure)): the second update
     after 9am. *)
  let fired = ref 0 in
  let db =
    make_db (fun b ->
        D.trigger b ~perpetual:true "second_after_9"
          ~event:
            (P.parse_event "relative(at time(HR=9), choose 2 (after set_pressure))")
          ~action:(fun _ _ -> incr fired))
  in
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "vessel" [] in
           D.activate db oid "second_after_9" [];
           oid))
  in
  let set p = expect_ok (D.with_txn db (fun _ -> ignore (D.call db oid "set_pressure" [ Value.Float p ]))) in
  (* one update before 9am: does not count *)
  set 1.0;
  D.advance_clock db 7_200_000L (* 08:00 -> 10:00, 9am tick delivered *);
  set 2.0;
  Alcotest.(check int) "first update after 9 is not enough" 0 !fired;
  set 3.0;
  Alcotest.(check int) "second update after 9 fires" 1 !fired

let test_timer_persistence () =
  (* pending timers survive save/load *)
  let fired = ref 0 in
  let mk () =
    make_db (fun b ->
        D.trigger b ~perpetual:true "tick" ~event:(P.parse_event "every time(MS=500)")
          ~action:(fun _ _ -> incr fired))
  in
  let db = mk () in
  ignore
    (expect_ok
       (D.with_txn db (fun _ ->
            let oid = D.create db "vessel" [] in
            D.activate db oid "tick" [];
            oid)));
  D.advance_clock db 600L;
  Alcotest.(check int) "one tick before save" 1 !fired;
  let path = Filename.temp_file "ode_timer" ".img" in
  D.save db path;
  let db2 = mk () in
  D.load db2 path;
  D.advance_clock db2 500L (* clock is at 600; next due at 1000 *);
  Alcotest.(check int) "tick after reload" 2 !fired;
  Sys.remove path

let test_timeout_pattern () =
  (* Footnote 1: "timed triggers can be simulated using composite
     events." A timeout — no reply within ~1s of a request — is
     fa(after request, tick, after reply) with a periodic tick. *)
  let alerts = ref 0 in
  let db =
    D.create_db ()
    |> fun db ->
    D.register_class db
      (D.define_class "server"
      |> (fun b -> D.method_ b ~kind:D.Updating "request" (fun _ _ _ -> Value.Unit))
      |> (fun b -> D.method_ b ~kind:D.Updating "reply" (fun _ _ _ -> Value.Unit))
      |> fun b ->
      D.trigger b ~perpetual:true "timeout"
        ~event:(P.parse_event "fa(after request, every time(MS=1000), after reply)")
        ~action:(fun _ _ -> incr alerts));
    db
  in
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "server" [] in
           D.activate db oid "timeout" [];
           oid))
  in
  let call name = expect_ok (D.with_txn db (fun _ -> ignore (D.call db oid name []))) in
  (* request answered in time: the tick finds a reply in between *)
  call "request";
  D.advance_clock db 300L;
  call "reply";
  D.advance_clock db 1_000L;
  Alcotest.(check int) "no alert when answered" 0 !alerts;
  (* unanswered request: the next tick raises the alert, once *)
  call "request";
  D.advance_clock db 2_500L;
  Alcotest.(check int) "timeout alert" 1 !alerts

let suite =
  [
    Alcotest.test_case "every period" `Quick test_every_period;
    Alcotest.test_case "after period" `Quick test_after_period_once;
    Alcotest.test_case "at daily" `Quick test_at_daily;
    Alcotest.test_case "deactivation cancels timers" `Quick test_deactivation_cancels;
    Alcotest.test_case "time composed with method events" `Quick test_time_in_composition;
    Alcotest.test_case "timers survive save/load" `Quick test_timer_persistence;
    Alcotest.test_case "timeout via composite events (fn. 1)" `Quick test_timeout_pattern;
  ]
