(* Benchmark harness regenerating the paper's evaluation claims.

   The paper (SIGMOD '92) has no numeric tables or figures; its evaluation
   is a set of efficiency claims about automaton-based composite-event
   detection. Each experiment E1–E8 below measures one claim, E9–E12 are
   the ablations and the §9 extension; the mapping is recorded in
   DESIGN.md §6 and the results commentary in EXPERIMENTS.md. The
   harness prints shape tables first, then runs one Bechamel
   micro-benchmark per experiment ([micro]). The system's performance
   benchmark is odebench ([bench/e2e/], [BENCHMARK.json]), not this
   harness.

   Usage: [dune exec bench/main.exe -- [ID...]]; no ids runs them all,
   an unknown id exits 2 and prints the list. *)

open Ode_event
module P = Ode_lang.Parser
module Value = Ode_base.Value

let pf = Fmt.pr
let section title = pf "@.=== %s ===@." title

(* simple wall-clock measurement: ns per call, batched *)
let measure_ns ?(min_time = 0.05) f =
  (* warm up *)
  f ();
  let rec calibrate batch =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= min_time then dt /. float_of_int batch *. 1e9
    else calibrate (batch * 4)
  in
  calibrate 1

let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e9)

let seeded_history ~m ~len seed =
  Array.init len (fun i -> (seed + (i * 7919) + (i * i * 31)) mod m)

(* ------------------------------------------------------------------ *)
(* E1: per-event detection cost vs history length                      *)
(* ------------------------------------------------------------------ *)

let e1_expr =
  (* a T8-style adjacency plus an unbounded-window relative: exercises
     both the O(1) automaton and the growing instance tree *)
  "after deposit; before withdraw; after withdraw \
   | relative(after audit, after withdraw)"

let e1_alphabet_m = ref 0

let e1_lowered () =
  let expr = P.parse_event e1_expr in
  let alphabet, lowered, _ = Rewrite.build expr in
  e1_alphabet_m := Rewrite.n_symbols alphabet;
  lowered

let e1 () =
  section "E1: per-event detection cost vs history length (§5 claim: O(1) for automata)";
  let lowered = e1_lowered () in
  let m = !e1_alphabet_m in
  let compiled = Compile.compile ~m lowered in
  let mask _ = true in
  let eval () id = mask id in
  pf "expr: %s@." e1_expr;
  pf "(re-evaluation is O(history) per event and is skipped past 3000)@.";
  pf "%8s %14s %14s %14s %12s@." "history" "dfa ns/ev" "tree ns/ev" "reeval ns/ev"
    "tree insts";
  let rows =
    List.map
      (fun n ->
        let h = seeded_history ~m ~len:n 42 in
        let state = Compile.initial compiled in
        Array.iter (fun sym -> ignore (Compile.step compiled state 0 sym eval ())) h;
        let i = ref 0 in
        let dfa_ns =
          measure_ns (fun () ->
              ignore (Compile.step compiled state 0 h.(!i mod n) eval ());
              incr i)
        in
        (* stateful baselines grow with every post: time a fixed batch of
           200 further events at length n rather than letting a
           calibration loop inflate the history *)
        let batch = 200 in
        let tree = Ode_baseline.Incr.make lowered in
        Array.iter (fun sym -> ignore (Ode_baseline.Incr.post tree ~mask sym)) h;
        let insts = Ode_baseline.Incr.instance_count tree in
        let (), tree_total =
          time_once (fun () ->
              for j = 0 to batch - 1 do
                ignore (Ode_baseline.Incr.post tree ~mask h.(j mod n))
              done)
        in
        let tree_ns = tree_total /. float_of_int batch in
        let reeval_ns =
          if n > 3000 then None
          else begin
            let re = Ode_baseline.Reeval.make lowered in
            Array.iter (fun sym -> ignore (Ode_baseline.Reeval.post re ~mask sym)) h;
            let small_batch = 20 in
            let (), total =
              time_once (fun () ->
                  for k = 0 to small_batch - 1 do
                    ignore (Ode_baseline.Reeval.post re ~mask h.(k mod n))
                  done)
            in
            Some (total /. float_of_int small_batch)
          end
        in
        pf "%8d %14.0f %14.0f %14s %12d@." n dfa_ns tree_ns
          (match reeval_ns with Some ns -> Fmt.str "%.0f" ns | None -> "-")
          insts;
        (n, dfa_ns, tree_ns, reeval_ns))
      [ 100; 300; 1000; 3000; 10_000 ]
  in
  match rows, List.rev rows with
  | (_, d0, t0, _) :: _, (_, d1, t1, _) :: _ ->
    pf "shape: dfa cost %.1fx from n=100 to n=10000; tree cost %.1fx@." (d1 /. d0)
      (t1 /. t0)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* E2: compiled automaton size and compile time vs expression size     *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2: automaton size / compile time vs expression size (§4-5)";
  let families =
    [
      ("sequence chain", fun d ->
        "sequence(" ^ String.concat ", " (List.init d (fun i -> Printf.sprintf "after m%d" i)) ^ ")");
      ("relative chain", fun d ->
        "relative(" ^ String.concat ", " (List.init d (fun i -> Printf.sprintf "after m%d" i)) ^ ")");
      ("prior chain", fun d ->
        "prior(" ^ String.concat ", " (List.init d (fun i -> Printf.sprintf "after m%d" i)) ^ ")");
      ("alternation", fun d ->
        String.concat " | " (List.init d (fun i -> Printf.sprintf "after m%d; after n%d" i i)));
      ("negation tower", fun d ->
        let rec build i = if i = 0 then "after base" else "!(" ^ build (i - 1) ^ " & after m" ^ string_of_int i ^ ")" in
        build d);
    ]
  in
  pf "%-16s %6s %10s %12s %14s@." "family" "depth" "leaves" "dfa states" "compile ns";
  List.iter
    (fun (name, make) ->
      List.iter
        (fun d ->
          let src = make d in
          let expr = P.parse_event src in
          let states = ref 0 in
          let leaves = List.length (Expr.logical_events expr) in
          let ns =
            measure_ns ~min_time:0.02 (fun () ->
                let alphabet, lowered, _ = Rewrite.build expr in
                let c = Compile.compile ~m:(Rewrite.n_symbols alphabet) lowered in
                states := Compile.total_dfa_states c)
          in
          let states, leaves = ((!states, leaves)) in
          let states, leaves = (states, leaves) in
          pf "%-16s %6d %10d %12d %14.0f@." name d leaves states ns)
        [ 1; 2; 4; 6; 8 ])
    families

(* ------------------------------------------------------------------ *)
(* E3: detection-state memory per object                               *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3: detection state per object (§5 claim: one word per active trigger)";
  let lowered = e1_lowered () in
  let m = !e1_alphabet_m in
  let compiled = Compile.compile ~m lowered in
  let n_objects = 1000 in
  pf "%d objects, one active trigger each, after n events per object:@." n_objects;
  pf "%8s %18s %18s %18s@." "n" "dfa bytes/obj" "tree bytes/obj" "reeval bytes/obj";
  List.iter
    (fun n ->
      let h = seeded_history ~m ~len:n 7 in
      let mask _ = true in
      (* automaton state: one int array per object *)
      let dfa_bytes = 8 * Compile.n_state_words compiled in
      let tree = Ode_baseline.Incr.make lowered in
      Array.iter (fun sym -> ignore (Ode_baseline.Incr.post tree ~mask sym)) h;
      let re = Ode_baseline.Reeval.make lowered in
      Array.iter (fun sym -> ignore (Ode_baseline.Reeval.post re ~mask sym)) h;
      pf "%8d %18d %18d %18d@." n dfa_bytes
        (Ode_baseline.Incr.state_bytes tree)
        (Ode_baseline.Reeval.state_bytes re))
    [ 10; 100; 1000 ]

(* ------------------------------------------------------------------ *)
(* E4: the committed-history lift (§6)                                 *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4: committed-history lift A -> A' (§6 claim: <= |A|^2 states, same speed class)";
  (* alphabet: 0 tbegin, 1 tcommit, 2 tabort, 3.. ordinary *)
  let m = 6 in
  let tb s = s = 0 and tc s = s = 1 and ta s = s = 2 in
  let exprs =
    [
      ("choose 3 (update)", Lowered.Choose (3, Atom [| false; false; false; true; false; false |]));
      ("seq(u,v)", Lowered.Sequence (Atom [| false; false; false; true; false; false |],
                                     Atom [| false; false; false; false; true; false |]));
      ("rel(u, prior(v,w))",
       Lowered.Relative
         ( Atom [| false; false; false; true; false; false |],
           Lowered.Prior
             ( Atom [| false; false; false; false; true; false |],
               Atom [| false; false; false; false; false; true |] ) ));
    ]
  in
  (* well-formed history: txn blocks with 30% aborts *)
  let gen_h len =
    let out = ref [] in
    let i = ref 0 in
    while List.length !out < len do
      let body = 1 + (!i mod 3) in
      out := !out @ [ 0 ];
      for k = 1 to body do
        out := !out @ [ 3 + ((!i + k) mod 3) ]
      done;
      out := !out @ [ (if !i mod 10 < 3 then 2 else 1) ];
      incr i
    done;
    Array.of_list !out
  in
  let h = gen_h 3000 in
  pf "%-22s %8s %8s %10s %14s %14s@." "expr" "|A|" "|A'|" "bound" "A ns/ev" "A' ns/ev";
  List.iter
    (fun (name, e) ->
      let a = Compile.compile_pure ~m e in
      let a' = Committed.lift a ~tbegin:tb ~tcommit:tc ~tabort:ta in
      let bench d =
        let s = ref d.Dfa.start in
        let i = ref 0 in
        measure_ns (fun () ->
            s := Dfa.step d !s h.(!i mod Array.length h);
            incr i)
      in
      pf "%-22s %8d %8d %10d %14.0f %14.0f@." name (Dfa.n_states a) (Dfa.n_states a')
        (Dfa.n_states a * Dfa.n_states a)
        (bench a) (bench a'))
    exprs

(* ------------------------------------------------------------------ *)
(* E5: mask-disjointness rewriting blowup (§5)                         *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5: overlapping-mask rewriting (§5 claim: 2^k atoms, acceptable in practice)";
  pf "%4s %8s %12s %14s %16s@." "k" "atoms" "dfa states" "build ns" "classify ns/ev";
  List.iter
    (fun k ->
      let leaves =
        List.init k (fun i -> Printf.sprintf "before log && x%d > 0" i)
      in
      let src = String.concat " | " leaves in
      let expr = P.parse_event src in
      let (alphabet, det), build_ns =
        time_once (fun () ->
            let alphabet, _, _ = Rewrite.build expr in
            (alphabet, Detector.make expr))
      in
      let env =
        {
          Mask.empty_env with
          var =
            (fun name ->
              let i = int_of_string (String.sub name 1 (String.length name - 1)) in
              Some (Value.Int (if i mod 2 = 0 then 1 else 0)));
        }
      in
      let occ = { Symbol.basic = Symbol.Method (Before, "log"); args = []; at = 0L } in
      let state = Detector.initial det in
      let classify_ns = measure_ns (fun () -> ignore (Detector.post det state ~env occ)) in
      pf "%4d %8d %12d %14.0f %16.0f@." k
        (Array.length alphabet.Rewrite.atoms)
        (Compile.total_dfa_states det.Detector.compiled)
        build_ns classify_ns)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* ------------------------------------------------------------------ *)
(* E6: coupling modes (§7)                                             *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6: the nine coupling modes as event expressions (§7)";
  let cond = Mask.Call ("cond", []) in
  let event = Expr.after "edit" in
  (* a plausible transaction stream at the automaton level *)
  pf "%-24s %10s %12s %14s@." "mode" "states" "state words" "detect ns/ev";
  List.iter
    (fun mode ->
      let expr = Coupling.expression mode ~event ~cond in
      let det = Detector.make expr in
      let env =
        { Mask.empty_env with var = (fun _ -> None) }
      in
      let env = { env with Mask.call = (fun _ _ -> Value.Bool true) } in
      let stream =
        [
          Symbol.Tbegin; Symbol.Access Before; Symbol.Method (Before, "edit");
          Symbol.Method (After, "edit"); Symbol.Access After; Symbol.Tcomplete;
          Symbol.Tcommit;
        ]
      in
      let occs = List.map (fun b -> { Symbol.basic = b; args = []; at = 0L }) stream in
      let state = Detector.initial det in
      let i = ref 0 in
      let occs = Array.of_list occs in
      let ns =
        measure_ns (fun () ->
            ignore (Detector.post det state ~env occs.(!i mod Array.length occs));
            incr i)
      in
      pf "%-24s %10d %12d %14.0f@." (Coupling.name mode)
        (Compile.total_dfa_states det.Detector.compiled)
        (Detector.n_state_words det) ns)
    Coupling.all

(* ------------------------------------------------------------------ *)
(* E7: end-to-end stockroom throughput                                 *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7: stockroom transaction throughput vs active triggers (§3.5/§5)";
  let module S = Ode_scenarios.Stockroom in
  let module D = Ode_odb.Database in
  let run k_triggers =
    let s = S.setup ~activate:false () in
    let names = [ "T1"; "T2"; "T3"; "T4"; "T5"; "T6"; "T7"; "T8" ] in
    let to_activate = List.filteri (fun i _ -> i < k_triggers) names in
    (match
       D.with_txn s.S.db (fun _ ->
           List.iter (fun n -> D.activate s.S.db s.S.stockroom n []) to_activate)
     with
    | Ok () -> ()
    | Error `Aborted -> failwith "activation aborted");
    let item = S.new_item s ~name:"w" ~eoq:1 ~balance:max_int in
    let n_txns = 300 in
    let _, total_ns =
      time_once (fun () ->
          for i = 1 to n_txns do
            ignore (S.withdraw s ~item ~qty:(if i mod 3 = 0 then 150 else 10))
          done)
    in
    (k_triggers, total_ns /. float_of_int n_txns)
  in
  pf "%10s %16s %14s@." "triggers" "us/txn" "txn/s";
  let baseline = ref 0.0 in
  List.iter
    (fun k ->
      let _, ns = run k in
      if k = 0 then baseline := ns;
      pf "%10d %16.1f %14.0f@." k (ns /. 1e3) (1e9 /. ns))
    [ 0; 1; 2; 4; 8 ];
  let _, ns8 = run 8 in
  pf "shape: all 8 paper triggers cost %.1fx over no triggers@." (ns8 /. !baseline)

(* ------------------------------------------------------------------ *)
(* E8: counting operators (§3.4): states linear in n                   *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8: counting-operator automaton size (choose/every/prior n)";
  pf "%6s %12s %12s %12s@." "n" "choose" "every" "prior";
  List.iter
    (fun n ->
      let states op =
        let expr = P.parse_event (Printf.sprintf "%s %d (after f)" op n) in
        let alphabet, lowered, _ = Rewrite.build expr in
        Dfa.n_states (Compile.compile_pure ~m:(Rewrite.n_symbols alphabet) lowered)
      in
      pf "%6d %12d %12d %12d@." n (states "choose") (states "every") (states "prior"))
    [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]

(* ------------------------------------------------------------------ *)
(* E9 (ablation): one automaton per class (§5 footnote 5)              *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9 (ablation): per-trigger automata vs one combined automaton per class";
  let trigger_sets =
    [
      ("stockroom T5+T8",
       [ "every 5 (after access)";
         "after deposit; before withdraw; after withdraw" ]);
      ("stockroom T4+T5+T7+T8",
       [ "every 5 (after access)";
         "after deposit; before withdraw; after withdraw";
         "relative(at time(HR=9), prior(choose 5 (after tcommit), after tcommit) & \
          !prior(at time(HR=9), after tcommit))";
         "fa(at time(HR=9), choose 5 (after withdraw(i, q) && q > 100), at time(HR=9))" ]);
      ("six counters",
       List.init 6 (fun i -> Printf.sprintf "choose %d (after m%d)" (i + 2) (i mod 3)));
    ]
  in
  let env = Mask.empty_env in
  let stream =
    [|
      Symbol.Method (After, "access"); Symbol.Method (After, "deposit");
      Symbol.Method (Before, "withdraw"); Symbol.Method (After, "withdraw");
      Symbol.Tcommit; Symbol.Method (After, "m0"); Symbol.Method (After, "m1");
      Symbol.Method (After, "m2");
    |]
  in
  let occs =
    Array.map (fun b -> { Symbol.basic = b; args = []; at = 0L }) stream
  in
  pf "%-24s %4s %10s %10s %14s %14s %12s@." "trigger set" "k" "sum |A|" "combined"
    "separate ns/ev" "combined ns/ev" "state words";
  List.iter
    (fun (name, srcs) ->
      let exprs = List.map P.parse_event srcs in
      let detectors = List.map Detector.make exprs in
      let states = List.map Detector.initial detectors in
      let i = ref 0 in
      let sep_ns =
        measure_ns (fun () ->
            let occ = occs.(!i mod Array.length occs) in
            List.iter2
              (fun det st -> ignore (Detector.post det st ~env occ))
              detectors states;
            incr i)
      in
      let combined = Combine.make exprs in
      let cstate = ref (Combine.initial combined) in
      let j = ref 0 in
      let comb_ns =
        measure_ns (fun () ->
            let occ = occs.(!j mod Array.length occs) in
            let s, _ = Combine.post combined !cstate ~env occ in
            cstate := s;
            incr j)
      in
      pf "%-24s %4d %10d %10d %14.0f %14.0f %6d vs 1@." name (List.length exprs)
        (Combine.sum_of_parts combined)
        (Combine.n_states combined) sep_ns comb_ns (List.length exprs))
    trigger_sets

(* ------------------------------------------------------------------ *)
(* E10 (ablation): minimization during compilation                     *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10 (ablation): minimizing intermediate automata during compilation";
  let exprs =
    [
      ("stockroom T4",
       "relative(at time(HR=9), prior(choose 5 (after tcommit), after tcommit) & \
        !prior(at time(HR=9), after tcommit))");
      ("stockroom T7",
       "fa(at time(HR=9), choose 5 (after withdraw(i, q) && q > 100), at time(HR=9))");
      ("coupling DDep",
       "fa(fa(after edit, before tcomplete, after tbegin) && cond(), after tcommit, \
        after tbegin)");
      ("nested fa", "fa(after a, fa(after b, after c, after d), after e)");
      ("negated sequence", "!(after a; after b) & relative(after c, !(after d | after e))");
    ]
  in
  pf "%-20s %14s %14s %14s %14s@." "expr" "min states" "raw states" "min compile"
    "raw compile";
  List.iter
    (fun (name, src) ->
      let expr = P.parse_event src in
      let build () =
        let alphabet, lowered, _ = Rewrite.build expr in
        Compile.compile ~m:(Rewrite.n_symbols alphabet) lowered
      in
      Compile.minimization := true;
      let states_min = ref 0 in
      let t_min =
        measure_ns ~min_time:0.02 (fun () -> states_min := Compile.total_dfa_states (build ()))
      in
      Compile.minimization := false;
      let states_raw = ref 0 in
      let t_raw =
        measure_ns ~min_time:0.02 (fun () -> states_raw := Compile.total_dfa_states (build ()))
      in
      Compile.minimization := true;
      pf "%-20s %14d %14d %12.0fus %12.0fus@." name !states_min !states_raw
        (t_min /. 1e3) (t_raw /. 1e3))
    exprs

(* ------------------------------------------------------------------ *)
(* E11 (ablation): native closures vs the interpreted ODL surface       *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11 (ablation): native OCaml bodies vs interpreted ODL bodies";
  let module D = Ode_odb.Database in
  let run_txns db oid n =
    let _, total =
      time_once (fun () ->
          for _ = 1 to n do
            match D.with_txn db (fun _ -> ignore (D.call db oid "incr" [])) with
            | Ok () | Error `Aborted -> ()
          done)
    in
    total /. float_of_int n
  in
  (* native *)
  let native_db = D.create_db () in
  D.register_class native_db
    (D.define_class "cell" ~constructor:(fun db oid _ -> D.activate db oid "watch" [])
    |> (fun b -> D.field b "n" (Value.Int 0))
    |> (fun b -> D.field b "alerts" (Value.Int 0))
    |> (fun b ->
         D.method_ b ~kind:D.Updating "incr" (fun db oid _ ->
             D.set_field db oid "n" (Value.add (D.get_field db oid "n") (Value.Int 1));
             Value.Unit))
    |> (fun b ->
         D.method_ b ~kind:D.Updating "alert" (fun db oid _ ->
             D.set_field db oid "alerts"
               (Value.add (D.get_field db oid "alerts") (Value.Int 1));
             Value.Unit))
    |> fun b ->
    D.trigger_str b ~perpetual:true "watch" ~event:"every 10 (after incr)"
      ~action:(fun db ctx -> ignore (D.call db ctx.D.fc_oid "alert" [])));
  let native_oid =
    match D.with_txn native_db (fun _ -> D.create native_db "cell" []) with
    | Ok oid -> oid
    | Error `Aborted -> failwith "abort"
  in
  (* interpreted *)
  let odl_db = D.create_db () in
  ignore
    (Ode_odl.Odl.load_schema odl_db
       {|
       class cell {
         int n = 0;
         int alerts = 0;
       public:
         cell() { activate watch(); }
         update void incr()  { n = n + 1; }
         update void alert() { alerts = alerts + 1; }
       trigger:
         watch() : perpetual every 10 (after incr) ==> alert();
       };
       |});
  let odl_oid =
    match D.with_txn odl_db (fun _ -> D.create odl_db "cell" []) with
    | Ok oid -> oid
    | Error `Aborted -> failwith "abort"
  in
  let n = 2000 in
  let native_ns = run_txns native_db native_oid n in
  let odl_ns = run_txns odl_db odl_oid n in
  pf "%-12s %14s %14s@." "surface" "us/txn" "txn/s";
  pf "%-12s %14.2f %14.0f@." "native" (native_ns /. 1e3) (1e9 /. native_ns);
  pf "%-12s %14.2f %14.0f@." "ODL" (odl_ns /. 1e3) (1e9 /. odl_ns);
  pf "shape: interpretation costs %.2fx@." (odl_ns /. native_ns)

(* ------------------------------------------------------------------ *)
(* E12 (extension): full provenance vs one-word detection (§9)          *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12 (extension): full provenance tracking vs the one-word automaton (§9)";
  let expr = P.parse_event "relative(after credit(dst, q), after debit(src, p))" in
  let env = Mask.empty_env in
  let mk_occ i =
    if i mod 3 = 2 then
      { Symbol.basic = Symbol.Method (After, "debit");
        args = [ Value.Oid 1; Value.Int i ]; at = 0L }
    else
      { Symbol.basic = Symbol.Method (After, "credit");
        args = [ Value.Oid i; Value.Int i ]; at = 0L }
  in
  pf "%8s %16s %18s %14s %12s@." "history" "detector ns/ev" "provenance ns/ev"
    "witnesses/ev" "instances";
  List.iter
    (fun n ->
      let det = Detector.make expr in
      let state = Detector.initial det in
      for i = 0 to n - 1 do
        ignore (Detector.post det state ~env (mk_occ i))
      done;
      let i = ref n in
      let det_ns =
        measure_ns (fun () ->
            ignore (Detector.post det state ~env (mk_occ !i));
            incr i)
      in
      let prov = Provenance.make ~max_matches:100_000 expr in
      for i = 0 to n - 1 do
        ignore (Provenance.post prov ~env (mk_occ i))
      done;
      let batch = 60 in
      let witnesses = ref 0 in
      let (), total =
        time_once (fun () ->
            for j = 0 to batch - 1 do
              witnesses := !witnesses + List.length (Provenance.post prov ~env (mk_occ (n + j)))
            done)
      in
      pf "%8d %16.0f %18.0f %14.1f %12d@." n det_ns (total /. float_of_int batch)
        (float_of_int !witnesses /. float_of_int batch)
        (Provenance.instance_count prov))
    [ 30; 100; 300; 1000 ];
  pf "shape: the automaton stays O(1); provenance pays per live witness — §5's budget\n\
      is what the one-word design buys.@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment              *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  let open Bechamel in
  let lowered = e1_lowered () in
  let m = !e1_alphabet_m in
  let compiled = Compile.compile ~m lowered in
  let mask _ = true in
  let eval () id = mask id in
  let h = seeded_history ~m ~len:1000 42 in
  (* E1 *)
  let dfa_state = Compile.initial compiled in
  Array.iter (fun sym -> ignore (Compile.step compiled dfa_state 0 sym eval ())) h;
  let i1 = ref 0 in
  let e1_dfa =
    Test.make ~name:"e1-dfa-step"
      (Staged.stage (fun () ->
           ignore (Compile.step compiled dfa_state 0 h.(!i1 mod 1000) eval ());
           incr i1))
  in
  let tree = Ode_baseline.Incr.make lowered in
  Array.iter (fun sym -> ignore (Ode_baseline.Incr.post tree ~mask sym)) h;
  let i2 = ref 0 in
  let e1_tree =
    Test.make ~name:"e1-tree-step@1000"
      (Staged.stage (fun () ->
           ignore (Ode_baseline.Incr.post tree ~mask h.(!i2 mod 1000));
           incr i2))
  in
  (* E2 *)
  let t8 = P.parse_event "after deposit; before withdraw; after withdraw" in
  let e2_compile =
    Test.make ~name:"e2-compile-T8"
      (Staged.stage (fun () -> ignore (Detector.make t8)))
  in
  (* E4 *)
  let a =
    Compile.compile_pure ~m:6
      (Lowered.Choose (3, Atom [| false; false; false; true; false; false |]))
  in
  let a' =
    Committed.lift a ~tbegin:(fun s -> s = 0) ~tcommit:(fun s -> s = 1)
      ~tabort:(fun s -> s = 2)
  in
  let s4 = ref a'.Dfa.start in
  let i4 = ref 0 in
  let h4 = seeded_history ~m:6 ~len:1000 5 in
  let e4_lift =
    Test.make ~name:"e4-lifted-step"
      (Staged.stage (fun () ->
           s4 := Dfa.step a' !s4 h4.(!i4 mod 1000);
           incr i4))
  in
  (* E5 *)
  let det5 = Detector.make (P.parse_event "before log && a > 0 | before log && b > 0") in
  let st5 = Detector.initial det5 in
  let env5 =
    {
      Mask.empty_env with
      var = (fun name -> Some (Value.Int (if name = "a" then 1 else 0)));
    }
  in
  let occ5 = { Symbol.basic = Symbol.Method (Before, "log"); args = []; at = 0L } in
  let e5_classify =
    Test.make ~name:"e5-classify+step"
      (Staged.stage (fun () -> ignore (Detector.post det5 st5 ~env:env5 occ5)))
  in
  (* E6 *)
  let det6 =
    Detector.make
      (Coupling.expression Coupling.Immediate_dependent ~event:(Expr.after "edit")
         ~cond:(Mask.Call ("cond", [])))
  in
  let st6 = Detector.initial det6 in
  let env6 = { Mask.empty_env with call = (fun _ _ -> Value.Bool true) } in
  let occs6 =
    Array.of_list
      (List.map
         (fun b -> { Symbol.basic = b; args = []; at = 0L })
         [
           Symbol.Tbegin; Symbol.Method (After, "edit"); Symbol.Tcomplete; Symbol.Tcommit;
         ])
  in
  let i6 = ref 0 in
  let e6_mode =
    Test.make ~name:"e6-immediate-dependent"
      (Staged.stage (fun () ->
           ignore (Detector.post det6 st6 ~env:env6 occs6.(!i6 mod 4));
           incr i6))
  in
  (* E7 *)
  let module S = Ode_scenarios.Stockroom in
  let s7 = S.setup () in
  let item7 = S.new_item s7 ~name:"w" ~eoq:1 ~balance:max_int in
  let e7_txn =
    Test.make ~name:"e7-stockroom-withdraw-txn"
      (Staged.stage (fun () -> ignore (S.withdraw s7 ~item:item7 ~qty:10)))
  in
  (* E8 *)
  let e8_compile =
    Test.make ~name:"e8-compile-choose-64"
      (Staged.stage (fun () -> ignore (Detector.make (P.parse_event "choose 64 (after f)"))))
  in
  let tests =
    [ e1_dfa; e1_tree; e2_compile; e4_lift; e5_classify; e6_mode; e7_txn; e8_compile ]
  in
  section "Bechamel micro-benchmarks (ns/run, OLS on monotonic clock)";
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"ode" tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (ns :: _) -> pf "%-32s %12.1f ns/run@." name ns
      | Some [] | None -> pf "%-32s (no estimate)@." name)
    (List.sort compare rows)

let () =
  let all =
    [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
      ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
      ("e12", e12); ("micro", bechamel_suite) ]
  in
  let selected =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> all
    | names ->
      List.iter
        (fun n ->
          if not (List.mem_assoc n all) then begin
            Fmt.epr "unknown experiment %S; available: %s@." n
              (String.concat " " (List.map fst all));
            exit 2
          end)
        names;
      List.filter (fun (n, _) -> List.mem n names) all
  in
  pf "Reproduction benchmarks: Gehani, Jagadish & Shmueli, SIGMOD 1992.@.";
  List.iter (fun (_, run) -> run ()) selected;
  pf "@.done.@."
