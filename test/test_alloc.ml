(* Allocation-regression guard for the posting kernel.

   On the steady-state kernel path — dispatch index and posting kernel
   enabled, observability off, mask-free triggers that step but never
   fire — one [Engine.post] allocates only the fixed per-entry
   envelope: the [Symbol.occurrence] record and its boxed [int64]
   timestamp, the [Symbol.Key] dispatch-key wrapper, the committed-mode
   undo [ref] and the closure merging it — measured at ~15 minor-heap
   words per event on OCaml 5.1/native. The classify/step sweep itself
   — candidate counting, packed-code classification, flat-table
   stepping over the SoA state — allocates nothing: it is a constant
   envelope, independent of the number of candidate triggers. The
   threshold below was set at double an earlier ~24-word measurement
   to absorb compiler-version noise, and is tight enough that any
   per-candidate or per-code allocation sneaking back into the kernel
   (a closure, a boxed ref, a tuple — typically 3+ words times four
   candidates here) blows straight through it.

   Skipped on bytecode (different allocation profile) — the guard is
   meaningful only for the native-code compiler the benchmarks use. *)

open Ode_odb
module Value = Ode_base.Value
module Symbol = Ode_event.Symbol
module Expr = Ode_event.Expr
module Mask = Ode_event.Mask

let words_per_event_threshold = 48.0

(* Multi-level automata pay the same fixed envelope plus, per accepted
   inner level, one composite-mask evaluation — an [env.var] lookup
   returning [Some v] and the comparison's boxed intermediates —
   measured at ~31 words per event on the two-level automaton below.
   Still a constant per event, but a larger one; hence a separate
   budget, again double an earlier (~40-word) measurement. *)
let multi_level_words_per_event_threshold = 80.0

let test_kernel_allocations () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* native-only guard *)
  | Sys.Native ->
    (* raw-layer db: [Engine.post] needs the concrete [obj] *)
    let db = Types.make_db () in
    let b = Schema.define_class "c" in
    let b = Schema.field b "x" (Value.Int 0) in
    let b = Schema.method_ b ~kind:Types.Read_only "ping" (fun _ _ _ -> Value.Unit) in
    let b = Schema.method_ b ~kind:Types.Read_only "never" (fun _ _ _ -> Value.Unit) in
    (* four triggers per object, stepping on every ping but never
       completing: pure classify/step work, no firing pipeline *)
    let b =
      List.fold_left
        (fun b i ->
          Schema.trigger_str b ~perpetual:true
            (Printf.sprintf "t%d" i)
            ~event:"after ping ; after never"
            ~action:(fun _ _ -> ()))
        b [ 0; 1; 2; 3 ]
    in
    Engine.register_class db b;
    let oid =
      match
        Txn.with_txn db (fun _ ->
            let oid = Engine.create db "c" [] in
            for i = 0 to 3 do
              Engine.activate db oid (Printf.sprintf "t%d" i) []
            done;
            oid)
      with
      | Ok oid -> oid
      | Error `Aborted -> Alcotest.fail "setup transaction aborted"
    in
    let obj =
      match Store.find_obj db oid with
      | Some obj -> obj
      | None -> Alcotest.fail "object vanished"
    in
    let basic = Symbol.Method (Symbol.After, "ping") in
    let tx = Txn.begin_txn db in
    (* warm up: first post pays touch/tbegin and scratch setup *)
    for _ = 1 to 64 do
      ignore (Engine.post db tx obj basic [])
    done;
    let n = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Engine.post db tx obj basic [])
    done;
    let per_event = (Gc.minor_words () -. w0) /. float_of_int n in
    Txn.abort db tx;
    if per_event > words_per_event_threshold then
      Alcotest.failf
        "steady-state kernel post allocates %.1f minor words/event (budget %.1f)"
        per_event words_per_event_threshold

(* The same steady-state guard through a multi-level automaton: the
   trigger event wraps its first step in a composite mask, so every ping
   advances a two-word SoA slot through the per-level flat tables and
   evaluates the mask against the object environment. Pins the
   multi-level kernel path to a constant (if larger) envelope — a
   per-level or per-dependency allocation in [Compile.step]
   would scale it and blow the budget. *)
let test_multi_level_allocations () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* native-only guard *)
  | Sys.Native ->
    let db = Types.make_db () in
    let b = Schema.define_class "c" in
    let b = Schema.field b "cm0" (Value.Bool true) in
    let b = Schema.method_ b ~kind:Types.Read_only "ping" (fun _ _ _ -> Value.Unit) in
    let b = Schema.method_ b ~kind:Types.Read_only "never" (fun _ _ _ -> Value.Unit) in
    let event =
      Expr.sequence
        [
          Expr.Masked
            ( Expr.after "ping",
              Mask.Cmp (Mask.Eq, Mask.Var "cm0", Mask.Const (Value.Bool true)) );
          Expr.after "never";
        ]
    in
    let b =
      List.fold_left
        (fun b i ->
          Schema.trigger b ~perpetual:true
            (Printf.sprintf "m%d" i)
            ~event ~action:(fun _ _ -> ()))
        b [ 0; 1; 2; 3 ]
    in
    Engine.register_class db b;
    let oid =
      match
        Txn.with_txn db (fun _ ->
            let oid = Engine.create db "c" [] in
            for i = 0 to 3 do
              Engine.activate db oid (Printf.sprintf "m%d" i) []
            done;
            oid)
      with
      | Ok oid -> oid
      | Error `Aborted -> Alcotest.fail "setup transaction aborted"
    in
    (* the guard is about the multi-level path: fail loudly if the
       masked sequence ever stops compiling to a >1-word flat slot *)
    Alcotest.(check bool)
      "multi-level state" true
      (Engine.trigger_state_words db oid "m0" > 1);
    let obj =
      match Store.find_obj db oid with
      | Some obj -> obj
      | None -> Alcotest.fail "object vanished"
    in
    let basic = Symbol.Method (Symbol.After, "ping") in
    let tx = Txn.begin_txn db in
    for _ = 1 to 64 do
      ignore (Engine.post db tx obj basic [])
    done;
    let n = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Engine.post db tx obj basic [])
    done;
    let per_event = (Gc.minor_words () -. w0) /. float_of_int n in
    Txn.abort db tx;
    if per_event > multi_level_words_per_event_threshold then
      Alcotest.failf
        "multi-level kernel post allocates %.1f minor words/event (budget %.1f)"
        per_event multi_level_words_per_event_threshold

(* The wire codec's budgets guard the server's heap: a [Json.t] tree or
   a copy of the payload coming back into the [post_many] decoder, or a
   tree or a header concatenation into the firing encoder, multiplies
   these words. Decoding a 100-item [post_many] frame (wire_ingest's
   request: 100 [after bump(q)] events) measured 24.3 minor words per
   item on OCaml 5.1/native — the item record, its argument list and
   the list cells (each list built reversed, then reversed), and the
   argument read as a JSON leaf, then as a result, then as a value —
   with the event decoded once per frame. Encoding
   and framing one firing measured 25 words, nearly all of them the one
   frame string. Each budget is double its measurement. *)
let decode_words_per_item_threshold = 48.6
let firing_words_threshold = 50.0

let test_wire_codec_allocations () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* native-only guard *)
  | Sys.Native ->
    let module P = Ode_net.Protocol in
    let items =
      List.init 100 (fun i ->
          {
            P.i_oid = 1_000 + (i * 7);
            i_event = Symbol.Method (Symbol.After, "bump");
            i_args = [ Value.Int (i mod 10) ];
          })
    in
    let payload = Bytes.of_string (P.encode_request ~id:12_345 (P.Post_many items)) in
    let len = Bytes.length payload in
    let decode () =
      match P.decode_payload payload 0 len with
      | Ok (_, P.Post_many its) -> List.length its
      | _ -> Alcotest.fail "the post_many frame did not decode"
    in
    Alcotest.(check int) "one-pass decoder takes the frame" 100
      (match P.decode_post payload 0 len with
      | Some (_, P.Post_many its) -> List.length its
      | _ -> 0);
    for _ = 1 to 16 do
      ignore (decode ())
    done;
    let n = 200 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (decode ())
    done;
    let per_item = (Gc.minor_words () -. w0) /. float_of_int (n * 100) in
    if per_item > decode_words_per_item_threshold then
      Alcotest.failf "decoding post_many allocates %.1f minor words/item (budget %.1f)"
        per_item decode_words_per_item_threshold;
    let f =
      { P.fg_trigger = "Spike"; fg_class = "meter"; fg_oid = 1_234; fg_at = 1_700_000_000_000L; fg_txn = 98_765 }
    in
    let buf = Buffer.create 256 in
    let frame () =
      Buffer.clear buf;
      P.add_firing buf f;
      Ode_net.Frame.of_buffer buf
    in
    for _ = 1 to 64 do
      ignore (frame ())
    done;
    let n = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (frame ()))
    done;
    let per_firing = (Gc.minor_words () -. w0) /. float_of_int n in
    if per_firing > firing_words_threshold then
      Alcotest.failf "encoding a firing frame allocates %.1f minor words (budget %.1f)"
        per_firing firing_words_threshold

let suite =
  [
    Alcotest.test_case "kernel posts stay allocation-free" `Quick
      test_kernel_allocations;
    Alcotest.test_case "multi-level kernel posts stay allocation-free" `Quick
      test_multi_level_allocations;
    Alcotest.test_case "wire codec stays within its allocation budgets" `Quick
      test_wire_codec_allocations;
  ]
