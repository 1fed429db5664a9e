(* The wire layer: protocol round-trips, framing corruption, the
   server against the in-process oracle, backpressure policies,
   connection-teardown hygiene and the Database.Config facade. *)

module D = Ode_odb.Database
module History = Ode_odb.History
module Value = Ode_base.Value
module Symbol = Ode_event.Symbol
module Json = Ode_net.Json
module Frame = Ode_net.Frame
module P = Ode_net.Protocol
module Server = Ode_net.Server
module Client = Ode_net.Client
module Odl = Ode_odl.Odl

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                     *)
(* ------------------------------------------------------------------ *)

(* One qualifying tick -> exactly one firing: the deterministic unit of
   the backpressure and leak tests. *)
let schema_simple =
  {|
  class probe {
    int n = 0;
    int marks = 0;
  public:
    probe() { activate T(); }
    update void tick(int q) { n = n + q; }
    update void mark() { marks = marks + 1; }
    read int marks_of() { return marks; }
  trigger:
    T() : perpetual after tick(q) && q > 5 ==> mark();
  };
  |}

(* Adds a sequence trigger so the merged-order equivalence test is
   sensitive to interleaving, not just to multisets of posts. *)
let schema_rich =
  {|
  class probe {
    int n = 0;
    int marks = 0;
  public:
    probe() { activate T(); activate S(); }
    update void tick(int q) { n = n + q; }
    update void mark() { marks = marks + 1; }
    read int marks_of() { return marks; }
  trigger:
    T() : perpetual after tick(q) && q > 5 ==> mark();
    S() : perpetual after tick; after tick; after tick ==> mark();
  };
  |}

let mk_config ?(window = 0) ?(outbox = 1024) ?(max_frame = Frame.max_frame_default)
    () =
  {
    D.Config.default with
    D.Config.serve =
      {
        D.Config.default_serve with
        D.Config.port = 0;
        batch_window_ms = window;
        outbox_bound = outbox;
        max_frame_bytes = max_frame;
      };
  }

(* The database is built by the caller (so it follows the CI leg's env
   configuration); the server only gets the serve knobs. *)
let with_server ?window ?outbox ?max_frame ~db f =
  let srv = Server.create ~db ~config:(mk_config ?window ?outbox ?max_frame ()) () in
  Server.start srv;
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> f srv (Server.port srv))

let ok = function
  | Ok j -> j
  | Error (code, msg) -> Alcotest.failf "server error [%s]: %s" code msg

let jint key j =
  match Json.member key j with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "reply carried no int %S: %s" key (Json.to_string j)

let tick_item oid q =
  {
    P.i_oid = oid;
    i_event = Symbol.Method (Symbol.After, "tick");
    i_args = [ Value.Int q ];
  }

let setup_probe client =
  ignore (ok (Client.request client (P.Schema schema_simple)));
  jint "oid" (ok (Client.request client (P.Create ("probe", []))))

let drain_firings ?(timeout_s = 1.0) client =
  let rec go acc =
    match Client.wait_firing ~timeout_s client with
    | Some f -> go (f :: acc)
    | None -> List.rev acc
  in
  go []

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "unexpected abort"

(* ------------------------------------------------------------------ *)
(* Protocol round-trips (qcheck)                                       *)
(* ------------------------------------------------------------------ *)

module Gen = struct
  open QCheck.Gen

  let value =
    oneof
      [
        return Value.Unit;
        map (fun b -> Value.Bool b) bool;
        map (fun n -> Value.Int n) int;
        (* quotients of ints exercise the repr printer without hitting
           NaN (structural equality breaks there; NaN gets its own
           deterministic test) *)
        map2 (fun a b -> Value.Float (float_of_int a /. float_of_int (1 + abs b))) int small_nat;
        map (fun s -> Value.String s) (string_size (int_range 0 12));
        map (fun n -> Value.Oid (abs n)) nat;
      ]

  let qual = oneofl [ Symbol.Before; Symbol.After ]
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8)

  let time_pattern =
    let field hi = opt (int_range 0 hi) in
    let* year = opt (int_range 1970 2100) in
    let* mon = field 12 in
    let* day = field 31 in
    let* hr = field 23 in
    let* min = field 59 in
    let* sec = field 59 in
    let+ ms = field 999 in
    { Symbol.year; mon; day; hr; min; sec; ms }

  let basic =
    oneof
      [
        oneofl [ Symbol.Create; Symbol.Delete; Symbol.Tbegin; Symbol.Tcomplete; Symbol.Tcommit ];
        map (fun q -> Symbol.Update q) qual;
        map (fun q -> Symbol.Read q) qual;
        map (fun q -> Symbol.Access q) qual;
        map (fun q -> Symbol.Tabort q) qual;
        map2 (fun q n -> Symbol.Method (q, n)) qual name;
        map (fun n -> Symbol.Time (Symbol.Every (Int64.of_int (1 + n)))) small_nat;
        map (fun n -> Symbol.Time (Symbol.After_period (Int64.of_int (1 + n)))) small_nat;
        map (fun p -> Symbol.Time (Symbol.At p)) time_pattern;
      ]

  let item =
    let* oid = nat in
    let* event = basic in
    let+ args = list_size (int_range 0 4) value in
    { P.i_oid = oid; i_event = event; i_args = args }

  let policy = oneofl [ P.Block; P.Drop ]

  let request =
    oneof
      [
        return P.Status;
        map (fun s -> P.Schema s) (string_size (int_range 0 40));
        map2 (fun n args -> P.Create (n, args)) name (list_size (int_range 0 3) value);
        map (fun it -> P.Post it) item;
        map (fun its -> P.Post_many its) (list_size (int_range 0 6) item);
        map3 (fun oid n args -> P.Call (oid, n, args)) nat name
          (list_size (int_range 0 3) value);
        oneofl [ P.Tbegin; P.Tcommit; P.Tabort; P.Unsubscribe; P.Shutdown ];
        map (fun n -> P.Advance_clock (Int64.of_int n)) nat;
        map (fun s -> P.Save s) (string_size (int_range 0 20));
        map (fun p -> P.Subscribe p) policy;
      ]

  let firing =
    let* t = name in
    let* c = name in
    let* oid = nat in
    let* at = nat in
    let+ txn = nat in
    { P.fg_trigger = t; fg_class = c; fg_oid = oid; fg_at = Int64.of_int at; fg_txn = txn }
end

let reparse what s =
  match Json.of_string s with
  | Ok j -> j
  | Error msg -> QCheck.Test.fail_reportf "%s produced bad JSON (%s): %s" what msg s

let qcheck_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"decode . encode = id (requests)"
    (QCheck.make ~print:(fun (id, r) -> Printf.sprintf "#%d %s" id (P.encode_request ~id r))
       QCheck.Gen.(pair nat Gen.request))
    (fun (id, req) ->
      let wire = P.encode_request ~id req in
      match P.decode_request (reparse "encode_request" wire) with
      | Ok (id', req') -> id' = id && req' = req
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s (%s)" msg wire)

let qcheck_msg_roundtrip =
  QCheck.Test.make ~count:300 ~name:"decode . encode = id (stream messages)"
    (QCheck.make QCheck.Gen.(oneof [
         map (fun f -> P.Firing f) Gen.firing;
         map (fun n -> P.Lagged (1 + n)) small_nat;
         map2 (fun id j -> P.Reply (id, P.R_ok j))
           nat (map (fun v -> P.encode_value v) Gen.value);
         map2 (fun id (c, m) -> P.Reply (id, P.R_error (c, m)))
           nat (pair Gen.name (string_size (int_range 0 20)));
       ]))
    (fun msg ->
      let wire =
        match msg with
        | P.Reply (id, resp) -> P.encode_reply ~id resp
        | P.Firing f -> P.encode_firing f
        | P.Lagged k -> P.encode_lagged k
      in
      match P.decode_msg (reparse "encode_msg" wire) with
      | Ok msg' -> msg' = msg
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s (%s)" e wire)

(* ------------------------------------------------------------------ *)
(* The codec without a tree, against the tree forms (qcheck)           *)
(* ------------------------------------------------------------------ *)

(* The tree builders the encoders replaced: [Json.to_string] of these is
   the oracle for the bytes [Protocol] writes directly. *)
module Tree = struct
  let qual q = Json.String (match q with Symbol.Before -> "before" | Symbol.After -> "after")

  let pattern (p : Symbol.time_pattern) =
    let field name v acc = match v with None -> acc | Some n -> (name, Json.Int n) :: acc in
    Json.Obj
      (field "year" p.Symbol.year
      @@ field "mon" p.Symbol.mon
      @@ field "day" p.Symbol.day
      @@ field "hr" p.Symbol.hr
      @@ field "min" p.Symbol.min
      @@ field "sec" p.Symbol.sec
      @@ field "ms" p.Symbol.ms [])

  let time_spec = function
    | Symbol.Every ms -> Json.Obj [ ("every", Json.Int (Int64.to_int ms)) ]
    | Symbol.After_period ms -> Json.Obj [ ("after", Json.Int (Int64.to_int ms)) ]
    | Symbol.At p -> Json.Obj [ ("at", pattern p) ]

  let basic b =
    let k kind rest = Json.Obj (("k", Json.String kind) :: rest) in
    let q kind q = k kind [ ("q", qual q) ] in
    match b with
    | Symbol.Create -> k "create" []
    | Symbol.Delete -> k "delete" []
    | Symbol.Update x -> q "update" x
    | Symbol.Read x -> q "read" x
    | Symbol.Access x -> q "access" x
    | Symbol.Method (x, name) -> k "method" [ ("q", qual x); ("name", Json.String name) ]
    | Symbol.Tbegin -> k "tbegin" []
    | Symbol.Tcomplete -> k "tcomplete" []
    | Symbol.Tcommit -> k "tcommit" []
    | Symbol.Tabort x -> q "tabort" x
    | Symbol.Time spec -> k "time" [ ("spec", time_spec spec) ]

  let values vs = Json.List (List.map P.encode_value vs)

  let item it =
    Json.Obj
      [
        ("oid", Json.Int it.P.i_oid);
        ("event", basic it.P.i_event);
        ("args", values it.P.i_args);
      ]

  let fields = function
    | P.Status | P.Tbegin | P.Tcommit | P.Tabort | P.Unsubscribe | P.Shutdown -> []
    | P.Schema src -> [ ("src", Json.String src) ]
    | P.Create (cls, args) -> [ ("class", Json.String cls); ("args", values args) ]
    | P.Post it -> [ ("item", item it) ]
    | P.Post_many its -> [ ("items", Json.List (List.map item its)) ]
    | P.Call (oid, name, args) ->
      [ ("oid", Json.Int oid); ("method", Json.String name); ("args", values args) ]
    | P.Advance_clock ms -> [ ("ms", Json.Int (Int64.to_int ms)) ]
    | P.Save path -> [ ("path", Json.String path) ]
    | P.Subscribe p ->
      [ ("policy", Json.String (match p with P.Block -> "block" | P.Drop -> "drop")) ]

  let request ~id req =
    Json.Obj
      (("id", Json.Int id) :: ("verb", Json.String (P.verb_of_request req)) :: fields req)

  let reply ~id = function
    | P.R_ok payload -> Json.Obj [ ("id", Json.Int id); ("ok", payload) ]
    | P.R_error (code, msg) ->
      Json.Obj
        [
          ("id", Json.Int id);
          ("error", Json.Obj [ ("code", Json.String code); ("msg", Json.String msg) ]);
        ]

  let firing f =
    Json.Obj
      [
        ( "firing",
          Json.Obj
            [
              ("trigger", Json.String f.P.fg_trigger);
              ("class", Json.String f.P.fg_class);
              ("oid", Json.Int f.P.fg_oid);
              ("at", Json.Int (Int64.to_int f.P.fg_at));
              ("txn", Json.Int f.P.fg_txn);
            ] );
      ]

  (* the escaping every string went through before the fast path *)
  let escape s =
    let buf = Buffer.create 16 in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
end

(* The server's reply to a payload on the tree path alone. *)
let tree_payload s =
  match Json.of_string s with
  | Error msg -> Error (-1, P.err_parse, msg)
  | Ok j -> (
    match P.decode_request j with
    | Ok r -> Ok r
    | Error msg ->
      Error ((match Json.member "id" j with Some (Json.Int id) -> id | _ -> -1), P.err_bad_request, msg))

(* A JSON text for a tree, written the many ways a client may write it:
   members in any order, whitespace between any two tokens, ASCII
   characters escaped at random (as \uXXXX or their short escape). *)
let render rs j =
  let buf = Buffer.create 256 in
  let ws () =
    if Random.State.int rs 4 = 0 then
      for _ = 0 to Random.State.int rs 3 do
        Buffer.add_char buf (" \t\n\r".[Random.State.int rs 4])
      done
  in
  let str s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '/' when Random.State.bool rs -> Buffer.add_string buf "\\/"
        | c when Char.code c < 0x20 || (Char.code c < 0x80 && Random.State.int rs 5 = 0) ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  in
  let rec go j =
    ws ();
    (match j with
    | Json.String s -> str s
    | Json.List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          go x)
        xs;
      ws ();
      Buffer.add_char buf ']'
    | Json.Obj fields ->
      let fields =
        List.map snd (List.sort compare (List.map (fun f -> (Random.State.bits rs, f)) fields))
      in
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          ws ();
          str k;
          ws ();
          Buffer.add_char buf ':';
          go v)
        fields;
      ws ();
      Buffer.add_char buf '}'
    | j -> Buffer.add_string buf (Json.to_string j));
    ws ()
  in
  go j;
  Buffer.contents buf

(* Unknown members, which the tree decoder ignores: at the top and in
   every item and event, under names that share a prefix with a known
   one. *)
let with_extras rs j =
  let extra () =
    let names = [| "zz"; "idx"; "verbs"; "item_"; "itemsx"; "oidx"; "eventy"; "arg"; "kk"; "names"; "specs" |] in
    ( names.(Random.State.int rs (Array.length names)),
      Json.List [ Json.Int 1; Json.Obj [ ("a", Json.Null) ]; Json.String "x" ] )
  in
  let add fields = if Random.State.int rs 3 = 0 then fields @ [ extra () ] else fields in
  let rec fix = function
    | Json.Obj fields ->
      Json.Obj
        (add
           (List.map
              (fun (k, v) ->
                match (k, v) with
                | ("items", Json.List xs) -> (k, Json.List (List.map fix xs))
                | ("item" | "event"), v -> (k, fix v)
                | _ -> (k, v))
              fields))
    | j -> j
  in
  fix j

let post_request =
  QCheck.Gen.(
    oneof
      [
        map (fun it -> P.Post it) Gen.item;
        map (fun its -> P.Post_many its) (list_size (int_range 0 6) Gen.item);
      ])

let render_post (seed, id, req) =
  let rs = Random.State.make [| seed |] in
  render rs (with_extras rs (Tree.request ~id req))

let arb_post =
  QCheck.make
    ~print:(fun ((_, id, req) as x) -> Printf.sprintf "#%d %s\n%s" id (P.encode_request ~id req) (render_post x))
    QCheck.Gen.(triple int nat post_request)

let decode_post_string s = P.decode_post (Bytes.of_string s) 0 (String.length s)

let qcheck_decode_post =
  QCheck.Test.make ~count:1000 ~name:"one-pass post decoder = tree decoder (well-formed)" arb_post
    (fun ((_, id, req) as x) ->
      let s = render_post x in
      match (decode_post_string s, tree_payload s) with
      | Some r, Ok r' -> compare r r' = 0 && compare r (id, req) = 0
      | None, _ -> QCheck.Test.fail_reportf "the one-pass decoder declined %s" s
      | Some _, Error (_, _, msg) -> QCheck.Test.fail_reportf "the tree path rejects %s: %s" s msg)

(* Inputs from the corruption tests and the tree parser's limits, placed
   where the one-pass decoder reads. *)
let hostile =
  [
    "this is not json";
    {|{"id":5,"verb":"frobnicate"}|};
    {|{"id":6,"verb":"post","oid":0,"event":{"kind":"create"},"args":[[1e999]]}|};
    String.make 600 '[';
    {|{"id":1,"verb":"post","item":{"oid":1,"event":{"k":"create"},"args":[1e999]}}|};
    {|{"id":1,"verb":"post","item":{"oid":99999999999999999999,"event":{"k":"create"}}}|};
    {|{"id":4611686018427387904,"verb":"post","item":{"oid":1,"event":{"k":"create"}}}|};
    {|{"id":4611686018427387903,"verb":"post","item":{"oid":-4611686018427387904,"event":{"k":"create"},"args":[123456789012345678901234567890]}}|};
    {|{"id":1,"verb":"post","id":2,"item":{"oid":1,"event":{"k":"create"}}}|};
    {|{"id":1,"verb":"post","item":{"oid":1,"oid":2,"event":{"k":"create"}}}|};
    {|{"id":1,"verb":"post","item":{"oid":1,"event":{"k":"method","q":"after","name":"a","name":"b"}}}|};
    {|{"id":1,"verb":"post","item":{"oid":1,"event":{"k":"create"},"args":[{"oid":1,"oid":2}]}}|};
    {|{"id":1,"verb":"post","item":{"oid":1,"event":{"k":"create"},"args":[{"float":"nan"},{"float":"-inf"},{"float":"zero"}]}}|};
    {|{"id":1,"verb":"post","item":{"oid":1,"event":{"k":"time","spec":{"at":7}}}}|};
    {|{"id":1,"verb":"post","item":{"oid":1,"event":{"k":"time","spec":{"every":5,"after":5}}}}|};
    {|{"id":1,"verb":"post_many","items":[],"item":5}|};
    {|{"id":1,"verb":"post","items":5,"item":{"oid":1,"event":{"k":"tbegin","q":7}}}|};
    {|{"id":1,"verb":"post","item":{"oid":1,"event":{"k":"method","q":"after","name":"\ud800"}}}|};
    {|{"id":1,"verb":"post","item":{"oid":1,"event":{"k":"method","q":"after","name":"😀é"}}}|};
    {|{"id":1,"verb":"post","item":{"oid":1,"event":{"k":"read","q":"before"},"args":null}}|};
    {|{"id":1,"verb":"post","item":{"oid":1,"event":{"k":"read","q":"before"},"args":[007,-0,1.5e3]}}|};
  ]
  @ List.map
      (fun k ->
        Printf.sprintf {|{"id":1,"verb":"post","zz":%s1%s,"item":{"oid":1,"event":{"k":"create"}}}|}
          (String.make k '[') (String.make k ']'))
      [ 510; 511; 512; 513 ]
  @ (* one event, nested to the depth limit under "item" and one level
       past it under "items" *)
  [
    (let ev = Printf.sprintf {|{"k":"create","zz":%s1%s}|} (String.make 509 '[') (String.make 509 ']') in
     Printf.sprintf {|{"id":1,"verb":"post_many","item":{"oid":1,"event":%s},"items":[{"oid":1,"event":%s}]}|} ev ev);
  ]

let corrupt rs s =
  let n = String.length s in
  if n = 0 then s
  else
    match Random.State.int rs 4 with
    | 0 -> String.sub s 0 (Random.State.int rs n)
    | 1 ->
      let b = Bytes.of_string s in
      Bytes.set b (Random.State.int rs n) (Char.chr (Random.State.int rs 256));
      Bytes.to_string b
    | 2 ->
      let b = Bytes.of_string s in
      let alphabet = "{}[]\",:\\u0-1e.tfn " in
      Bytes.set b (Random.State.int rs n) alphabet.[Random.State.int rs (String.length alphabet)];
      Bytes.to_string b
    | _ ->
      let i = Random.State.int rs n in
      let j = min n (i + 1 + Random.State.int rs 6) in
      let splice = List.nth [ "1e999"; "99999999999999999999"; "[[[["; "\"\\u"; ""; "null" ] (Random.State.int rs 6) in
      String.sub s 0 i ^ splice ^ String.sub s j (n - j)

let test_hostile_payloads () =
  List.iter
    (fun s ->
      let b = Bytes.of_string ("xx" ^ s ^ "yy") in
      if compare (P.decode_payload b 2 (String.length s)) (tree_payload s) <> 0 then
        Alcotest.failf "server reply differs from the tree path on %s" s)
    hostile

let qcheck_decode_corrupt =
  QCheck.Test.make ~count:2000 ~name:"one-pass post decoder: corrupted frames get the tree path's reply"
    QCheck.(pair arb_post small_nat)
    (fun (x, k) ->
      let rs = Random.State.make [| k |] in
      let s = corrupt rs (render_post x) in
      let s = if Random.State.bool rs then corrupt rs s else s in
      let b = Bytes.of_string s in
      (match P.decode_post b 0 (Bytes.length b) with
      | Some r when compare (Ok r) (tree_payload s) <> 0 ->
        QCheck.Test.fail_reportf "one-pass decoder accepted %s differently" s
      | _ -> ());
      compare (P.decode_payload b 0 (Bytes.length b)) (tree_payload s) = 0)

let qcheck_encoders =
  QCheck.Test.make ~count:500 ~name:"direct encoders = Json.to_string of the tree forms"
    (QCheck.make
       QCheck.Gen.(
         quad (pair nat Gen.request) Gen.firing
           (pair nat (map P.encode_value Gen.value))
           (triple nat nat nat)))
    (fun ((id, req), f, (rid, payload), (batch, queued, firings)) ->
      let with_buf add =
        let buf = Buffer.create 16 in
        add buf;
        Buffer.contents buf
      in
      let err = P.R_error (Tree.escape (P.verb_of_request req), P.encode_request ~id req) in
      P.encode_request ~id req = Json.to_string (Tree.request ~id req)
      && with_buf (fun b -> P.add_request b ~id req) = P.encode_request ~id req
      && P.encode_firing f = Json.to_string (Tree.firing f)
      && P.encode_reply ~id:rid (P.R_ok payload) = Json.to_string (Tree.reply ~id:rid (P.R_ok payload))
      && P.encode_reply ~id:rid err = Json.to_string (Tree.reply ~id:rid err)
      && P.encode_lagged (1 + queued) = Json.to_string (Json.Obj [ ("lagged", Json.Int (1 + queued)) ])
      && with_buf (fun b -> P.add_batch_reply b ~id:rid ~batch ~queued ~firings)
         = Json.to_string
             (Tree.reply ~id:rid
                (P.R_ok
                   (Json.Obj
                      [
                        ("batch", Json.Int batch);
                        ("queued", Json.Int queued);
                        ("firings", Json.Int firings);
                      ])))
      && (let s = P.encode_firing f in
          let buf = Buffer.create 16 in
          Buffer.add_string buf s;
          Frame.of_buffer buf = Frame.encode s)
      && with_buf (fun b -> Json.escape_into b f.P.fg_trigger) = Tree.escape f.P.fg_trigger)

let qcheck_escape =
  QCheck.Test.make ~count:500 ~name:"escape_into = per-character escaping"
    QCheck.(string_gen_of_size Gen.(int_range 0 20) Gen.(oneof [ char; oneofl [ '"'; '\\'; '\n'; '\001' ] ]))
    (fun s ->
      let buf = Buffer.create 16 in
      Json.escape_into buf s;
      Buffer.contents buf = Tree.escape s)

let test_nonfinite_floats () =
  List.iter
    (fun f ->
      match P.decode_value (P.encode_value (Value.Float f)) with
      | Ok (Value.Float f') ->
        Alcotest.(check bool)
          (Printf.sprintf "%h survives" f)
          true
          (Float.is_nan f' = Float.is_nan f && (Float.is_nan f || f' = f))
      | Ok v -> Alcotest.failf "decoded to %s" (Value.to_string v)
      | Error msg -> Alcotest.fail msg)
    [ Float.nan; Float.infinity; Float.neg_infinity; 1e-308; Float.pi; -0.0 ]

(* The parser must reject what the printer refuses (numerals that
   overflow to infinity) and bound its recursion, so no client-supplied
   document can break the parse/print round trip or blow the stack. *)
let test_json_limits () =
  (match Json.of_string "1e999" with
  | Error _ -> ()
  | Ok j -> Alcotest.failf "1e999 parsed to %s" (Json.to_string j));
  (match Json.of_string "[-1e999]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "-1e999 must be rejected");
  (* out-of-int-range but finite still degrades to float, at exactly
     the 63-bit bounds *)
  List.iter
    (fun (s, want) ->
      match (Json.of_string s, want) with
      | Ok (Json.Int n), Some m when n = m -> ()
      | Ok (Json.Float _), None -> ()
      | Ok j, _ -> Alcotest.failf "%s parsed to %s" s (Json.to_string j)
      | Error msg, _ -> Alcotest.failf "%s rejected: %s" s msg)
    [
      ("123456789012345678901234567890", None);
      ("999999999999999999", Some 999_999_999_999_999_999);
      ("-999999999999999999", Some (-999_999_999_999_999_999));
      ("4611686018427387903", Some max_int);
      ("4611686018427387904", None);
      ("-4611686018427387904", Some min_int);
      ("-4611686018427387905", None);
      ("0004611686018427387903", Some max_int);
    ];
  let deep_ok = String.make 100 '[' ^ "1" ^ String.make 100 ']' in
  (match Json.of_string deep_ok with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "depth 100 rejected: %s" msg);
  match Json.of_string (String.make 200_000 '[') with
  | Error _ -> ()  (* a parse error, crucially not Stack_overflow *)
  | Ok _ -> Alcotest.fail "nesting bomb must fail to parse"

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let test_decoder_incremental () =
  let payloads = [ "hello"; "{}"; String.make 1000 'x' ] in
  let stream = String.concat "" (List.map Frame.encode payloads) in
  let d = Frame.decoder () in
  let out = ref [] in
  String.iter
    (fun ch ->
      Frame.feed d (Bytes.make 1 ch) 1;
      let rec pop () =
        match Frame.next d with
        | Ok (Some p) ->
          out := p :: !out;
          pop ()
        | Ok None -> ()
        | Error (`Oversized _) -> Alcotest.fail "spurious oversize"
      in
      pop ())
    stream;
  Alcotest.(check (list string)) "byte-at-a-time framing" payloads (List.rev !out);
  Alcotest.(check int) "no leftover bytes" 0 (Frame.pending d)

let test_decoder_poison () =
  let header_of len =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int len);
    b
  in
  let d = Frame.decoder ~max:16 () in
  Frame.feed d (header_of 100) 4;
  (match Frame.next d with
  | Error (`Oversized 100) -> ()
  | _ -> Alcotest.fail "oversized length must poison the decoder");
  let d0 = Frame.decoder () in
  Frame.feed d0 (header_of 0) 4;
  match Frame.next d0 with
  | Error (`Oversized 0) -> ()
  | _ -> Alcotest.fail "zero length must poison the decoder"

let test_read_frame_errors () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frame = Frame.encode "abcdefgh" in
  (* a whole frame, then a torn one *)
  ignore (Unix.write_substring a frame 0 (String.length frame));
  ignore (Unix.write_substring a frame 0 (String.length frame - 3));
  Unix.close a;
  (match Frame.read_frame b with
  | Ok "abcdefgh" -> ()
  | _ -> Alcotest.fail "first frame should decode");
  (match Frame.read_frame b with
  | Error (Frame.Truncated 3) -> ()
  | _ -> Alcotest.fail "torn tail should report Truncated 3");
  Unix.close b;
  let c, dd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close c;
  (match Frame.read_frame dd with
  | Error Frame.Eof -> ()
  | _ -> Alcotest.fail "clean close between frames is Eof");
  Unix.close dd

(* ------------------------------------------------------------------ *)
(* Raw socket helpers (frames without the Client's request pairing)    *)
(* ------------------------------------------------------------------ *)

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let raw_send fd id req = Frame.write_frame fd (P.encode_request ~id req)

let raw_recv fd =
  match Frame.read_frame fd with
  | Error e ->
    Alcotest.failf "read_frame: %s"
      (match e with
      | Frame.Eof -> "eof"
      | Frame.Truncated n -> Printf.sprintf "truncated (%d owed)" n
      | Frame.Oversized n -> Printf.sprintf "oversized (%d)" n)
  | Ok payload -> (
    match Json.of_string payload with
    | Error msg -> Alcotest.failf "bad JSON from server: %s" msg
    | Ok j -> (
      match P.decode_msg j with
      | Ok m -> m
      | Error msg -> Alcotest.failf "bad message from server: %s" msg))

(* ------------------------------------------------------------------ *)
(* Wire equivalence against the in-process oracle                      *)
(* ------------------------------------------------------------------ *)

(* Two concurrent wire clients post interleaved batches; the in-process
   oracle replays the server's merged order (recovered from the §9
   object history) batch by batch (batch boundaries recovered from the
   replies). The firing streams must agree event for event — including
   transaction ids — and the state fingerprints must be equal bytes. *)
let test_wire_equivalence () =
  let db_s = D.create_db () in
  ignore (Odl.load_schema db_s schema_rich);
  D.enable_history db_s ~limit:100_000;
  let db_o = D.create_db () in
  ignore (Odl.load_schema db_o schema_rich);
  D.enable_history db_o ~limit:100_000;
  let oracle_firings = ref [] in
  ignore
    (D.subscribe_firings db_o (fun f -> oracle_firings := f :: !oracle_firings));
  let wire_firings =
    with_server ~window:30 ~db:db_s (fun _srv port ->
        let sub = Client.connect ~port () in
        Fun.protect
          ~finally:(fun () -> Client.close sub)
          (fun () ->
            let oid = jint "oid" (ok (Client.request sub (P.Create ("probe", [])))) in
            ignore (ok (Client.request sub (P.Subscribe P.Block)));
            let oid_o =
              expect_ok (D.with_txn db_o (fun _ -> D.create db_o "probe" []))
            in
            Alcotest.(check int) "oids line up" oid oid_o;
            (* two raw clients, requests written without awaiting
               replies, so their posts genuinely coalesce *)
            let a = raw_connect port and b = raw_connect port in
            let it = tick_item oid in
            raw_send a 1 (P.Post_many [ it 9; it 1 ]);
            raw_send b 1 (P.Post_many [ it 7 ]);
            raw_send a 2 (P.Post (it 2));
            raw_send b 2 (P.Post_many [ it 8; it 8; it 1 ]);
            raw_send a 3 (P.Post (it 6));
            raw_send b 3 (P.Post (it 3));
            let replies fd n =
              List.init n (fun _ ->
                  match raw_recv fd with
                  | P.Reply (_, P.R_ok j) -> j
                  | P.Reply (_, P.R_error (c, m)) ->
                    Alcotest.failf "post failed [%s]: %s" c m
                  | _ -> Alcotest.fail "poster got a stream message")
            in
            let ra = replies a 3 in
            let rb = replies b 3 in
            Unix.close a;
            Unix.close b;
            (* batch sizes by serial, from the replies *)
            let tally = Hashtbl.create 8 in
            List.iter
              (fun j ->
                let serial = jint "batch" j and q = jint "queued" j in
                Hashtbl.replace tally serial
                  (q + Option.value (Hashtbl.find_opt tally serial) ~default:0))
              (ra @ rb);
            let serials =
              List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tally [])
            in
            (* merged arrival order, from the server's object history *)
            let merged =
              List.filter_map
                (fun r ->
                  match r.History.h_occurrence.Symbol.basic with
                  | Symbol.Method (Symbol.After, "tick") as basic ->
                    Some (oid, basic, r.History.h_occurrence.Symbol.args)
                  | _ -> None)
                (D.object_history db_s oid)
            in
            Alcotest.(check int) "history saw every post" 9 (List.length merged);
            (* replay per batch on the oracle *)
            let rest = ref merged in
            List.iter
              (fun serial ->
                let n = Hashtbl.find tally serial in
                let rec take k acc l =
                  if k = 0 then (List.rev acc, l)
                  else
                    match l with
                    | [] -> Alcotest.fail "history shorter than batches"
                    | x :: tl -> take (k - 1) (x :: acc) tl
                in
                let batch, tl = take n [] !rest in
                rest := tl;
                expect_ok
                  (D.with_txn db_o (fun _ -> ignore (D.post_many db_o batch))))
              serials;
            Alcotest.(check int) "batches covered the history" 0 (List.length !rest);
            drain_firings sub))
  in
  let oracle = List.rev !oracle_firings in
  Alcotest.(check int)
    "firing counts agree" (List.length oracle) (List.length wire_firings);
  Alcotest.(check bool) "some firings happened" true (List.length oracle > 0);
  List.iter2
    (fun (w : P.firing) (o : D.firing) ->
      Alcotest.(check string) "trigger" o.D.f_trigger w.P.fg_trigger;
      Alcotest.(check string) "class" o.D.f_class w.P.fg_class;
      Alcotest.(check int) "oid" o.D.f_oid w.P.fg_oid;
      Alcotest.(check int64) "at" o.D.f_at w.P.fg_at;
      Alcotest.(check int) "txn" o.D.f_txn w.P.fg_txn)
    wire_firings oracle;
  Alcotest.(check bool)
    "state fingerprints equal" true
    (D.image_bytes db_s = D.image_bytes db_o)

(* ------------------------------------------------------------------ *)
(* Backpressure                                                        *)
(* ------------------------------------------------------------------ *)

(* One big batch floods the outbox within a single flush, where no
   writes can interleave: with bound 4, exactly 4 firings queue and 96
   drop; the lagged count rides ahead of the next firing that finds
   room. *)
let test_drop_policy () =
  let db = D.create_db () in
  with_server ~outbox:4 ~db (fun srv port ->
      let sub = Client.connect ~port () in
      let poster = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () ->
          Client.close sub;
          Client.close poster)
        (fun () ->
          let oid = setup_probe sub in
          ignore (ok (Client.request sub (P.Subscribe P.Drop)));
          let j =
            ok
              (Client.request poster
                 (P.Post_many (List.init 100 (fun _ -> tick_item oid 9))))
          in
          Alcotest.(check int) "100 firings in the batch" 100 (jint "firings" j);
          ignore (ok (Client.request poster (P.Post (tick_item oid 9))));
          let seen = drain_firings sub in
          Alcotest.(check int) "bound + reopened firing delivered" 5 (List.length seen);
          Alcotest.(check int) "lagged count reported" 96 (Client.lagged_total sub);
          Alcotest.(check int) "server counted the drops" 96 (Server.stats srv).Server.s_dropped))

(* Block policy is lossless even when the stream far exceeds both the
   outbox bound and the socket buffer: the server stalls inside the
   posting pipeline until this reader catches up. The poster must live
   on its own thread — its reply only arrives once the subscriber
   drains. *)
let test_block_policy () =
  let db = D.create_db () in
  with_server ~outbox:4 ~db (fun srv port ->
      let sub = Client.connect ~port () in
      let poster = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () ->
          Client.close sub;
          Client.close poster)
        (fun () ->
          let total = 2000 in
          let oid = setup_probe sub in
          ignore (ok (Client.request sub (P.Subscribe P.Block)));
          let fired = ref (-1) in
          let th =
            Thread.create
              (fun () ->
                let j =
                  ok
                    (Client.request poster
                       (P.Post_many (List.init total (fun _ -> tick_item oid 9))))
                in
                fired := jint "firings" j)
              ()
          in
          let seen = List.length (drain_firings sub) in
          Thread.join th;
          Alcotest.(check int) "every firing delivered" total seen;
          Alcotest.(check int) "batch reply confirms" total !fired;
          Alcotest.(check int) "nothing lagged" 0 (Client.lagged_total sub);
          Alcotest.(check int) "nothing dropped" 0 (Server.stats srv).Server.s_dropped))

(* ------------------------------------------------------------------ *)
(* Teardown hygiene                                                    *)
(* ------------------------------------------------------------------ *)

let await ?(timeout_s = 5.0) msg pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then Alcotest.fail msg
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

let test_disconnect_releases_everything () =
  let db = D.create_db () in
  with_server ~db (fun srv port ->
      let c0 = Client.connect ~port () in
      let oid = setup_probe c0 in
      (* warm the detection state: the first firing legitimately retains
         the trigger's collected §9 binding, which is state growth from
         posting, not from the connection *)
      ignore (ok (Client.request c0 (P.Post (tick_item oid 9))));
      Client.close c0;
      await "first client swept" (fun () -> (Server.stats srv).Server.s_connections = 0);
      let base_subs = D.subscriber_count db in
      let base_bytes = (D.stats db).D.state_bytes in
      for _ = 1 to 10 do
        let c = Client.connect ~port () in
        ignore (ok (Client.request c (P.Subscribe P.Block)));
        ignore (ok (Client.request c (P.Post (tick_item oid 9))));
        (match Client.wait_firing c with
        | Some _ -> ()
        | None -> Alcotest.fail "subscriber saw no firing");
        ignore (ok (Client.request c P.Tbegin));
        Client.close c;
        await "subscription released on disconnect" (fun () ->
            D.subscriber_count db = base_subs)
      done;
      Alcotest.(check int) "subscriber count flat" base_subs (D.subscriber_count db);
      Alcotest.(check int)
        "state bytes flat" base_bytes (D.stats db).D.state_bytes)

(* ------------------------------------------------------------------ *)
(* Corruption over the wire                                            *)
(* ------------------------------------------------------------------ *)

let test_wire_corruption () =
  let db = D.create_db () in
  with_server ~max_frame:1024 ~db (fun _srv port ->
      (* unparseable payload: an error reply, and the connection lives *)
      let fd = raw_connect port in
      Frame.write_frame fd "this is not json";
      (match raw_recv fd with
      | P.Reply (-1, P.R_error (code, _)) ->
        Alcotest.(check string) "parse error code" P.err_parse code
      | _ -> Alcotest.fail "expected a parse error reply");
      (* well-formed JSON, bad verb: bad_request, with the id echoed *)
      Frame.write_frame fd {|{"id":5,"verb":"frobnicate"}|};
      (match raw_recv fd with
      | P.Reply (5, P.R_error (code, _)) ->
        Alcotest.(check string) "bad_request code" P.err_bad_request code
      | _ -> Alcotest.fail "expected a bad_request reply for id 5");
      (* a numeral that overflows to infinity: parse error, and the
         connection lives (this used to raise at re-encode inside the
         error path and kill the server) *)
      Frame.write_frame fd {|{"id":6,"verb":"post","oid":0,"event":{"kind":"create"},"args":[[1e999]]}|};
      (match raw_recv fd with
      | P.Reply (_, P.R_error (code, _)) ->
        Alcotest.(check string) "overflow numeral is a parse error" P.err_parse code
      | _ -> Alcotest.fail "expected a parse error for 1e999");
      (* a nesting bomb inside the frame limit: parse error, not a
         Stack_overflow through the select loop *)
      Frame.write_frame fd (String.make 600 '[');
      (match raw_recv fd with
      | P.Reply (-1, P.R_error (code, _)) ->
        Alcotest.(check string) "nesting bomb is a parse error" P.err_parse code
      | _ -> Alcotest.fail "expected a parse error for the nesting bomb");
      raw_send fd 7 P.Status;
      (match raw_recv fd with
      | P.Reply (7, P.R_ok _) -> ()
      | _ -> Alcotest.fail "connection must survive payload-level garbage");
      Unix.close fd;
      (* an oversized declared length is unrecoverable: error, then the
         server hangs up *)
      let fd2 = raw_connect port in
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 5000l;
      ignore (Unix.write fd2 hdr 0 4);
      (match raw_recv fd2 with
      | P.Reply (-1, P.R_error (code, _)) ->
        Alcotest.(check string) "oversize reported as parse" P.err_parse code
      | _ -> Alcotest.fail "expected an oversize error reply");
      (match Frame.read_frame fd2 with
      | Error Frame.Eof -> ()
      | _ -> Alcotest.fail "server must close after an oversized frame");
      Unix.close fd2;
      (* a peer dying mid-frame must not hurt anyone else *)
      let fd3 = raw_connect port in
      let f = Frame.encode (P.encode_request ~id:1 P.Status) in
      ignore (Unix.write_substring fd3 f 0 (String.length f - 3));
      Unix.close fd3;
      let c = Client.connect ~port () in
      ignore (ok (Client.request c P.Status));
      Client.close c)

(* A trigger whose action passes the collected event parameter into an
   int-typed method: posting a string arg makes the action itself blow
   up mid-[post_many], after decode succeeded. *)
let schema_typed =
  {|
  class tprobe {
    int acc = 0;
  public:
    tprobe() { activate TT(); }
    update void tick(int q) { }
    update void bump(int x) { acc = acc + x; }
    read int acc_of() { return acc; }
  trigger:
    TT() : perpetual after tick(q) ==> bump(q);
  };
  |}

(* A failing trigger action on the transaction-free path runs inside
   flush_batch, not inside a per-request handler: the contributing
   client must get an error reply (not silence) and the server must
   keep serving — previously the exception escaped the select loop and
   killed the process. *)
let test_action_failure_survives () =
  let db = D.create_db () in
  with_server ~db (fun srv port ->
      let c = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore (ok (Client.request c (P.Schema schema_typed)));
          let oid = jint "oid" (ok (Client.request c (P.Create ("tprobe", [])))) in
          let tick v =
            {
              P.i_oid = oid;
              i_event = Symbol.Method (Symbol.After, "tick");
              i_args = [ v ];
            }
          in
          (match Client.request c (P.Post (tick (Value.String "boom"))) with
          | Error (code, _) ->
            Alcotest.(check string) "action failure reported" P.err_ode code
          | Ok j -> Alcotest.failf "bad-typed post accepted: %s" (Json.to_string j));
          (* the failed batch answered its waiter and the loop lives:
             a well-typed post still goes through and acts *)
          let j = ok (Client.request c (P.Post (tick (Value.Int 4)))) in
          Alcotest.(check int) "clean post fires" 1 (jint "firings" j);
          Alcotest.(check int)
            "action applied" 4
            (jint "result" (ok (Client.request c (P.Call (oid, "acc_of", [])))));
          Alcotest.(check int)
            "server still reachable" 1 (Server.stats srv).Server.s_connections))

(* The host argument accepts names, not just dotted quads. *)
let test_hostname_connect () =
  let db = D.create_db () in
  with_server ~db (fun _srv port ->
      let c = Client.connect ~host:"localhost" ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () -> ignore (ok (Client.request c P.Status))));
  match Client.resolve_host "no-such-host.invalid" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "bogus hostname must raise a descriptive Failure"

(* ------------------------------------------------------------------ *)
(* Transactions, clock and save over the wire                          *)
(* ------------------------------------------------------------------ *)

let test_wire_txn () =
  let db = D.create_db () in
  with_server ~db (fun _srv port ->
      let c = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let oid = setup_probe c in
          let marks () =
            jint "result" (ok (Client.request c (P.Call (oid, "marks_of", []))))
          in
          Alcotest.(check int) "clean start" 0 (marks ());
          (* a posted trigger action inside an explicit txn, then undo *)
          ignore (ok (Client.request c P.Tbegin));
          let j = ok (Client.request c (P.Post (tick_item oid 9))) in
          Alcotest.(check int) "in-txn post fired" 1 (jint "firings" j);
          Alcotest.(check int) "action visible inside txn" 1 (marks ());
          ignore (ok (Client.request c P.Tabort));
          Alcotest.(check int) "abort undid the action" 0 (marks ());
          (* same again, committed *)
          ignore (ok (Client.request c P.Tbegin));
          ignore (ok (Client.request c (P.Post (tick_item oid 9))));
          ignore (ok (Client.request c P.Tcommit));
          Alcotest.(check int) "commit kept the action" 1 (marks ());
          (* state errors *)
          (match Client.request c P.Tcommit with
          | Error (code, _) -> Alcotest.(check string) "commit w/o txn" P.err_state code
          | Ok _ -> Alcotest.fail "tcommit without a txn must fail");
          ignore (ok (Client.request c P.Tbegin));
          (match Client.request c P.Tbegin with
          | Error (code, _) -> Alcotest.(check string) "nested tbegin" P.err_state code
          | Ok _ -> Alcotest.fail "nested tbegin must fail");
          ignore (ok (Client.request c P.Tabort));
          (* clock and save *)
          let j = ok (Client.request c (P.Advance_clock 250L)) in
          Alcotest.(check int) "clock advanced" 250 (jint "now" j);
          let path = Filename.temp_file "odes-test" ".ode" in
          ignore (ok (Client.request c (P.Save path)));
          Alcotest.(check bool)
            "save wrote an image" true
            ((Unix.stat path).Unix.st_size > 0);
          Sys.remove path))

(* ------------------------------------------------------------------ *)
(* The Config facade                                                   *)
(* ------------------------------------------------------------------ *)

let with_env key v f =
  let old = Sys.getenv_opt key in
  Unix.putenv key v;
  Fun.protect
    ~finally:(fun () -> Unix.putenv key (Option.value old ~default:""))
    f

let test_config_of_env () =
  with_env "ODE_DURABILITY" "" (fun () ->
      Alcotest.(check bool)
        "empty means unset" true
        ((D.Config.of_env ()).D.Config.durability = `Image));
  with_env "ODE_DURABILITY" "wal:soon" (fun () ->
      Alcotest.check_raises "bad flush window rejected"
        (D.Ode_error "ODE_DURABILITY: bad flush window in \"wal:soon\"") (fun () ->
          ignore (D.Config.of_env ())));
  with_env "ODE_DURABILITY" "paper-tape" (fun () ->
      Alcotest.check_raises "unknown durability rejected"
        (D.Ode_error "ODE_DURABILITY: unknown backend \"paper-tape\"") (fun () ->
          ignore (D.Config.of_env ())))

(* An empty [post_many] is a true no-op: answered on the spot. Enrolled
   as a zero-item waiter it would sleep forever ([due] watches
   [b_n > 0]); routed through the flush it would spend a server
   transaction — and a WAL batch record — on posting nothing. *)
let test_empty_post_many () =
  let db = D.create_db () in
  with_server ~window:400 ~db (fun _srv port ->
      let c = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let oid = setup_probe c in
          let batches () =
            match Json.member "server" (ok (Client.request c P.Status)) with
            | Some server -> jint "batches" server
            | None -> Alcotest.fail "status carried no server object"
          in
          let before = batches () in
          let t0 = Unix.gettimeofday () in
          let r = ok (Client.request c (P.Post_many [])) in
          let dt = Unix.gettimeofday () -. t0 in
          Alcotest.(check int) "joined no batch" 0 (jint "batch" r);
          Alcotest.(check int) "queued nothing" 0 (jint "queued" r);
          Alcotest.(check int) "fired nothing" 0 (jint "firings" r);
          Alcotest.(check bool) "answered without waiting for the window" true
            (dt < 0.35);
          Alcotest.(check int) "consumed no batch serial" before (batches ());
          (* the coalescer still works after the no-op *)
          let r = ok (Client.request c (P.Post (tick_item oid 9))) in
          Alcotest.(check int) "later posts still flush" 1 (jint "queued" r)))

(* The window is an upper bound, not a wait: a post that arrives while
   nothing else is on its way is flushed on the next idle select round,
   long before a 400 ms window would close. *)
let test_idle_flush () =
  let db = D.create_db () in
  with_server ~window:400 ~db (fun _srv port ->
      let c = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let oid = setup_probe c in
          let t0 = Unix.gettimeofday () in
          let r = ok (Client.request c (P.Post_many [ tick_item oid 9; tick_item oid 1 ])) in
          let dt = Unix.gettimeofday () -. t0 in
          Alcotest.(check int) "joined batch 1" 1 (jint "batch" r);
          Alcotest.(check int) "queued both" 2 (jint "queued" r);
          Alcotest.(check int) "fired once" 1 (jint "firings" r);
          if dt >= 0.1 then Alcotest.failf "a lone post_many waited %.0f ms" (dt *. 1e3);
          (* the loop's stages are reported, and the flush was counted *)
          let stages =
            match Json.member "server" (ok (Client.request c P.Status)) with
            | Some server -> (
              match Json.member "stages" server with
              | Some st -> st
              | None -> Alcotest.fail "status carried no server.stages")
            | None -> Alcotest.fail "status carried no server object"
          in
          List.iter
            (fun name ->
              match Json.member name stages with
              | Some st -> ignore (jint "ns" st, jint "n" st)
              | None -> Alcotest.failf "no %s stage" name)
            [ "select"; "read"; "decode"; "handle"; "flush"; "encode"; "write" ];
          Alcotest.(check int) "one flush" 1
            (jint "n" (Option.get (Json.member "flush" stages)))))

(* Drive the same scenario through a db built four ways; the canonical
   fingerprint must not notice how the db was configured into the same
   logical state. *)
let test_config_equivalence () =
  let drive db =
    ignore (Odl.load_schema db schema_simple);
    let oid = expect_ok (D.with_txn db (fun _ -> D.create db "probe" [])) in
    expect_ok
      (D.with_txn db (fun _ ->
           ignore
             (D.post_many db
                (List.init 7 (fun i ->
                     (oid, Symbol.Method (Symbol.After, "tick"), [ Value.Int i ]))))));
    D.image_bytes db
  in
  let bare = drive (D.create_db ()) in
  let via_env_config = drive (D.create_db ~config:(D.Config.of_env ()) ()) in
  let via_default = drive (D.create_db ~config:D.Config.default ()) in
  Alcotest.(check bool)
    "create_db () = create_db ~config:(of_env ())" true (bare = via_env_config);
  Alcotest.(check bool)
    "explicit default config converges" true (bare = via_default)

let test_config_reaches_db () =
  let c = { D.Config.default with D.Config.start_time = 5L } in
  let db = D.create_db ~config:c () in
  Alcotest.(check int64) "config start_time" 5L (D.now db);
  let summary = D.config_summary (D.create_db ~config:D.Config.default ()) in
  let contains needle =
    let nl = String.length needle and hl = String.length summary in
    let rec go i = i + nl <= hl && (String.sub summary i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "summary mentions %s" needle)
        true (contains needle))
    [ "durability=image"; "obs=off"; "timing=off" ];
  Alcotest.(check bool) "summary names no partition count" false
    (contains "partitions=")

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "non-finite float encoding" `Quick test_nonfinite_floats;
    Alcotest.test_case "json rejects overflow and nesting bombs" `Quick
      test_json_limits;
    Alcotest.test_case "incremental frame decoding" `Quick test_decoder_incremental;
    Alcotest.test_case "bad lengths poison the decoder" `Quick test_decoder_poison;
    Alcotest.test_case "blocking reads report torn frames" `Quick test_read_frame_errors;
    Alcotest.test_case "wire run = in-process oracle" `Quick test_wire_equivalence;
    Alcotest.test_case "drop policy counts what it sheds" `Quick test_drop_policy;
    Alcotest.test_case "block policy is lossless" `Quick test_block_policy;
    Alcotest.test_case "disconnect releases subscription, txn, outbox" `Quick
      test_disconnect_releases_everything;
    Alcotest.test_case "corrupt frames: survive or hang up per contract" `Quick
      test_wire_corruption;
    Alcotest.test_case "failing trigger action: error reply, server lives" `Quick
      test_action_failure_survives;
    Alcotest.test_case "hostnames resolve" `Quick test_hostname_connect;
    Alcotest.test_case "transactions, clock and save over the wire" `Quick
      test_wire_txn;
    Alcotest.test_case "empty post_many is an immediate no-op" `Quick
      test_empty_post_many;
    Alcotest.test_case "an idle round flushes before the window" `Quick test_idle_flush;
    Alcotest.test_case "hostile payloads: one-pass = tree replies" `Quick
      test_hostile_payloads;
    Alcotest.test_case "Config.of_env parses and rejects" `Quick test_config_of_env;
    Alcotest.test_case "config paths converge bit-identically" `Quick
      test_config_equivalence;
    Alcotest.test_case "config reaches the database and its summary" `Quick
      test_config_reaches_db;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_request_roundtrip;
        qcheck_msg_roundtrip;
        qcheck_decode_post;
        qcheck_decode_corrupt;
        qcheck_encoders;
        qcheck_escape;
      ]
