module Value = Ode_base.Value
module Symbol = Ode_event.Symbol

type item = { i_oid : int; i_event : Symbol.basic; i_args : Value.t list }
type policy = Block | Drop

type request =
  | Status
  | Schema of string
  | Create of string * Value.t list
  | Post of item
  | Post_many of item list
  | Call of int * string * Value.t list
  | Tbegin
  | Tcommit
  | Tabort
  | Advance_clock of int64
  | Save of string
  | Subscribe of policy
  | Unsubscribe
  | Shutdown

type firing = {
  fg_trigger : string;
  fg_class : string;
  fg_oid : int;
  fg_at : int64;
  fg_txn : int;
}

type response = R_ok of Json.t | R_error of string * string
type msg = Reply of int * response | Firing of firing | Lagged of int

let err_parse = "parse"
let err_bad_request = "bad_request"
let err_aborted = "aborted"
let err_state = "state"
let err_ode = "ode"

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let encode_value : Value.t -> Json.t = function
  | Value.Unit -> Json.Null
  | Value.Bool b -> Json.Bool b
  | Value.Int n -> Json.Int n
  | Value.Float f when Float.is_finite f -> Json.Float f
  | Value.Float f ->
    let tag =
      if Float.is_nan f then "nan" else if f > 0.0 then "inf" else "-inf"
    in
    Json.Obj [ ("float", Json.String tag) ]
  | Value.String s -> Json.String s
  | Value.Oid n -> Json.Obj [ ("oid", Json.Int n) ]

let decode_value : Json.t -> (Value.t, string) result = function
  | Json.Null -> Ok Value.Unit
  | Json.Bool b -> Ok (Value.Bool b)
  | Json.Int n -> Ok (Value.Int n)
  | Json.Float f -> Ok (Value.Float f)
  | Json.String s -> Ok (Value.String s)
  | Json.Obj [ ("oid", Json.Int n) ] -> Ok (Value.Oid n)
  | Json.Obj [ ("float", Json.String "nan") ] -> Ok (Value.Float Float.nan)
  | Json.Obj [ ("float", Json.String "inf") ] ->
    Ok (Value.Float Float.infinity)
  | Json.Obj [ ("float", Json.String "-inf") ] ->
    Ok (Value.Float Float.neg_infinity)
  | j -> Error ("bad value: " ^ Json.to_string j)

let rec decode_values acc = function
  | [] -> Ok (List.rev acc)
  | j :: rest -> (
    match decode_value j with
    | Ok v -> decode_values (v :: acc) rest
    | Error _ as e -> e)

let add_values buf vs =
  Buffer.add_char buf '[';
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      Json.add buf (encode_value v))
    vs;
  Buffer.add_char buf ']'

let decode_values_field ?(field = "args") obj =
  match Json.member field obj with
  | None | Some Json.Null -> Ok []
  | Some (Json.List js) -> decode_values [] js
  | Some _ -> Error (Printf.sprintf "bad %S field" field)

(* ------------------------------------------------------------------ *)
(* Basic events                                                        *)
(* ------------------------------------------------------------------ *)

let qualifier_str = function Symbol.Before -> "before" | Symbol.After -> "after"

let decode_qualifier = function
  | "before" -> Ok Symbol.Before
  | "after" -> Ok Symbol.After
  | q -> Error ("bad qualifier " ^ q)

let encode_pattern (p : Symbol.time_pattern) =
  let field name v acc =
    match v with None -> acc | Some n -> (name, Json.Int n) :: acc
  in
  Json.Obj
    (field "year" p.Symbol.year
    @@ field "mon" p.Symbol.mon
    @@ field "day" p.Symbol.day
    @@ field "hr" p.Symbol.hr
    @@ field "min" p.Symbol.min
    @@ field "sec" p.Symbol.sec
    @@ field "ms" p.Symbol.ms [])

let decode_pattern j =
  let get name =
    match Json.member name j with
    | Some (Json.Int n) -> Some n
    | Some _ | None -> None
  in
  {
    Symbol.year = get "year";
    mon = get "mon";
    day = get "day";
    hr = get "hr";
    min = get "min";
    sec = get "sec";
    ms = get "ms";
  }

let encode_time_spec = function
  | Symbol.Every ms -> Json.Obj [ ("every", Json.Int (Int64.to_int ms)) ]
  | Symbol.After_period ms ->
    Json.Obj [ ("after", Json.Int (Int64.to_int ms)) ]
  | Symbol.At p -> Json.Obj [ ("at", encode_pattern p) ]

let decode_time_spec j =
  match (Json.member "every" j, Json.member "after" j, Json.member "at" j) with
  | Some (Json.Int ms), None, None -> Ok (Symbol.Every (Int64.of_int ms))
  | None, Some (Json.Int ms), None ->
    Ok (Symbol.After_period (Int64.of_int ms))
  | None, None, Some p -> Ok (Symbol.At (decode_pattern p))
  | _ -> Error ("bad time spec: " ^ Json.to_string j)

let add_kind buf kind =
  Buffer.add_string buf {|{"k":"|};
  Buffer.add_string buf kind;
  Buffer.add_char buf '"'

let add_qual buf qual =
  Buffer.add_string buf {|,"q":"|};
  Buffer.add_string buf (qualifier_str qual);
  Buffer.add_char buf '"'

let add_basic buf (b : Symbol.basic) =
  (match b with
  | Symbol.Create -> add_kind buf "create"
  | Symbol.Delete -> add_kind buf "delete"
  | Symbol.Update q -> add_kind buf "update"; add_qual buf q
  | Symbol.Read q -> add_kind buf "read"; add_qual buf q
  | Symbol.Access q -> add_kind buf "access"; add_qual buf q
  | Symbol.Method (q, name) ->
    add_kind buf "method";
    add_qual buf q;
    Buffer.add_string buf {|,"name":|};
    Json.escape_into buf name
  | Symbol.Tbegin -> add_kind buf "tbegin"
  | Symbol.Tcomplete -> add_kind buf "tcomplete"
  | Symbol.Tcommit -> add_kind buf "tcommit"
  | Symbol.Tabort q -> add_kind buf "tabort"; add_qual buf q
  | Symbol.Time spec ->
    add_kind buf "time";
    Buffer.add_string buf {|,"spec":|};
    Json.add buf (encode_time_spec spec));
  Buffer.add_char buf '}'

let decode_basic j : (Symbol.basic, string) result =
  let ( let* ) = Result.bind in
  let qual () =
    match Json.member "q" j with
    | Some (Json.String q) -> decode_qualifier q
    | _ -> Error "missing qualifier"
  in
  match Json.member "k" j with
  | Some (Json.String "create") -> Ok Symbol.Create
  | Some (Json.String "delete") -> Ok Symbol.Delete
  | Some (Json.String "update") ->
    let* q = qual () in
    Ok (Symbol.Update q)
  | Some (Json.String "read") ->
    let* q = qual () in
    Ok (Symbol.Read q)
  | Some (Json.String "access") ->
    let* q = qual () in
    Ok (Symbol.Access q)
  | Some (Json.String "method") -> (
    let* q = qual () in
    match Json.member "name" j with
    | Some (Json.String name) -> Ok (Symbol.Method (q, name))
    | _ -> Error "method event without a name")
  | Some (Json.String "tbegin") -> Ok Symbol.Tbegin
  | Some (Json.String "tcomplete") -> Ok Symbol.Tcomplete
  | Some (Json.String "tcommit") -> Ok Symbol.Tcommit
  | Some (Json.String "tabort") ->
    let* q = qual () in
    Ok (Symbol.Tabort q)
  | Some (Json.String "time") -> (
    match Json.member "spec" j with
    | Some spec ->
      let* s = decode_time_spec spec in
      Ok (Symbol.Time s)
    | None -> Error "time event without a spec")
  | _ -> Error ("bad basic event: " ^ Json.to_string j)

(* ------------------------------------------------------------------ *)
(* Items                                                               *)
(* ------------------------------------------------------------------ *)

let add_item buf it =
  Buffer.add_string buf {|{"oid":|};
  Json.add_int buf it.i_oid;
  Buffer.add_string buf {|,"event":|};
  add_basic buf it.i_event;
  Buffer.add_string buf {|,"args":|};
  add_values buf it.i_args;
  Buffer.add_char buf '}'

let decode_item j =
  let ( let* ) = Result.bind in
  match (Json.member "oid" j, Json.member "event" j) with
  | Some (Json.Int oid), Some ev ->
    let* event = decode_basic ev in
    let* args = decode_values_field j in
    Ok { i_oid = oid; i_event = event; i_args = args }
  | _ -> Error ("bad item: " ^ Json.to_string j)

let rec decode_items acc = function
  | [] -> Ok (List.rev acc)
  | j :: rest -> (
    match decode_item j with
    | Ok it -> decode_items (it :: acc) rest
    | Error _ as e -> e)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let verb_of_request = function
  | Status -> "status"
  | Schema _ -> "schema"
  | Create _ -> "create"
  | Post _ -> "post"
  | Post_many _ -> "post_many"
  | Call _ -> "call"
  | Tbegin -> "tbegin"
  | Tcommit -> "tcommit"
  | Tabort -> "tabort"
  | Advance_clock _ -> "advance_clock"
  | Save _ -> "save"
  | Subscribe _ -> "subscribe"
  | Unsubscribe -> "unsubscribe"
  | Shutdown -> "shutdown"

let policy_str = function Block -> "block" | Drop -> "drop"

let add_field buf key =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf key;
  Buffer.add_string buf "\":"

let add_request buf ~id req =
  Buffer.add_string buf {|{"id":|};
  Json.add_int buf id;
  Buffer.add_string buf {|,"verb":"|};
  Buffer.add_string buf (verb_of_request req);
  Buffer.add_char buf '"';
  (match req with
  | Status | Tbegin | Tcommit | Tabort | Unsubscribe | Shutdown -> ()
  | Schema src ->
    add_field buf "src";
    Json.escape_into buf src
  | Create (cls, args) ->
    add_field buf "class";
    Json.escape_into buf cls;
    add_field buf "args";
    add_values buf args
  | Post it ->
    add_field buf "item";
    add_item buf it
  | Post_many items ->
    add_field buf "items";
    Buffer.add_char buf '[';
    List.iteri
      (fun i it ->
        if i > 0 then Buffer.add_char buf ',';
        add_item buf it)
      items;
    Buffer.add_char buf ']'
  | Call (oid, name, args) ->
    add_field buf "oid";
    Json.add_int buf oid;
    add_field buf "method";
    Json.escape_into buf name;
    add_field buf "args";
    add_values buf args
  | Advance_clock ms ->
    add_field buf "ms";
    Json.add_int buf (Int64.to_int ms)
  | Save path ->
    add_field buf "path";
    Json.escape_into buf path
  | Subscribe p ->
    add_field buf "policy";
    Buffer.add_char buf '"';
    Buffer.add_string buf (policy_str p);
    Buffer.add_char buf '"');
  Buffer.add_char buf '}'

let encode_request ~id req =
  let size = match req with Post_many its -> 64 + (80 * List.length its) | _ -> 128 in
  let buf = Buffer.create size in
  add_request buf ~id req;
  Buffer.contents buf

let decode_request j =
  let ( let* ) = Result.bind in
  let* id =
    match Json.member "id" j with
    | Some (Json.Int id) -> Ok id
    | _ -> Error "request without an integer id"
  in
  let* verb =
    match Json.member "verb" j with
    | Some (Json.String v) -> Ok v
    | _ -> Error "request without a verb"
  in
  let* req =
    match verb with
    | "status" -> Ok Status
    | "tbegin" -> Ok Tbegin
    | "tcommit" -> Ok Tcommit
    | "tabort" -> Ok Tabort
    | "unsubscribe" -> Ok Unsubscribe
    | "shutdown" -> Ok Shutdown
    | "schema" -> (
      match Json.member "src" j with
      | Some (Json.String src) -> Ok (Schema src)
      | _ -> Error "schema without src")
    | "create" -> (
      match Json.member "class" j with
      | Some (Json.String cls) ->
        let* args = decode_values_field j in
        Ok (Create (cls, args))
      | _ -> Error "create without class")
    | "post" -> (
      match Json.member "item" j with
      | Some it ->
        let* it = decode_item it in
        Ok (Post it)
      | None -> Error "post without item")
    | "post_many" -> (
      match Json.member "items" j with
      | Some (Json.List js) ->
        let* items = decode_items [] js in
        Ok (Post_many items)
      | _ -> Error "post_many without items")
    | "call" -> (
      match (Json.member "oid" j, Json.member "method" j) with
      | Some (Json.Int oid), Some (Json.String name) ->
        let* args = decode_values_field j in
        Ok (Call (oid, name, args))
      | _ -> Error "call without oid/method")
    | "advance_clock" -> (
      match Json.member "ms" j with
      | Some (Json.Int ms) -> Ok (Advance_clock (Int64.of_int ms))
      | _ -> Error "advance_clock without ms")
    | "save" -> (
      match Json.member "path" j with
      | Some (Json.String path) -> Ok (Save path)
      | _ -> Error "save without path")
    | "subscribe" -> (
      match Json.member "policy" j with
      | Some (Json.String "block") -> Ok (Subscribe Block)
      | Some (Json.String "drop") -> Ok (Subscribe Drop)
      | None -> Ok (Subscribe Block)
      | Some _ -> Error "subscribe with a bad policy")
    | v -> Error ("unknown verb " ^ v)
  in
  Ok (id, req)

(* ------------------------------------------------------------------ *)
(* Replies and notifications                                           *)
(* ------------------------------------------------------------------ *)

let add_reply buf ~id resp =
  Buffer.add_string buf {|{"id":|};
  Json.add_int buf id;
  (match resp with
  | R_ok payload ->
    Buffer.add_string buf {|,"ok":|};
    Json.add buf payload
  | R_error (code, msg) ->
    Buffer.add_string buf {|,"error":{"code":|};
    Json.escape_into buf code;
    Buffer.add_string buf {|,"msg":|};
    Json.escape_into buf msg;
    Buffer.add_char buf '}');
  Buffer.add_char buf '}'

let add_batch_reply buf ~id ~batch ~queued ~firings =
  Buffer.add_string buf {|{"id":|};
  Json.add_int buf id;
  Buffer.add_string buf {|,"ok":{"batch":|};
  Json.add_int buf batch;
  Buffer.add_string buf {|,"queued":|};
  Json.add_int buf queued;
  Buffer.add_string buf {|,"firings":|};
  Json.add_int buf firings;
  Buffer.add_string buf "}}"

let add_firing buf f =
  Buffer.add_string buf {|{"firing":{"trigger":|};
  Json.escape_into buf f.fg_trigger;
  Buffer.add_string buf {|,"class":|};
  Json.escape_into buf f.fg_class;
  Buffer.add_string buf {|,"oid":|};
  Json.add_int buf f.fg_oid;
  Buffer.add_string buf {|,"at":|};
  Json.add_int buf (Int64.to_int f.fg_at);
  Buffer.add_string buf {|,"txn":|};
  Json.add_int buf f.fg_txn;
  Buffer.add_string buf "}}"

let add_lagged buf n =
  Buffer.add_string buf {|{"lagged":|};
  Json.add_int buf n;
  Buffer.add_char buf '}'

let to_string_with size add =
  let buf = Buffer.create size in
  add buf;
  Buffer.contents buf

let encode_reply ~id resp = to_string_with 64 (fun buf -> add_reply buf ~id resp)
let encode_firing f = to_string_with 128 (fun buf -> add_firing buf f)
let encode_lagged n = to_string_with 16 (fun buf -> add_lagged buf n)

let decode_firing j =
  match
    ( Json.member "trigger" j,
      Json.member "class" j,
      Json.member "oid" j,
      Json.member "at" j,
      Json.member "txn" j )
  with
  | ( Some (Json.String fg_trigger),
      Some (Json.String fg_class),
      Some (Json.Int fg_oid),
      Some (Json.Int at),
      Some (Json.Int fg_txn) ) ->
    Ok { fg_trigger; fg_class; fg_oid; fg_at = Int64.of_int at; fg_txn }
  | _ -> Error ("bad firing: " ^ Json.to_string j)

let decode_msg j =
  let ( let* ) = Result.bind in
  match Json.member "firing" j with
  | Some f ->
    let* f = decode_firing f in
    Ok (Firing f)
  | None -> (
    match Json.member "lagged" j with
    | Some (Json.Int n) -> Ok (Lagged n)
    | Some _ -> Error "bad lagged notification"
    | None -> (
      match Json.member "id" j with
      | Some (Json.Int id) -> (
        match (Json.member "ok" j, Json.member "error" j) with
        | Some payload, None -> Ok (Reply (id, R_ok payload))
        | None, Some err -> (
          match (Json.member "code" err, Json.member "msg" err) with
          | Some (Json.String code), Some (Json.String msg) ->
            Ok (Reply (id, R_error (code, msg)))
          | _ -> Error "bad error reply")
        | _ -> Error "reply with neither ok nor error")
      | _ -> Error ("unrecognised message: " ^ Json.to_string j)))

(* ------------------------------------------------------------------ *)
(* One-pass decoding of post and post_many                              *)
(* ------------------------------------------------------------------ *)

(* The hot verbs go straight from the frame bytes to a [request]: no
   [Json.t] tree and no copy of the payload. The decoder takes only
   documents the tree path would decode to the same request; on
   anything else — another verb, a duplicate key, a value of the wrong
   shape, a JSON error — it gives up with [Slow] and the caller runs the
   tree path, which then produces the very reply it always did. Depths
   passed to [Json.read_value] are the nesting depths the tree parser
   would see, so its depth bound holds on both paths. *)

exception Slow

let slow () = raise_notrace Slow

let top_keys = [| "id"; "verb"; "item"; "items" |]
let hot_verbs = [| "post"; "post_many" |]
let item_keys = [| "oid"; "event"; "args" |]
let event_keys = [| "k"; "q"; "name"; "spec" |]
let quals = [| "before"; "after" |]

(* the likeliest first: a name is matched by trying them in order *)
let kinds =
  [| "method"; "update"; "read"; "access"; "create"; "delete"; "tbegin";
     "tcomplete"; "tcommit"; "tabort"; "time" |]

let closed = -2

let key c keys =
  let k = Json.read_enum c keys in
  Json.skip_ws c;
  Json.expect c ':';
  Json.skip_ws c;
  k

(* The next member of an object whose '{' is consumed: the key's index
   in [keys] ([-1] for another key) with the cursor at its value, or
   [closed] once the object ends. [first] is true for the first call. *)
let member_key c keys ~first =
  Json.skip_ws c;
  match Json.peek c with
  | '}' ->
    Json.advance c;
    closed
  | ',' when not first ->
    Json.advance c;
    Json.skip_ws c;
    key c keys
  | _ when first -> key c keys
  | _ -> slow ()

let open_obj c =
  Json.skip_ws c;
  Json.expect c '{'

(* a key's bit in an object's seen-set: a second sighting is a duplicate,
   where the tree path would keep the first *)
let see seen k =
  if k < 0 then seen
  else if seen land (1 lsl k) <> 0 then slow ()
  else seen lor (1 lsl k)

let read_int c =
  Json.skip_ws c;
  match Json.peek c with
  | '-' | '0' .. '9' -> (
    match Json.read_number c with Json.Int n -> n | _ -> slow ())
  | _ -> slow ()

(* The elements of a list at nesting depth [depth], [elt a depth c]
   reading each one. Top-level functions all the way down: a local
   closure would be allocated per list. *)
let rec list_rest c elt a depth acc =
  let x = elt a depth c in
  Json.skip_ws c;
  match Json.peek c with
  | ',' ->
    Json.advance c;
    list_rest c elt a depth (x :: acc)
  | ']' ->
    Json.advance c;
    List.rev (x :: acc)
  | _ -> slow ()

let read_list c elt a ~depth =
  Json.skip_ws c;
  Json.expect c '[';
  Json.skip_ws c;
  if Json.peek c = ']' then begin
    Json.advance c;
    []
  end
  else list_rest c elt a (depth + 1) []

(* an argument is a leaf (or a one-member object), so its tree costs
   what the value itself does *)
let read_arg () depth c =
  match decode_value (Json.read_value ~depth c) with Ok v -> v | Error _ -> slow ()

let read_args ~depth c =
  Json.skip_ws c;
  if Json.peek c = 'n' then
    match Json.read_value ~depth c with Json.Null -> [] | _ -> slow ()
  else read_list c read_arg () ~depth

(* One request's items usually post the same event: when an item's
   event object repeats, byte for byte and at the same depth, the one
   before it, it is the same event — an object ends where its bytes
   say — so it is skipped over and the last one decoded is reused. *)
type memo = {
  mutable m_src : string;  (* the last event object's bytes *)
  mutable m_depth : int;
  mutable m_event : Symbol.basic;
}

let qualifier = function 0 -> Symbol.Before | 1 -> Symbol.After | _ -> slow ()

let read_event_object ~depth c =
  open_obj c;
  let kind = ref (-1) and qual = ref (-1) and name = ref "" and spec = ref None in
  let seen = ref 0 in
  let k = ref (member_key c event_keys ~first:true) in
  while !k <> closed do
    seen := see !seen !k;
    (match !k with
    | 0 -> kind := Json.read_enum c kinds
    | 1 -> qual := Json.read_enum c quals
    | 2 -> name := Json.read_string c
    | 3 -> spec := Some (Json.read_value ~depth:(depth + 1) c)
    | _ -> ignore (Json.read_value ~depth:(depth + 1) c));
    k := member_key c event_keys ~first:false
  done;
  match !kind with
  | 0 ->
    if !seen land 4 = 0 then slow ();
    Symbol.Method (qualifier !qual, !name)
  | 1 -> Symbol.Update (qualifier !qual)
  | 2 -> Symbol.Read (qualifier !qual)
  | 3 -> Symbol.Access (qualifier !qual)
  | 4 -> Symbol.Create
  | 5 -> Symbol.Delete
  | 6 -> Symbol.Tbegin
  | 7 -> Symbol.Tcomplete
  | 8 -> Symbol.Tcommit
  | 9 -> Symbol.Tabort (qualifier !qual)
  | 10 -> (
    match !spec with
    | Some j -> (
      match decode_time_spec j with Ok s -> Symbol.Time s | Error _ -> slow ())
    | None -> slow ())
  | _ -> slow ()

let read_event memo ~depth c =
  Json.skip_ws c;
  if depth = memo.m_depth && Json.skip_if c memo.m_src then memo.m_event
  else begin
    let start = Json.position c in
    let ev = read_event_object ~depth c in
    memo.m_src <- Json.since c start;
    memo.m_depth <- depth;
    memo.m_event <- ev;
    ev
  end

let read_item memo depth c =
  open_obj c;
  let oid = ref 0 and event = ref Symbol.Create and args = ref [] in
  let seen = ref 0 in
  let k = ref (member_key c item_keys ~first:true) in
  while !k <> closed do
    seen := see !seen !k;
    (match !k with
    | 0 -> oid := read_int c
    | 1 -> event := read_event memo ~depth:(depth + 1) c
    | 2 -> args := read_args ~depth:(depth + 1) c
    | _ -> ignore (Json.read_value ~depth:(depth + 1) c));
    k := member_key c item_keys ~first:false
  done;
  if !seen land 3 <> 3 then slow ();
  { i_oid = !oid; i_event = !event; i_args = !args }

let decode_post b off len =
  let c = Json.cursor b ~off ~len in
  let memo = { m_src = ""; m_depth = -1; m_event = Symbol.Create } in
  match
    open_obj c;
    let id = ref 0 and verb = ref (-1) and item = ref None and items = ref None in
    let seen = ref 0 in
    let k = ref (member_key c top_keys ~first:true) in
    while !k <> closed do
      seen := see !seen !k;
      (match !k with
      | 0 -> id := read_int c
      | 1 ->
        verb := Json.read_enum c hot_verbs;
        if !verb < 0 then slow ()
      | 2 -> item := Some (read_item memo 1 c)
      | 3 -> items := Some (read_list c read_item memo ~depth:1)
      | _ -> ignore (Json.read_value ~depth:1 c));
      k := member_key c top_keys ~first:false
    done;
    Json.skip_ws c;
    if (not (Json.at_end c)) || !seen land 1 = 0 then slow ();
    match (!verb, !item, !items) with
    | 0, Some it, _ -> (!id, Post it)
    | 1, _, Some its -> (!id, Post_many its)
    | _ -> slow ()
  with
  | r -> Some r
  | exception (Slow | Json.Bad _) -> None

let decode_payload b off len =
  match decode_post b off len with
  | Some r -> Ok r
  | None -> (
    match Json.of_string (Bytes.sub_string b off len) with
    | Error msg -> Error (-1, err_parse, msg)
    | Ok j -> (
      match decode_request j with
      | Ok r -> Ok r
      | Error msg ->
        (* salvage the id when the envelope carried one, so the client
           can correlate the rejection *)
        let id = match Json.member "id" j with Some (Json.Int id) -> id | _ -> -1 in
        Error (id, err_bad_request, msg)))
