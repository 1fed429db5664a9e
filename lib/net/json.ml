type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let escape_into buf s =
  Buffer.add_char buf '"';
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
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
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

let float_repr f =
  if not (Float.is_finite f) then
    invalid_arg "Json.to_string: non-finite float";
  (* shortest representation that round-trips, forced back to float
     syntax when it collapses to an integer literal *)
  let s =
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* [string_of_int n], without the C call and the string *)
let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> add_int buf n
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_into buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        add buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_into buf k;
        Buffer.add_char buf ':';
        add buf v)
      fields;
    Buffer.add_char buf '}'


let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent over a cursor                            *)
(* ------------------------------------------------------------------ *)

(* The tree parser below and the protocol's one-pass request decoder
   share these readers, so a string, a number or a literal means the
   same on both paths. *)

exception Bad of int * string

type cursor = { src : bytes; mutable pos : int; lim : int }

let cursor src ~off ~len = { src; pos = off; lim = off + len }
let fail c msg = raise (Bad (c.pos, msg))
let at_end c = c.pos >= c.lim
let peek c = if c.pos < c.lim then Bytes.unsafe_get c.src c.pos else '\000'
let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | ' ' | '\t' | '\n' | '\r' ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  if c.pos < c.lim && Bytes.unsafe_get c.src c.pos = ch then advance c
  else fail c (Printf.sprintf "expected %C" ch)

(* [src.[start ..]] begins with [s] from index [i] on (the caller
   checked the length) *)
let rec same_from src start s i =
  i = String.length s
  || (Bytes.unsafe_get src (start + i) = String.unsafe_get s i && same_from src start s (i + 1))

let literal c word v =
  let l = String.length word in
  if c.pos + l <= c.lim && same_from c.src c.pos word 0 then begin
    c.pos <- c.pos + l;
    v
  end
  else fail c (Printf.sprintf "expected %s" word)

(* \uXXXX escapes decode to UTF-8, surrogate pairs included *)
let utf8_add buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end

let hex4 c =
  if c.pos + 4 > c.lim then fail c "truncated \\u escape";
  let s = Bytes.sub_string c.src c.pos 4 in
  c.pos <- c.pos + 4;
  match int_of_string_opt ("0x" ^ s) with
  | Some v -> v
  | None -> fail c "bad \\u escape"

(* the decoding loop, entered at the first backslash with the plain
   prefix already in [buf] *)
let rec unescape c buf =
  if c.pos >= c.lim then fail c "unterminated string";
  let ch = Bytes.unsafe_get c.src c.pos in
  advance c;
  match ch with
  | '"' -> Buffer.contents buf
  | '\\' -> (
    if c.pos >= c.lim then fail c "unterminated escape";
    let e = Bytes.unsafe_get c.src c.pos in
    advance c;
    match e with
    | '"' -> Buffer.add_char buf '"'; unescape c buf
    | '\\' -> Buffer.add_char buf '\\'; unescape c buf
    | '/' -> Buffer.add_char buf '/'; unescape c buf
    | 'n' -> Buffer.add_char buf '\n'; unescape c buf
    | 'r' -> Buffer.add_char buf '\r'; unescape c buf
    | 't' -> Buffer.add_char buf '\t'; unescape c buf
    | 'b' -> Buffer.add_char buf '\b'; unescape c buf
    | 'f' -> Buffer.add_char buf '\012'; unescape c buf
    | 'u' ->
      let hi = hex4 c in
      let code =
        if hi >= 0xd800 && hi <= 0xdbff then begin
          (* surrogate pair *)
          if c.pos + 2 > c.lim
             || Bytes.get c.src c.pos <> '\\'
             || Bytes.get c.src (c.pos + 1) <> 'u'
          then fail c "lone high surrogate";
          c.pos <- c.pos + 2;
          let lo = hex4 c in
          if lo < 0xdc00 || lo > 0xdfff then fail c "bad low surrogate";
          0x10000 + ((hi - 0xd800) lsl 10) + (lo - 0xdc00)
        end
        else hi
      in
      utf8_add buf code;
      unescape c buf
    | _ -> fail c "bad escape")
  | ch -> Buffer.add_char buf ch; unescape c buf

(* The end of the plain run that starts at [i]: the first quote or
   backslash, or [lim]. *)
let rec plain_end c i =
  if i >= c.lim then i
  else
    match Bytes.unsafe_get c.src i with
    | '"' | '\\' -> i
    | _ -> plain_end c (i + 1)

let read_string c =
  expect c '"';
  let start = c.pos in
  let stop = plain_end c start in
  if stop < c.lim && Bytes.unsafe_get c.src stop = '"' then begin
    c.pos <- stop + 1;
    Bytes.sub_string c.src start (stop - start)
  end
  else if stop >= c.lim then begin
    c.pos <- c.lim;
    fail c "unterminated string"
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_subbytes buf c.src start (stop - start);
    c.pos <- stop;
    unescape c buf
  end

(* The first name written at the position, as its plain characters and
   the closing quote. The names hold no quote or backslash. *)
let rec match_name c names i =
  if i = Array.length names then -1
  else
    let s = Array.unsafe_get names i in
    let l = String.length s in
    if c.pos + l < c.lim
       && Bytes.unsafe_get c.src (c.pos + l) = '"'
       && same_from c.src c.pos s 0
    then begin
      c.pos <- c.pos + l + 1;
      i
    end
    else match_name c names (i + 1)

let read_enum c names =
  expect c '"';
  match match_name c names 0 with
  | -1 ->
    (* another string, or one with escapes: read it whole *)
    c.pos <- c.pos - 1;
    let s = read_string c in
    let rec find i =
      if i = Array.length names then -1 else if names.(i) = s then i else find (i + 1)
    in
    find 0
  | i -> i

let position c = c.pos
let since c start = Bytes.sub_string c.src start (c.pos - start)

let skip_if c s =
  let l = String.length s in
  if l > 0 && c.pos + l <= c.lim && same_from c.src c.pos s 0 then begin
    c.pos <- c.pos + l;
    true
  end
  else false

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let read_number c =
  let start = c.pos in
  let neg = peek c = '-' in
  if neg then advance c;
  let first = c.pos in
  let n = ref 0 in
  while
    c.pos < c.lim
    && match Bytes.unsafe_get c.src c.pos with '0' .. '9' -> true | _ -> false
  do
    n := (!n * 10) + Char.code (Bytes.unsafe_get c.src c.pos) - 48;
    advance c
  done;
  let digits = c.pos - first in
  if digits >= 1 && digits <= 18 && not (is_num_char (peek c)) then
    (* [-]digits, at most 18 of them: no overflow, and the value
       [int_of_string] reads *)
    Int (if neg then - !n else !n)
  else begin
    while c.pos < c.lim && is_num_char (Bytes.unsafe_get c.src c.pos) do
      advance c
    done;
    let s = Bytes.sub_string c.src start (c.pos - start) in
    (* a numeral that overflows to inf/nan is rejected rather than kept:
       the printer refuses non-finite floats, so admitting one here would
       break the parse/print round trip and turn a client-supplied
       [1e999] into a crash at the first re-encode *)
    let finite_float () =
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Float f
      | Some _ -> fail c (Printf.sprintf "number %s out of range" s)
      | None -> fail c (Printf.sprintf "bad number %S" s)
    in
    let floaty = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s in
    if floaty then finite_float ()
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None ->
        (* out of int range: degrade to float like every JSON reader *)
        finite_float ()
  end

(* recursion is bounded: a frame of nothing but '[' otherwise walks the
   stack to Stack_overflow, which no handler between here and the
   server's select loop catches *)
let max_depth = 512

let rec read_value ~depth c =
  skip_ws c;
  if depth > max_depth then fail c "nesting too deep";
  if at_end c then fail c "unexpected end of input";
  match peek c with
  | '"' -> String (read_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '[' ->
    advance c;
    skip_ws c;
    if peek c = ']' then begin
      advance c;
      List []
    end
    else begin
      let rec items acc =
        let v = read_value ~depth:(depth + 1) c in
        skip_ws c;
        match peek c with
        | ',' ->
          advance c;
          items (v :: acc)
        | ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail c "expected ',' or ']'"
      in
      List (items [])
    end
  | '{' ->
    advance c;
    skip_ws c;
    if peek c = '}' then begin
      advance c;
      Obj []
    end
    else begin
      let field () =
        skip_ws c;
        let k = read_string c in
        skip_ws c;
        expect c ':';
        let v = read_value ~depth:(depth + 1) c in
        (k, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws c;
        match peek c with
        | ',' ->
          advance c;
          fields (kv :: acc)
        | '}' ->
          advance c;
          List.rev (kv :: acc)
        | _ -> fail c "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | '-' | '0' .. '9' -> read_number c
  | ch -> fail c (Printf.sprintf "unexpected %C" ch)

let of_string src =
  let c = cursor (Bytes.unsafe_of_string src) ~off:0 ~len:(String.length src) in
  match
    let v = read_value ~depth:0 c in
    skip_ws c;
    if not (at_end c) then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
    Error (Printf.sprintf "JSON error at offset %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_int_opt = function Int n -> Some n | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
