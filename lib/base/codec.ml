type writer = Buffer.t
type reader = { src : string; mutable pos : int }

exception Corrupt of string

let corrupt msg = raise (Corrupt msg)

let writer () = Buffer.create 256
let contents = Buffer.contents
let reader src = { src; pos = 0 }
let at_end r = r.pos >= String.length r.src

let read_byte r =
  if r.pos >= String.length r.src then corrupt "unexpected end of input";
  let b = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  b

(* Zig-zag varint: maps small negative ints to small unsigned codes. *)
let write_int w n =
  let u = (n lsl 1) lxor (n asr (Sys.int_size - 1)) in
  let rec loop u =
    if u land lnot 0x7f = 0 then Buffer.add_char w (Char.chr u)
    else begin
      Buffer.add_char w (Char.chr (0x80 lor (u land 0x7f)));
      loop (u lsr 7)
    end
  in
  loop u

let read_int r =
  let rec loop shift acc =
    if shift > Sys.int_size then corrupt "varint too long";
    let b = read_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else loop (shift + 7) acc
  in
  let u = loop 0 0 in
  (u lsr 1) lxor (-(u land 1))

let write_bool w b = Buffer.add_char w (if b then '\001' else '\000')

let read_bool r =
  match read_byte r with
  | 0 -> false
  | 1 -> true
  | b -> corrupt (Printf.sprintf "bad bool byte %d" b)

let write_float w f = Buffer.add_int64_le w (Int64.bits_of_float f)

let read_float r =
  if r.pos + 8 > String.length r.src then corrupt "truncated float";
  let bits = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  Int64.float_of_bits bits

let write_string w s =
  write_int w (String.length s);
  Buffer.add_string w s

let read_string r =
  let n = read_int r in
  if n < 0 || r.pos + n > String.length r.src then corrupt "bad string length";
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let write_list w f xs =
  write_int w (List.length xs);
  List.iter (f w) xs

let read_list r f =
  let n = read_int r in
  if n < 0 then corrupt "negative list length";
  List.init n (fun _ -> f r)

let write_array w f xs =
  write_int w (Array.length xs);
  Array.iter (f w) xs

let read_array r f =
  let n = read_int r in
  if n < 0 then corrupt "negative array length";
  Array.init n (fun _ -> f r)

let write_option w f = function
  | None -> write_bool w false
  | Some x ->
    write_bool w true;
    f w x

let read_option r f = if read_bool r then Some (f r) else None

let write_value w (v : Value.t) =
  match v with
  | Unit -> write_int w 0
  | Bool b ->
    write_int w 1;
    write_bool w b
  | Int i ->
    write_int w 2;
    write_int w i
  | Float f ->
    write_int w 3;
    write_float w f
  | String s ->
    write_int w 4;
    write_string w s
  | Oid o ->
    write_int w 5;
    write_int w o

let read_value r : Value.t =
  match read_int r with
  | 0 -> Unit
  | 1 -> Bool (read_bool r)
  | 2 -> Int (read_int r)
  | 3 -> Float (read_float r)
  | 4 -> String (read_string r)
  | 5 -> Oid (read_int r)
  | t -> corrupt (Printf.sprintf "bad value tag %d" t)

let write_pair w fa fb (a, b) =
  fa w a;
  fb w b

let read_pair r fa fb =
  let a = fa r in
  let b = fb r in
  (a, b)

let output oc w =
  Buffer.output_buffer oc w;
  Buffer.clear w

let with_out_file path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  let r =
    try f oc
    with e ->
      close_out_noerr oc;
      raise e
  in
  close_out oc;
  Sys.rename tmp path;
  r

let to_file path data = with_out_file path (fun oc -> output_string oc data)

let of_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  data
