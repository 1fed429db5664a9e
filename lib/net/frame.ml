let max_frame_default = 16 * 1024 * 1024

let put_header b len =
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (len land 0xff))

let len_of_header b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

(* header and payload in one allocation *)
let encode payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  put_header b n;
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

let of_buffer buf =
  let n = Buffer.length buf in
  let b = Bytes.create (4 + n) in
  put_header b n;
  Buffer.blit buf 0 b 4 n;
  Bytes.unsafe_to_string b

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write fd b !sent (n - !sent)
  done

let write_frame fd payload = write_all fd (encode payload)

type read_error = Eof | Truncated of int | Oversized of int

(* read exactly [n] bytes; [`Short k] when EOF arrived with k still owed *)
let read_exactly fd n =
  let b = Bytes.create n in
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < n do
    let r = Unix.read fd b !got (n - !got) in
    if r = 0 then eof := true else got := !got + r
  done;
  if !got = n then Ok (Bytes.unsafe_to_string b) else Error (n - !got)

let read_frame ?(max = max_frame_default) fd =
  match read_exactly fd 4 with
  | Error 4 -> Error Eof
  | Error owed -> Error (Truncated owed)
  | Ok hdr ->
    let len = len_of_header (Bytes.unsafe_of_string hdr) 0 in
    if len <= 0 || len > max then Error (Oversized len)
    else (
      match read_exactly fd len with
      | Ok payload -> Ok payload
      | Error owed -> Error (Truncated owed))

(* ------------------------------------------------------------------ *)
(* Incremental decoder                                                 *)
(* ------------------------------------------------------------------ *)

(* The unread stream is [buf.[off] .. buf.[len - 1]]. [feed] moves it to
   the front only when the new bytes do not fit behind it, and grows the
   buffer only when they do not fit at all, so a long-lived connection
   holds at most one partial frame plus one read. Payloads are handed
   out in place: nothing moves until the next [feed]. *)
type decoder = {
  max : int;
  mutable buf : bytes;
  mutable len : int;  (* bytes of [buf] filled *)
  mutable off : int;  (* bytes of [buf] already returned *)
  mutable bad : int option;  (* the oversized length, once seen *)
}

let decoder ?(max = max_frame_default) () =
  { max; buf = Bytes.create 4096; len = 0; off = 0; bad = None }

let feed d b n =
  if d.len + n > Bytes.length d.buf then begin
    let live = d.len - d.off in
    let dst =
      if live + n <= Bytes.length d.buf then d.buf
      else Bytes.create (Stdlib.max (live + n) (2 * Bytes.length d.buf))
    in
    Bytes.blit d.buf d.off dst 0 live;
    d.buf <- dst;
    d.len <- live;
    d.off <- 0
  end;
  Bytes.blit b 0 d.buf d.len n;
  d.len <- d.len + n

let next_slice d =
  match d.bad with
  | Some len -> Error (`Oversized len)
  | None ->
    let avail = d.len - d.off in
    if avail < 4 then Ok None
    else begin
      let len = len_of_header d.buf d.off in
      if len <= 0 || len > d.max then begin
        d.bad <- Some len;
        Error (`Oversized len)
      end
      else if avail < 4 + len then Ok None
      else begin
        let at = d.off + 4 in
        d.off <- at + len;
        if d.off = d.len then begin
          d.off <- 0;
          d.len <- 0
        end;
        Ok (Some (d.buf, at, len))
      end
    end

let next d =
  match next_slice d with
  | Ok (Some (b, off, len)) -> Ok (Some (Bytes.sub_string b off len))
  | (Ok None | Error _) as r -> r

let pending d = d.len - d.off
