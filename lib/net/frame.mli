(** Length-prefixed framing (docs/PROTOCOL.md §1).

    One frame is [[len:4 bytes big-endian][payload: len bytes]]. The
    payload is one JSON document. [len = 0] and [len > max] are
    protocol violations: a peer that sends either is broken (or the
    stream is corrupt) and the connection must be dropped — there is no
    way to resynchronise a length-prefixed stream after a bad length.

    Two consumption styles: the blocking {!read_frame}/{!write_frame}
    pair for clients and tests, and the incremental {!decoder} the
    server's select loop feeds with whatever [read(2)] returned. *)

val max_frame_default : int
(** 16 MiB — the default cap on one payload. *)

val write_frame : Unix.file_descr -> string -> unit
(** Blocking: the 4-byte header then the payload, looping over partial
    writes. Raises [Unix.Unix_error] on a dead peer. *)

val encode : string -> string
(** The frame bytes (header, then payload) without writing them. *)

val of_buffer : Buffer.t -> string
(** The frame of the buffer's contents: header and payload in one
    string, the one allocation a frame costs. *)

type read_error =
  | Eof  (** clean end of stream between frames *)
  | Truncated of int  (** EOF mid-frame, with the byte count still owed *)
  | Oversized of int  (** declared length exceeded [max] *)

val read_frame :
  ?max:int -> Unix.file_descr -> (string, read_error) result
(** Blocking read of exactly one frame. *)

(** {1 Incremental decoding} *)

type decoder

val decoder : ?max:int -> unit -> decoder

val feed : decoder -> bytes -> int -> unit
(** Append the first [n] bytes of the buffer to the stream. *)

val next : decoder -> (string option, [ `Oversized of int ]) result
(** Pop the next complete payload, [Ok None] when more bytes are
    needed. After [`Oversized] the stream is unrecoverable; drop the
    connection. *)

val next_slice :
  decoder -> ((bytes * int * int) option, [ `Oversized of int ]) result
(** {!next} without the copy: [Ok (Some (b, off, len))] when the payload
    is the [len] bytes of [b] at [off]. The bytes stay valid until the
    next {!feed}. *)

val pending : decoder -> int
(** Bytes buffered but not yet returned — nonzero at EOF means the peer
    died mid-frame. *)
