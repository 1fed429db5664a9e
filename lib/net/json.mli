(** A minimal JSON value type, printer and parser for the wire protocol.

    The repository deliberately avoids external JSON dependencies: the
    protocol needs only the six JSON forms, and the parser below is a
    few dozen lines of recursive descent. Numbers keep the int/float
    distinction the {!Ode_base.Value} universe needs: a token with a
    [.], [e] or [E] parses as [Float], everything else as [Int]
    (falling back to [Float] past 63-bit range). Non-finite floats
    (which JSON cannot carry) print as the strings ["nan"], ["inf"]
    and ["-inf"] tagged inside {!Protocol}'s value encoding, never
    here. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** insertion order preserved *)

val to_string : t -> string
(** Compact (no whitespace) rendering. Strings are escaped per RFC
    8259; non-ASCII bytes pass through unescaped (the wire is UTF-8).
    Finite floats render with enough digits to round-trip; a float
    whose rendering has no [.]/[e] gains a trailing [".0"] so it
    re-parses as [Float]. Raises [Invalid_argument] on a non-finite
    float — the protocol layer never produces one. *)

val add : Buffer.t -> t -> unit
(** Append the {!to_string} rendering to a buffer. *)

val add_int : Buffer.t -> int -> unit
(** Append an int as {!to_string} renders [Int n]. *)

val escape_into : Buffer.t -> string -> unit
(** Append a string as a quoted JSON string literal, escaped as
    {!to_string} escapes it. A string with nothing to escape is
    appended with one [Buffer.add_string]. *)

val of_string : string -> (t, string) result
(** Parse one JSON value spanning the whole input (trailing whitespace
    allowed). The error string names the offset and what went wrong. *)

(** {1 Reading in place}

    The readers {!of_string} is built from, over a byte range, for
    decoders that go from bytes to their own types without a tree (the
    protocol's [post]/[post_many] decoder). Each raises {!Bad} with the
    offending offset where {!of_string} would report an error. *)

exception Bad of int * string

type cursor
(** A read position inside a byte range. *)

val cursor : bytes -> off:int -> len:int -> cursor

val skip_ws : cursor -> unit
val at_end : cursor -> bool

val peek : cursor -> char
(** The byte at the position, ['\000'] at the end. *)

val advance : cursor -> unit
val expect : cursor -> char -> unit

val read_string : cursor -> string
(** A string literal, escapes decoded. *)

val read_enum : cursor -> string array -> int
(** Read a string literal and return its index in the array, or [-1]
    when it is none of them. A name written without escapes is matched
    in place, first names first, without allocating. The names must
    hold no quote or backslash. *)

val position : cursor -> int

val since : cursor -> int -> string
(** [since c p] is the bytes from position [p] to the cursor. *)

val skip_if : cursor -> string -> bool
(** [skip_if c s] moves past [s] and returns true when the bytes at the
    position are [s] (non-empty); otherwise it moves nothing. *)

val read_number : cursor -> t
(** A number token as {!of_string} reads it: [Int] or [Float]. *)

val read_value : depth:int -> cursor -> t
(** One value, as a tree; [depth] is its nesting depth in the whole
    document, which {!of_string} bounds. *)

(** {1 Accessors} — shallow helpers the protocol decoder uses. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on anything else or when absent. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
