(** Minimal self-describing binary codec.

    Used by the persistent store to save and reload databases without
    depending on [Marshal] (whose format is not stable across compiler
    versions). Integers use zig-zag varints; floats are IEEE-754 bits;
    strings and sequences are length-prefixed. *)

type writer
type reader

exception Corrupt of string
(** Raised by all [read_*] functions on malformed or truncated input. *)

val writer : unit -> writer
val contents : writer -> string

val reader : string -> reader
val at_end : reader -> bool

val write_int : writer -> int -> unit
val read_int : reader -> int

val write_bool : writer -> bool -> unit
val read_bool : reader -> bool

val write_float : writer -> float -> unit
val read_float : reader -> float

val write_string : writer -> string -> unit
val read_string : reader -> string

val write_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val read_list : reader -> (reader -> 'a) -> 'a list

val write_array : writer -> (writer -> 'a -> unit) -> 'a array -> unit
val read_array : reader -> (reader -> 'a) -> 'a array

val write_option : writer -> (writer -> 'a -> unit) -> 'a option -> unit
val read_option : reader -> (reader -> 'a) -> 'a option

val write_value : writer -> Value.t -> unit
val read_value : reader -> Value.t

val write_pair :
  writer -> (writer -> 'a -> unit) -> (writer -> 'b -> unit) -> 'a * 'b -> unit

val read_pair : reader -> (reader -> 'a) -> (reader -> 'b) -> 'a * 'b

val output : out_channel -> writer -> unit
(** [output oc w] appends what [w] holds to [oc] and empties [w], so a
    long encoding can stream through one small writer. *)

val with_out_file : string -> (out_channel -> 'a) -> 'a
(** [with_out_file path f] runs [f] on a channel to a temporary file
    next to [path], closes it and renames it over [path]: the file
    appears whole or not at all. If [f] raises, [path] is untouched. *)

val to_file : string -> string -> unit
(** [to_file path data] writes [data] to [path] atomically (via a
    temporary file and rename). *)

val of_file : string -> string
