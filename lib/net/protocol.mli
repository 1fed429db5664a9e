(** The wire vocabulary of [odes serve] (docs/PROTOCOL.md §2–§4).

    Every frame payload is one JSON object. Client → server frames are
    {e requests} — [{"id": n, "verb": v, ...}] — and every request gets
    exactly one reply carrying the same [id]: [{"id": n, "ok": ...}] or
    [{"id": n, "error": {"code": c, "msg": m}}]. Server → client frames
    without an [id] are stream notifications: [{"firing": {...}}]
    delivers one trigger firing to a subscriber, [{"lagged": k}] tells a
    [drop]-policy subscriber that [k] firings were dropped since its
    last delivered one.

    Encoding of the database vocabulary:
    - a {!Ode_base.Value.t} is [null] (Unit), a JSON bool/int/float,
      a JSON string, or [{"oid": n}]; non-finite floats travel as
      [{"float": "nan" | "inf" | "-inf"}];
    - a basic event is a tagged object, e.g.
      [{"k": "method", "q": "after", "name": "deposit"}] — see
      {!encode_basic};
    - timestamps and clock spans are JSON ints (milliseconds). *)

module Value = Ode_base.Value
module Symbol = Ode_event.Symbol

type item = {
  i_oid : int;
  i_event : Symbol.basic;
  i_args : Value.t list;
}
(** One basic-event occurrence to post: the [post]/[post_many] payload
    and the unit the server's batch coalescer works in. *)

type policy = Block | Drop
(** Subscriber backpressure when its outbox is full: [Block] stalls the
    server until the client drains (no firing is ever lost), [Drop]
    discards the newest firing and counts it (the client learns via
    [{"lagged": k}]). *)

type request =
  | Status
  | Schema of string  (** ODL source to register, server-side *)
  | Create of string * Value.t list  (** class name, constructor args *)
  | Post of item
  | Post_many of item list
  | Call of int * string * Value.t list
  | Tbegin
  | Tcommit
  | Tabort
  | Advance_clock of int64  (** span, ms *)
  | Save of string  (** server-side path *)
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

type response = R_ok of Json.t | R_error of string * string  (** code, msg *)

type msg =
  | Reply of int * response
  | Firing of firing
  | Lagged of int
(** Everything a client can pull off the stream. *)

(** {1 Values and events} *)

val encode_value : Value.t -> Json.t
val decode_value : Json.t -> (Value.t, string) result
val decode_basic : Json.t -> (Symbol.basic, string) result

(** {1 Requests (client side encodes, server side decodes)} *)

val verb_of_request : request -> string
(** The wire verb, e.g. ["post_many"] — the key of the server's
    per-verb latency histograms. *)

val encode_request : id:int -> request -> string

val add_request : Buffer.t -> id:int -> request -> unit
(** {!encode_request} into a buffer. The encoders write bytes directly,
    without a {!Json.t} tree; their output is exactly [Json.to_string]
    of the tree form (test/test_net.ml keeps the tree builders as the
    oracle). *)

val decode_request : Json.t -> (int * request, string) result

val decode_post : bytes -> int -> int -> (int * request) option
(** [decode_post b off len] decodes a [post] or [post_many] request
    straight from the payload bytes [b.[off] .. b.[off + len - 1]], in
    one pass and without a tree. Any key order, whitespace, escape,
    value and event kind is accepted. It returns [None] for every other
    verb and for any input it does not fully accept; [Some r] only when
    {!Json.of_string} followed by {!decode_request} gives [Ok r]. *)

val decode_payload :
  bytes -> int -> int -> (int * request, int * string * string) result
(** A request frame's payload as the server reads it: {!decode_post}
    first, else {!Json.of_string} and {!decode_request}. [Error (id,
    code, msg)] is the error reply: [err_parse] with id [-1] for bad
    JSON, [err_bad_request] with the request's id, when it has an
    integer one, for a malformed request. *)

(** {1 Server → client messages} *)

val encode_reply : id:int -> response -> string
val encode_firing : firing -> string
val encode_lagged : int -> string

val add_reply : Buffer.t -> id:int -> response -> unit
val add_firing : Buffer.t -> firing -> unit
val add_lagged : Buffer.t -> int -> unit

val add_batch_reply :
  Buffer.t -> id:int -> batch:int -> queued:int -> firings:int -> unit
(** The reply to a coalesced [post]/[post_many]:
    [{"id":id,"ok":{"batch":b,"queued":q,"firings":f}}]. *)

val decode_msg : Json.t -> (msg, string) result

(** {1 Error codes} (docs/PROTOCOL.md §4) *)

val err_parse : string
(** ["parse"] — unparseable frame payload *)

val err_bad_request : string
(** ["bad_request"] — well-formed JSON, malformed request *)

val err_aborted : string
(** ["aborted"] — the transaction aborted *)

val err_state : string
(** ["state"] — verb illegal in this state *)

val err_ode : string
(** ["ode"] — a database error, msg verbatim *)
