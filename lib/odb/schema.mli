(** Schema layer: class builders, trigger definitions, detector
    compilation, and construction of the per-class dispatch indexes
    (paper §5) — the database scope's included, compiled as the class
    [schema.db_class].

    Bottom of the subsystem stack — depends only on {!Types}. Everything
    here runs at registration time; the posting hot path only {e reads}
    the structures built here. The public face of these operations is
    re-exported by {!Database}. *)

module Value = Ode_base.Value
open Types

type class_builder

val define_class :
  ?constructor:(db -> oid -> Value.t list -> unit) -> string -> class_builder

val field : class_builder -> string -> Value.t -> class_builder

val method_ :
  class_builder ->
  ?arity:int ->
  kind:method_kind ->
  string ->
  (db -> oid -> Value.t list -> Value.t) ->
  class_builder

val trigger :
  class_builder ->
  ?perpetual:bool ->
  ?mode:Ode_event.Detector.mode ->
  ?witnesses:bool ->
  string ->
  event:Ode_event.Expr.t ->
  action:(db -> fire_context -> unit) ->
  class_builder
(** Compiles the event specification to its automaton — once per class
    (§5). Detectors are made with [~share] so triggers declaring the
    same event reuse one compiled automaton and one classification-cache
    slot. *)

val trigger_str :
  class_builder ->
  ?perpetual:bool ->
  ?mode:Ode_event.Detector.mode ->
  ?witnesses:bool ->
  string ->
  event:string ->
  action:(db -> fire_context -> unit) ->
  class_builder

val register_class : db -> class_builder -> unit
(** Install the class and build its dispatch index. Purely structural:
    posting the [after defclass] database-scope event is the caller's
    job ({!Engine.register_class}), keeping this layer free of any
    dependency on the posting pipeline. *)

val builder_name : class_builder -> string

val register_fun : db -> string -> (db -> Value.t list -> Value.t) -> unit

val find_class : db -> string -> klass option
val n_classes : db -> int
val find_fun : db -> string -> (db -> Value.t list -> Value.t) option

val db_trigger :
  db ->
  ?perpetual:bool ->
  ?witnesses:bool ->
  string ->
  event:Ode_event.Expr.t ->
  action:(db -> fire_context -> unit) ->
  unit
(** Define a database-scope trigger (§3): one more trigger of the
    database class, recompiled with it last. Activation is {!Engine}'s
    job. An event with a time component is rejected
    ([Ode_error "database trigger T: time events need an object
    scope"]): timers are armed per object.
    [witnesses] (default false) tracks full per-match provenance, as for
    object-scope triggers: the action's [fc_witnesses] is then
    [Some matches] instead of [None]. *)

val db_trigger_str :
  db ->
  ?perpetual:bool ->
  ?witnesses:bool ->
  string ->
  event:string ->
  action:(db -> fire_context -> unit) ->
  unit
