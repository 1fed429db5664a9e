module Value = Ode_base.Value
module Symbol = Ode_event.Symbol
module Detector = Ode_event.Detector
module Registry = Ode_obs.Registry
open Types

type class_builder = {
  b_name : string;
  b_constructor : (db -> oid -> Value.t list -> unit) option;
  b_fields : (string * Value.t) list;  (* reversed *)
  b_methods : meth list;
  b_triggers : trigger_def list;
}

let define_class ?constructor name =
  {
    b_name = name;
    b_constructor = constructor;
    b_fields = [];
    b_methods = [];
    b_triggers = [];
  }

let field b name default =
  if List.mem_assoc name b.b_fields then
    ode_error "class %s: duplicate field %s" b.b_name name;
  { b with b_fields = (name, default) :: b.b_fields }

let method_ b ?arity ~kind name impl =
  { b with b_methods = { m_name = name; m_kind = kind; m_arity = arity; m_impl = impl } :: b.b_methods }

(* One trigger definition at either scope. Detectors are made with
   [~share]: triggers declaring the same event reuse one compiled
   detector, so [Engine.post] classifies once for all of them. *)
let make_def ~cls ?(perpetual = false) ?(mode = Detector.Full_history)
    ?(witnesses = false) name ~event ~action =
  let detector =
    try Detector.make ~mode ~share:true event
    with Invalid_argument msg -> ode_error "%s: %s" (trigger_label cls name) msg
  in
  {
    t_name = name;
    t_class = cls;
    t_event = event;
    t_detector = detector;
    t_perpetual = perpetual;
    t_witnesses = witnesses;
    t_action = action;
    t_index = 0;  (* assigned by [compile_class] *)
  }

let parse_event ~cls name event =
  match Ode_lang.Parser.event_of_string event with
  | Error msg -> ode_error "%s: %s" (trigger_label cls name) msg
  | Ok expr -> expr

let trigger b ?perpetual ?mode ?witnesses name ~event ~action =
  let def = make_def ~cls:b.b_name ?perpetual ?mode ?witnesses name ~event ~action in
  { b with b_triggers = def :: b.b_triggers }

let trigger_str b ?perpetual ?mode ?witnesses name ~event ~action =
  trigger b ?perpetual ?mode ?witnesses name
    ~event:(parse_event ~cls:b.b_name name event)
    ~action

(* Compile one dispatch bucket into the posting kernel's candidate row:
   defs stay in declaration order; the distinct detectors behind them
   (triggers declaring the same event share one) are factored out so the
   per-event path classifies each exactly once. *)
let make_krow (defs : trigger_def list) =
  let kr_defs = Array.of_list defs in
  let dets = ref [] in
  let n_dets = ref 0 in
  let kr_det_of =
    Array.map
      (fun (d : trigger_def) ->
        let det = d.t_detector in
        let rec find i = function
          | [] ->
            dets := !dets @ [ det ];
            incr n_dets;
            !n_dets - 1
          | det' :: rest -> if det' == det then i else find (i + 1) rest
        in
        find 0 !dets)
      kr_defs
  in
  { kr_defs; kr_dets = Array.of_list !dets; kr_det_of }

(* (Re)compile [k]'s trigger index from [defs], in declaration order:
   duplicate check, dense [t_index] — so dispatch, and therefore action
   execution on a shared occurrence, is deterministic — and one
   candidate row per basic-event key an alphabet guards on. *)
let compile_class k (defs : trigger_def list) =
  Hashtbl.reset k.k_triggers;
  let buckets = Hashtbl.create 16 in
  List.iteri
    (fun i (d : trigger_def) ->
      if Hashtbl.mem k.k_triggers d.t_name then
        ode_error "class %s: duplicate trigger %s" k.k_name d.t_name;
      Hashtbl.add k.k_triggers d.t_name d;
      d.t_index <- i;
      List.iter
        (fun key ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
          Hashtbl.replace buckets key (d :: prev))
        (Detector.relevant_basics d.t_detector))
    defs;
  Hashtbl.reset k.k_rows;
  Hashtbl.iter
    (fun key rev_defs -> Hashtbl.replace k.k_rows key (make_krow (List.rev rev_defs)))
    buckets

let register_class db b =
  if b.b_name = db_class_name then
    ode_error "class %s: the name is reserved for the database scope" b.b_name;
  if Hashtbl.mem db.schema.classes b.b_name then
    ode_error "class %s already defined" b.b_name;
  let k =
    new_class ?constructor:b.b_constructor b.b_name (List.rev b.b_fields)
  in
  List.iter
    (fun m ->
      if Hashtbl.mem k.k_methods m.m_name then
        ode_error "class %s: duplicate method %s" b.b_name m.m_name;
      Hashtbl.add k.k_methods m.m_name m)
    b.b_methods;
  compile_class k (List.rev b.b_triggers);
  Hashtbl.add db.schema.classes b.b_name k;
  if Registry.enabled db.obs then begin
    Registry.incr db.obs Registry.Classes_registered;
    Registry.add db.obs Registry.Triggers_indexed (List.length b.b_triggers)
  end

let builder_name b = b.b_name

let register_fun db name f = Hashtbl.replace db.schema.functions name f

let find_class db name = Hashtbl.find_opt db.schema.classes name
let n_classes db = Hashtbl.length db.schema.classes

let find_fun db name = Hashtbl.find_opt db.schema.functions name

(* The only events the database scope is posted: class registration,
   object creation and deletion. *)
let db_keys =
  List.map Symbol.basic_key
    [ Symbol.Method (Symbol.After, "defclass"); Symbol.Create; Symbol.Delete ]

(* A database-scope trigger is one more trigger of the database class,
   declared last. An event the database scope is never posted is
   rejected, as it would never fire here; time events get their own
   message, since timers are armed per object. *)
let db_trigger db ?perpetual ?witnesses name ~event ~action =
  let k = db.schema.db_class in
  if Hashtbl.mem k.k_triggers name then
    ode_error "database trigger %s already defined" name;
  let def = make_def ~cls:k.k_name ?perpetual ?witnesses name ~event ~action in
  let keys = Detector.relevant_basics def.t_detector in
  if List.mem Symbol.Key_time keys then
    ode_error "database trigger %s: time events need an object scope" name;
  (match List.find_opt (fun key -> not (List.mem key db_keys)) keys with
  | Some key ->
    ode_error "database trigger %s: %a is never posted at database scope" name
      Symbol.pp_basic_key key
  | None -> ());
  let defs =
    Hashtbl.fold (fun _ d acc -> d :: acc) k.k_triggers []
    |> List.sort (fun a b -> compare a.t_index b.t_index)
  in
  compile_class k (defs @ [ def ]);
  if Registry.enabled db.obs then
    Registry.incr db.obs Registry.Triggers_indexed

let db_trigger_str db ?perpetual ?witnesses name ~event ~action =
  db_trigger db ?perpetual ?witnesses name
    ~event:(parse_event ~cls:db_class_name name event)
    ~action
