module Value = Ode_base.Value
module Codec = Ode_base.Codec
module Symbol = Ode_event.Symbol
module Detector = Ode_event.Detector
open Types

let magic = "ODE1"

let write_time_spec w (spec : Symbol.time_spec) =
  let write_pattern (p : Symbol.time_pattern) =
    let opt v = Codec.write_option w Codec.write_int v in
    opt p.year; opt p.mon; opt p.day; opt p.hr; opt p.min; opt p.sec; opt p.ms
  in
  match spec with
  | At p ->
    Codec.write_int w 0;
    write_pattern p
  | Every ms ->
    Codec.write_int w 1;
    Codec.write_int w (Int64.to_int ms)
  | After_period ms ->
    Codec.write_int w 2;
    Codec.write_int w (Int64.to_int ms)

let read_time_spec r : Symbol.time_spec =
  let read_pattern () : Symbol.time_pattern =
    let opt () = Codec.read_option r Codec.read_int in
    let year = opt () in
    let mon = opt () in
    let day = opt () in
    let hr = opt () in
    let min = opt () in
    let sec = opt () in
    let ms = opt () in
    { year; mon; day; hr; min; sec; ms }
  in
  match Codec.read_int r with
  | 0 -> At (read_pattern ())
  | 1 -> Every (Int64.of_int (Codec.read_int r))
  | 2 -> After_period (Int64.of_int (Codec.read_int r))
  | t -> raise (Codec.Corrupt (Printf.sprintf "bad time spec tag %d" t))

(* ------------------------------------------------------------------ *)
(* Object and timer framing                                            *)
(*                                                                     *)
(* One writer/reader pair per entity, shared verbatim by the full      *)
(* image below and by [Wal]'s redo records — there is exactly one      *)
(* codec path, so a WAL snapshot and a [save] of the same state are    *)
(* bit-identical by construction.                                      *)
(* ------------------------------------------------------------------ *)

let write_obj w obj =
  Codec.write_int w obj.o_id;
  Codec.write_string w obj.o_class.k_name;
  Codec.write_list w
    (fun w (name, v) ->
      Codec.write_string w name;
      Codec.write_value w v)
    (Hashtbl.fold (fun name v acc -> (name, v) :: acc) obj.o_fields []
    |> List.sort compare);
  Codec.write_list w
    (fun w (name, (at : active_trigger)) ->
      Codec.write_string w name;
      Codec.write_list w Codec.write_value at.at_params;
      Codec.write_array w Codec.write_int (at_state_copy at);
      Codec.write_list w
        (fun w (name, v) ->
          Codec.write_string w name;
          Codec.write_value w v)
        at.at_collected;
      Codec.write_bool w at.at_active;
      Codec.write_int w at.at_epoch)
    (Hashtbl.fold (fun name at acc -> (name, at) :: acc) obj.o_triggers []
    |> List.sort (fun (a, _) (b, _) -> compare a b))

(* Schema-free parse of one serialized object — also what [odec
   wal-dump] decodes without a database at hand. *)
let read_obj_raw r =
  let oid = Codec.read_int r in
  let cname = Codec.read_string r in
  let fields =
    Codec.read_list r (fun r ->
        let name = Codec.read_string r in
        let v = Codec.read_value r in
        (name, v))
  in
  let triggers =
    Codec.read_list r (fun r ->
        let name = Codec.read_string r in
        let params = Codec.read_list r Codec.read_value in
        let state = Codec.read_array r Codec.read_int in
        let collected =
          Codec.read_list r (fun r ->
              let name = Codec.read_string r in
              let v = Codec.read_value r in
              (name, v))
        in
        let active = Codec.read_bool r in
        let epoch = Codec.read_int r in
        (name, params, state, collected, active, epoch))
  in
  (oid, cname, fields, triggers)

(* Check a parsed object against the schema — class and triggers
   resolved by name, every state vector inside its automaton — and
   return what installs it: each activation gets a fresh slot, then
   the saved words. Nothing is touched until the returned function
   runs, so a loader can check a whole image before it resets the
   heap. *)
let resolve_obj db (oid, cname, fields, triggers) =
  let k =
    match Schema.find_class db cname with
    | Some k -> k
    | None -> raise (Codec.Corrupt ("image references unregistered class " ^ cname))
  in
  let triggers =
    List.map
      (fun (name, params, state, collected, active, epoch) ->
        match Hashtbl.find_opt k.k_triggers name with
        | None -> raise (Codec.Corrupt ("image references unknown trigger " ^ name))
        | Some def ->
          Detector.check_state def.t_detector state;
          (def, params, state, collected, active, epoch))
      triggers
  in
  fun () ->
    let obj = new_obj k oid in
    (* saved field values override the class defaults installed by
       [new_obj] *)
    List.iter (fun (name, v) -> Hashtbl.replace obj.o_fields name v) fields;
    List.iter
      (fun (def, params, state, collected, active, epoch) ->
        (* provenance instances are volatile: rebuilt empty after a
           load (documented in save) *)
        let at = new_activation def (Store.soa_slot db def.t_detector) params in
        at_state_restore at state;
        at.at_collected <- collected;
        at.at_active <- active;
        at.at_epoch <- epoch;
        attach obj at)
      triggers;
    Store.add_obj db obj

let install_obj db raw = resolve_obj db raw ()

let write_timer w (tm : timer) =
  Codec.write_int w (Int64.to_int tm.tm_due);
  (* the insertion stamp is part of the image, so a reload restores
     the exact delivery order among equal-due timers *)
  Codec.write_int w tm.tm_seq;
  Codec.write_int w tm.tm_oid;
  Codec.write_string w tm.tm_trigger;
  Codec.write_int w tm.tm_epoch;
  write_time_spec w tm.tm_spec;
  Codec.write_int w (Int64.to_int tm.tm_anchor)

let read_timer r =
  let due = Int64.of_int (Codec.read_int r) in
  let seq = Codec.read_int r in
  let oid = Codec.read_int r in
  let tname = Codec.read_string r in
  let epoch = Codec.read_int r in
  let spec = read_time_spec r in
  let anchor = Int64.of_int (Codec.read_int r) in
  { tm_due = due; tm_seq = seq; tm_oid = oid; tm_trigger = tname;
    tm_epoch = epoch; tm_spec = spec; tm_anchor = anchor }

(* ------------------------------------------------------------------ *)
(* Full images                                                         *)
(* ------------------------------------------------------------------ *)

(* The one image encoder: the header counters and clock come from [db],
   then the objects in ascending oid and the timers in (due, seq) order.
   [spill] runs after each object and timer, so a streamed write hands
   its bytes on as it goes instead of building the image first. *)
let encode_into w ~spill db objs timers =
  Codec.write_string w magic;
  Codec.write_int w db.store.next_oid;
  Codec.write_int w db.txns.next_txn_id;
  Codec.write_int w (Int64.to_int db.wheel.clock_ms);
  Codec.write_array w
    (fun w o ->
      write_obj w o;
      spill w)
    objs;
  Codec.write_list w
    (fun w tm ->
      write_timer w tm;
      spill w)
    timers

let encode db objs timers =
  let w = Codec.writer () in
  encode_into w ~spill:ignore db objs timers;
  Codec.contents w

(* The same bytes as [encode], streamed through one small writer into
   [path] (temp file, then rename); returns the file's length. *)
let encode_file path db objs timers =
  Codec.with_out_file path (fun oc ->
      let w = Codec.writer () in
      encode_into w ~spill:(Codec.output oc) db objs timers;
      Codec.output oc w;
      pos_out oc)

(* The image: the live objects in one array, sorted once by oid, and
   the timers in (due, seq) order. The database object, in no heap
   table, fills the array until every slot is written. *)
let image enc db =
  let objs = Array.make (Store.cardinal ~live:true db) db.engine.db_obj in
  let i = ref 0 in
  Store.iter_objects
    (fun o ->
      if not o.o_deleted then begin
        objs.(!i) <- o;
        incr i
      end)
    db;
  assert (!i = Array.length objs);
  Array.sort (fun a b -> Int.compare a.o_id b.o_id) objs;
  enc db objs (Timewheel.pending db)

let image_bytes db = image encode db
let write_image db path = image (encode_file path) db

(* The one image decoder. Loaders parse the whole image and check every
   object against the schema ([resolve_obj]) before they touch the
   heap, so a corrupt image does not leave a half-installed or wiped
   database behind. *)
let decode data =
  let r = Codec.reader data in
  if Codec.read_string r <> magic then raise (Codec.Corrupt "not an Ode image");
  let next_oid = Codec.read_int r in
  let next_txn_id = Codec.read_int r in
  let clock_ms = Int64.of_int (Codec.read_int r) in
  let objs = Codec.read_list r read_obj_raw in
  let timers = Codec.read_list r read_timer in
  (next_oid, next_txn_id, clock_ms, objs, timers)

(* The one image loader: reset the heap, then install the image's
   objects and timers. *)
let load_image db data =
  let next_oid, next_txn_id, clock_ms, objs, timers = decode data in
  let installs = List.map (resolve_obj db) objs in
  Store.reset_heap db;
  db.wheel.tm_next_seq <- 0;
  db.store.next_oid <- next_oid;
  db.wheel.clock_ms <- clock_ms;
  db.txns.next_txn_id <- next_txn_id;
  List.iter (fun install -> install ()) installs;
  Timewheel.replace db timers

let save db path =
  if db.txns.open_txns <> [] then ode_error "cannot save with open transactions";
  ignore (write_image db path)

let load db path =
  if db.txns.open_txns <> [] then ode_error "cannot load with open transactions";
  load_image db (Codec.of_file path)

(* ------------------------------------------------------------------ *)
(* The full-image durability backend                                   *)
(* ------------------------------------------------------------------ *)

(* [save]/[load] as a [durability_backend]: no incremental log, commits
   emit nothing, recovery has nothing to replay from. *)
let image_backend () =
  {
    dur_name = "image";
    dur_attach = (fun _ -> ());
    dur_commit = (fun _ _ -> ());
    dur_save = save;
    dur_load = load;
    dur_recover =
      (fun _ -> ode_error "image durability keeps no log to recover from");
    dur_sync = (fun _ -> ());
    dur_close = (fun _ -> ());
  }
