(* Fleet monitoring (ROADMAP item 2): a calendar-heavy workload where
   nearly every live object carries pending timers. Each vehicle runs
   one periodic heartbeat trigger (cadence assigned round-robin) plus
   an optional one-shot service check, so a fleet of n vehicles keeps
   ~2n timers armed at all times — the workload that made the
   sorted-list queue quadratic. *)

module D = Ode_odb.Database
module Value = Ode_base.Value

type t = { db : D.t; vehicles : D.oid array }

let cadences = [| ("hb_fast", 50); ("hb_med", 250); ("hb_slow", 1000) |]
let service_after_ms = 30_000

let bump db oid field =
  D.set_field db oid field (Value.add (D.get_field db oid field) (Value.Int 1))

let vehicle_class =
  let b = D.define_class "vehicle" in
  let b = D.field b "beats" (Value.Int 0) in
  let b = D.field b "alerts" (Value.Int 0) in
  let b =
    D.method_ b ~kind:D.Updating "recordBeat" (fun db oid _ ->
        bump db oid "beats";
        Value.Unit)
  in
  let b =
    D.method_ b ~kind:D.Updating "serviceDue" (fun db oid _ ->
        bump db oid "alerts";
        Value.Unit)
  in
  let b =
    Array.fold_left
      (fun b (name, ms) ->
        D.trigger_str b ~perpetual:true name
          ~event:(Printf.sprintf "every time(MS=%d)" ms)
          ~action:(fun db ctx -> ignore (D.call db ctx.D.fc_oid "recordBeat" [])))
      b cadences
  in
  D.trigger_str b "service"
    ~event:(Printf.sprintf "after time(MS=%d)" service_after_ms)
    ~action:(fun db ctx -> ignore (D.call db ctx.D.fc_oid "serviceDue" []))

let cadence_of i = fst cadences.(i mod Array.length cadences)

(* Large fleets are built in bounded transactions: one undo log and one
   redo batch per [chunk] vehicles, not one per vehicle and not one
   million-entry transaction. *)
let chunk = 5_000

let batched n f =
  let i = ref 0 in
  while !i < n do
    let hi = min n (!i + chunk) in
    f !i hi;
    i := hi
  done

let expect_ok what = function
  | Ok v -> v
  | Error `Aborted -> raise (D.Ode_error ("fleet " ^ what ^ " aborted"))

let setup ?db ?(vehicles = 1_000) ?(service = true) () =
  let db = match db with Some db -> db | None -> D.create_db () in
  D.register_class db vehicle_class;
  let vs = Array.make (max vehicles 1) 0 in
  batched vehicles (fun lo hi ->
      expect_ok "setup"
        (D.with_txn db (fun _ ->
             for j = lo to hi - 1 do
               let oid = D.create db "vehicle" [] in
               D.activate db oid (cadence_of j) [];
               if service then D.activate db oid "service" [];
               vs.(j) <- oid
             done)));
  { db; vehicles = vs }

let size t = Array.length t.vehicles
let tick t span = D.advance_clock t.db span

let idle t ~stride =
  let n = size t in
  batched n (fun lo hi ->
      expect_ok "idle"
        (D.with_txn t.db (fun _ ->
             for j = lo to hi - 1 do
               if j mod stride = 0 then
                 D.deactivate t.db t.vehicles.(j) (cadence_of j)
             done)))

let resume t ~stride =
  let n = size t in
  batched n (fun lo hi ->
      expect_ok "resume"
        (D.with_txn t.db (fun _ ->
             for j = lo to hi - 1 do
               if j mod stride = 0 then
                 D.activate t.db t.vehicles.(j) (cadence_of j) []
             done)))

let retire t ~stride =
  let n = size t in
  batched n (fun lo hi ->
      expect_ok "retire"
        (D.with_txn t.db (fun _ ->
             for j = lo to hi - 1 do
               if j mod stride = 0 && D.exists t.db t.vehicles.(j) then
                 D.delete t.db t.vehicles.(j)
             done)))

let beats t i = Value.to_int (D.get_field t.db t.vehicles.(i) "beats")
let alerts t i = Value.to_int (D.get_field t.db t.vehicles.(i) "alerts")

let total field t =
  Array.fold_left
    (fun acc oid ->
      if D.exists t.db oid then acc + Value.to_int (D.get_field t.db oid field)
      else acc)
    0 t.vehicles

let total_beats = total "beats"
let total_alerts = total "alerts"
