module D = Ode_odb.Database
module Clock = Ode_odb.Clock
module Value = Ode_base.Value
module Coupling = Ode_event.Coupling
module Expr = Ode_event.Expr
module Mask = Ode_event.Mask
module P = Ode_lang.Parser

type t = {
  db : D.t;
  mutable billed : int list;
  mutable escalated : int list;
  mutable volume_reports : int;
}

let hour_ms = 3_600_000L

let set_status status db oid _args =
  D.set_field db oid "status" (Value.String status);
  if status = "placed" then
    D.set_field db oid "placed_at" (Value.Int (Int64.to_int (D.now db)));
  Value.Unit

let order_class t =
  D.define_class "order"
    ~constructor:(fun db oid _ ->
      List.iter
        (fun name -> D.activate db oid name [])
        [ "pick_check"; "ship_check"; "deliver_check"; "bill_on_ship"; "escalate" ])
  |> (fun b -> D.field b "status" (Value.String "new"))
  |> (fun b -> D.field b "placed_at" (Value.Int 0))
  |> (fun b -> D.field b "escalated" (Value.Bool false))
  |> (fun b -> D.method_ b ~kind:D.Updating "place" (set_status "placed"))
  |> (fun b -> D.method_ b ~kind:D.Updating "pick" (set_status "picked"))
  |> (fun b -> D.method_ b ~kind:D.Updating "ship" (set_status "shipped"))
  |> (fun b -> D.method_ b ~kind:D.Updating "deliver" (set_status "delivered"))
  |> (fun b ->
       D.method_ b ~kind:D.Updating "escalate" (fun db oid _ ->
           D.set_field db oid "escalated" (Value.Bool true);
           Value.Unit))
  (* picking requires the order to be in "placed" state: a state mask *)
  |> (fun b ->
       D.trigger_str b ~perpetual:true "pick_check"
         ~event:{|before pick && status != "placed"|}
         ~action:(fun _ _ -> raise D.Tabort))
  (* shipping requires a pick to have happened: sequence enforcement with
     prior, the composite style *)
  |> (fun b ->
       D.trigger_str b ~perpetual:true "ship_check"
         ~event:"before ship & !prior(after pick, before ship)"
         ~action:(fun _ _ -> raise D.Tabort))
  |> (fun b ->
       D.trigger_str b ~perpetual:true "deliver_check"
         ~event:{|before deliver && status != "shipped"|}
         ~action:(fun _ _ -> raise D.Tabort))
  (* §7 immediate-dependent: bill only once the shipping transaction has
     committed, in the system transaction *)
  |> (fun b ->
       D.trigger b ~perpetual:true "bill_on_ship"
         ~event:
           (Coupling.expression Coupling.Immediate_dependent
              ~event:(Expr.after "ship")
              ~cond:(Mask.v_bool true))
         ~action:(fun _ ctx -> t.billed <- t.billed @ [ ctx.D.fc_oid ]))
  (* hourly sweep: escalate orders still "placed" 48 simulated hours after
     placement — the whole condition lives in the time event's mask *)
  |> fun b ->
  D.trigger_str b ~perpetual:true "escalate"
    ~event:
      {|every time(HR=1) && status == "placed" && !escalated && now() - placed_at > 172800000|}
    ~action:(fun db ctx ->
      ignore (D.call db ctx.D.fc_oid "escalate" []);
      t.escalated <- t.escalated @ [ ctx.D.fc_oid ])

let setup () =
  let db =
    D.create_db
      ~config:
        {
          (D.Config.of_env ()) with
          D.Config.start_time = Clock.ms_of_civil (Clock.civil 1992 6 2);
        }
      ()
  in
  let t = { db; billed = []; escalated = []; volume_reports = 0 } in
  D.register_fun db "now" (fun db _ -> Value.Int (Int64.to_int (D.now db)));
  D.register_class db (order_class t);
  D.db_trigger_str db ~perpetual:true "audit_volume"
    ~event:{|every 10 (after create(o, cls) && cls == "order")|}
    ~action:(fun _ _ -> t.volume_reports <- t.volume_reports + 1);
  D.activate_db_trigger db "audit_volume" [];
  t

let place t =
  match
    D.with_txn t.db (fun _ ->
        let oid = D.create t.db "order" [] in
        ignore (D.call t.db oid "place" []);
        oid)
  with
  | Ok oid -> oid
  | Error `Aborted -> raise (D.Ode_error "placing an order aborted")

let step t name oid =
  D.with_txn t.db (fun _ -> ignore (D.call t.db oid name []))

let pick t oid = step t "pick" oid
let ship t oid = step t "ship" oid
let deliver t oid = step t "deliver" oid

let status t oid =
  match D.get_field t.db oid "status" with
  | Value.String s -> s
  | v -> Value.to_string v

let hours t n = D.advance_clock t.db (Int64.mul hour_ms (Int64.of_int n))
