module D = Ode_odb.Database
module Clock = Ode_odb.Clock
module Value = Ode_base.Value

type t = {
  db : D.t;
  mutable stockroom : D.oid;
  mutable current_user : string;
  authorized_users : (string, unit) Hashtbl.t;
}

let day_start = Clock.ms_of_civil (Clock.civil 1992 6 2)

(* the paper's #defines *)
let day_begin = "at time(HR=9)"
let day_end = "at time(HR=17)"
let fifth_large_withdrawal = "choose 5 (after withdraw(i, q) && q > 100)"

let bump db oid field =
  D.set_field db oid field (Value.add (D.get_field db oid field) (Value.Int 1))

let item_class =
  D.define_class "item"
  |> (fun b -> D.field b "name" (Value.String ""))
  |> (fun b -> D.field b "balance" (Value.Int 0))
  |> fun b -> D.field b "eoq" (Value.Int 0)

let counter_fields =
  [ "orders"; "logs"; "reports"; "summaries"; "printlogs"; "avg_updates" ]

let stockroom_class ~activate =
  let counter_method b name field =
    D.method_ b ~kind:D.Updating name (fun db oid _ ->
        bump db oid field;
        Value.Unit)
  in
  let move sign db oid args =
    ignore oid;
    match args with
    | [ Value.Oid item; Value.Int q ] ->
      D.set_field db item "balance"
        (Value.add (D.get_field db item "balance") (Value.Int (sign * q)));
      Value.Unit
    | _ -> raise (D.Ode_error "deposit/withdraw expect (item, quantity)")
  in
  let base =
    D.define_class "stockRoom"
      ~constructor:(fun db oid _ ->
        if activate then
          List.iter
            (fun name -> D.activate db oid name [])
            [ "T1"; "T2"; "T3"; "T4"; "T5"; "T6"; "T7"; "T8" ])
    |> fun b ->
    List.fold_left (fun b f -> D.field b f (Value.Int 0)) b counter_fields
  in
  let base =
    base
    |> (fun b -> D.method_ b ~arity:2 ~kind:D.Updating "deposit" (move 1))
    |> (fun b -> D.method_ b ~arity:2 ~kind:D.Updating "withdraw" (move (-1)))
    |> (fun b -> counter_method b "order" "orders")
    |> (fun b -> counter_method b "log" "logs")
    |> (fun b -> counter_method b "report" "reports")
    |> (fun b -> counter_method b "summary" "summaries")
    |> (fun b -> counter_method b "printLog" "printlogs")
    |> fun b -> counter_method b "updateAverages" "avg_updates"
  in
  let call_self name =
   fun db (ctx : D.fire_context) -> ignore (D.call db ctx.D.fc_oid name [])
  in
  base
  (* T1: only authorized users can withdraw; otherwise abort. *)
  |> (fun b ->
       D.trigger_str b ~perpetual:true "T1"
         ~event:"before withdraw && !authorized(user())"
         ~action:(fun _ _ -> raise D.Tabort))
  (* T2: if the item quantity falls below the economic order quantity,
     place an order. Must be explicitly reactivated after it fires. *)
  |> (fun b ->
       D.trigger_str b "T2"
         ~event:"after withdraw(i, q) && i.balance < reorder(i)"
         ~action:(fun db ctx ->
           match ctx.D.fc_occurrence.args with
           | item :: _ -> ignore (D.call db ctx.D.fc_oid "order" [ item ])
           | [] -> ()))
  (* T3: at the end of the day, print a summary. *)
  |> (fun b ->
       D.trigger_str b ~perpetual:true "T3" ~event:day_end
         ~action:(call_self "summary"))
  (* T4: every transaction after the 5th within the same day is reported. *)
  |> (fun b ->
       D.trigger_str b ~perpetual:true "T4"
         ~event:
           (Printf.sprintf
              "relative(%s, prior(choose 5 (after tcommit), after tcommit) & \
               !prior(%s, after tcommit))"
              day_begin day_begin)
         ~action:(call_self "report"))
  (* T5: after every 5 operations, update the averages. *)
  |> (fun b ->
       D.trigger_str b ~perpetual:true "T5" ~event:"every 5 (after access)"
         ~action:(call_self "updateAverages"))
  (* T6: all large withdrawals are recorded. *)
  |> (fun b ->
       D.trigger_str b ~perpetual:true "T6"
         ~event:"after withdraw(i, q) && q > 100" ~action:(call_self "log"))
  (* T7: after the 5th large withdrawal in the same day, print a summary. *)
  |> (fun b ->
       D.trigger_str b ~perpetual:true "T7"
         ~event:(Printf.sprintf "fa(%s, %s, %s)" day_begin fifth_large_withdrawal day_begin)
         ~action:(call_self "summary"))
  (* T8: print the log when a deposit is immediately followed by a
     withdrawal. *)
  |> fun b ->
  D.trigger_str b ~perpetual:true "T8"
    ~event:"after deposit; before withdraw; after withdraw"
    ~action:(call_self "printLog")

let setup ?(activate = true) () =
  let db =
    D.create_db ~config:{ (D.Config.of_env ()) with D.Config.start_time = day_start } ()
  in
  let t =
    {
      db;
      stockroom = 0;
      current_user = "amy";
      authorized_users = Hashtbl.create 4;
    }
  in
  Hashtbl.replace t.authorized_users "amy" ();
  D.register_fun db "user" (fun _ _ -> Value.String t.current_user);
  D.register_fun db "authorized" (fun _ args ->
      match args with
      | [ Value.String u ] -> Value.Bool (Hashtbl.mem t.authorized_users u)
      | _ -> Value.Bool false);
  D.register_fun db "reorder" (fun db args ->
      match args with
      | [ Value.Oid item ] -> D.get_field db item "eoq"
      | _ -> raise (Ode_event.Mask.Eval_error "reorder expects an item"));
  D.register_class db item_class;
  D.register_class db (stockroom_class ~activate);
  match D.with_txn db (fun _ -> D.create db "stockRoom" []) with
  | Ok oid ->
    t.stockroom <- oid;
    t
  | Error `Aborted -> raise (D.Ode_error "stockroom setup aborted")

let new_item t ~name ~eoq ~balance =
  match
    D.with_txn t.db (fun _ ->
        let item = D.create t.db "item" [] in
        D.set_field t.db item "name" (Value.String name);
        D.set_field t.db item "eoq" (Value.Int eoq);
        D.set_field t.db item "balance" (Value.Int balance);
        item)
  with
  | Ok item -> item
  | Error `Aborted -> raise (D.Ode_error "item creation aborted")

let move t meth ~item ~qty =
  D.with_txn t.db (fun _ ->
      ignore (D.call t.db t.stockroom meth [ Value.Oid item; Value.Int qty ]))

let deposit t ~item ~qty = move t "deposit" ~item ~qty
let withdraw t ~item ~qty = move t "withdraw" ~item ~qty

let counter t name =
  if not (List.mem name counter_fields) then
    raise (D.Ode_error ("unknown stockroom counter " ^ name));
  Value.to_int (D.get_field t.db t.stockroom name)

let item_balance t item = Value.to_int (D.get_field t.db item "balance")
