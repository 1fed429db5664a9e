(* odebench — one benchmark for the whole system.

     odebench run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
                  [--quick] [--out-dir DIR] [--results FILE]
                  [--bench BENCHMARK.json]
     odebench compare A.jsonl B.jsonl [--bench BENCHMARK.json]

   [run --workload W] runs one workload in this process, prints every
   metric by name with its unit, checks the workload's outputs, appends
   a stamped record to the results file and prints, as its last line,
   {"correct", "attempted", "failed", "metrics"}. Untraced, the metrics
   are the end-to-end set; with --trace, a separate traced pass yields
   the per-layer set. [run] without --workload runs every workload, each
   in a fresh process. See README.md. *)

open Common

let workloads =
  [
    ("wire_ingest", Wl_wire.run);
    ("stockroom_txn", Wl_stockroom.run);
    ("durable_deposit", Wl_durable.run);
    ("fleet_timers", Wl_fleet.run);
  ]

(* Printed and recorded beside the end-to-end set of BENCHMARK.json, but
   without a bound: their run-to-run spread on a shared 2-vCPU machine
   (up to 67%) is too wide for one; see README.md. *)
let tails = [ ("p99_us", "us"); ("firing_lag_p99_us", "us") ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("odebench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Stamp                                                               *)
(* ------------------------------------------------------------------ *)

let command_line prog args =
  match Unix.open_process_args_in prog (Array.of_list (prog :: args)) with
  | ic ->
    let out = try input_line ic with End_of_file -> "" in
    let ok = match Unix.close_process_in ic with Unix.WEXITED 0 -> true | _ -> false in
    if ok && out <> "" then Some out else None
  | exception Unix.Unix_error _ -> None

(* Only ask git when the working directory is itself a checkout's root,
   so a copy of the tree inside some other repository is not stamped
   with that repository's commit. *)
let git_sha () =
  if Sys.file_exists ".git" then
    Option.value ~default:"unknown" (command_line "git" [ "rev-parse"; "HEAD" ])
  else "unknown"

(* The filesystem type of the mount holding [dir] (longest mount-point
   prefix in /proc/self/mounts). *)
let fs_type dir =
  let dir = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let prefix p = p = "/" || dir = p || String.starts_with ~prefix:(p ^ "/") dir in
  match read_file "/proc/self/mounts" with
  | mounts ->
    List.fold_left
      (fun (best_len, best) line ->
        match String.split_on_char ' ' line with
        | _ :: mnt :: fs :: _ when prefix mnt && String.length mnt >= best_len ->
          (String.length mnt, fs)
        | _ -> (best_len, best))
      (-1, "unknown")
      (String.split_on_char '\n' mounts)
    |> snd
  | exception Sys_error _ -> "unknown"

let stamp ~seed =
  let tmp = Filename.get_temp_dir_name () in
  J.Obj
    [
      ("git_sha", J.String (git_sha ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("nproc", J.Int nproc);
      ("cpus", J.List [ J.Int main_cpu; J.Int server_cpu ]);
      ("seed", J.Int seed);
      ("tmpdir", J.String tmp);
      ("tmpdir_fs", J.String (fs_type tmp));
    ]

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable quick : bool;
  mutable out_dir : string;
  mutable results : string option;
  mutable bench : string;
}

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let is_ode = String.starts_with ~prefix:"ODE_"
let ode_env () = List.filter is_ode (Array.to_list (Unix.environment ()))

let metric_json (x : metric) =
  J.Obj [ ("value", J.Float x.value); ("unit", J.String x.unit_) ]

(* Stockroom.setup and a bare create_db read ODE_* variables, so a run
   under any of them would measure some other configuration. *)
let refuse_ode_env () =
  match ode_env () with
  | [] -> ()
  | vars ->
    die "refusing to run with %s set: workloads build their databases from \
         the environment, so results would not be comparable"
      (String.concat ", " (List.map (fun kv -> List.hd (String.split_on_char '=' kv)) vars))

let run_one o name run =
  refuse_ode_env ();
  let specs = try load_specs o.bench with Failure e -> die "%s" e in
  let ctx =
    {
      seed = o.seed;
      seconds = (if o.quick then o.seconds /. 20.0 else o.seconds);
      scale = (if o.quick then 1.0 /. 20.0 else 1.0);
      trace = o.trace;
      repeat_setup = not (o.quick || o.trace);
      tracer = Tracer.create ();
    }
  in
  pin main_cpu;
  Printf.printf "odebench %s: seed %d, %.1f s, %s%s\n%!" name o.seed ctx.seconds
    (if o.trace then "traced" else "untraced")
    (if o.quick then ", quick" else "");
  let out = run ctx in
  let failed_checks = List.filter (fun (_, ok) -> not ok) out.checks in
  let failed = out.failed + List.length failed_checks in
  let attempted = max 1 out.attempted in
  let error_ratio = float_of_int failed /. float_of_int attempted in
  (* the reported sets, in the declared order; a per-layer metric the
     workload did not produce reads 0 *)
  let pick wanted =
    List.map
      (fun (n, u) ->
        match List.find_opt (fun (x : metric) -> x.name = n) out.metrics with
        | Some x when x.unit_ = u -> x
        | Some x -> failwith (Printf.sprintf "%s is in %s, not %s" n x.unit_ u)
        | None when o.trace -> m n u 0.0 ~samples:0
        | None -> failwith ("workload did not report " ^ n))
      wanted
  in
  let end_to_end, per_layer = specs in
  let names l = List.map (fun (s : spec) -> (s.name, s.unit_)) l in
  let metrics = pick (names (if o.trace then per_layer else end_to_end)) in
  let tails = if o.trace then [] else pick tails in
  List.iter
    (fun (x : metric) ->
      Printf.printf "  %-38s %16.4f %-6s (n=%d)\n" x.name x.value x.unit_ x.samples)
    (metrics @ tails);
  Printf.printf "  %-38s %16.4f %-6s (n=%d)\n" "error_ratio" error_ratio "" attempted;
  List.iter
    (fun (c, ok) -> Printf.printf "  check %-4s %s\n" (if ok then "ok" else "FAIL") c)
    out.checks;
  let correct = failed = 0 in
  if not o.quick then begin
    mkdir_p o.out_dir;
    let results =
      Option.value o.results ~default:(Filename.concat o.out_dir "results.jsonl")
    in
    let record =
      J.Obj
        [
          ("workload", J.String name);
          ("seed", J.Int o.seed);
          ("seconds", J.Float o.seconds);
          ("trace", J.Bool o.trace);
          ("stamp", stamp ~seed:o.seed);
          ("correct", J.Bool correct);
          ("attempted", J.Int attempted);
          ("failed", J.Int failed);
          ("error_ratio", J.Float error_ratio);
          ( "checks",
            J.Obj (List.map (fun (c, ok) -> (c, J.Bool ok)) out.checks) );
          ( "metrics",
            J.Obj
              (List.map
                 (fun (x : metric) ->
                   ( x.name,
                     J.Obj
                       [
                         ("value", J.Float x.value);
                         ("unit", J.String x.unit_);
                         ("samples", J.Int x.samples);
                       ] ))
                 (metrics @ tails)) );
        ]
    in
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 results in
    output_string oc (J.to_string record ^ "\n");
    close_out oc
  end;
  if o.trace then begin
    mkdir_p o.out_dir;
    let path = Filename.concat o.out_dir (Printf.sprintf "trace-%s.jsonl" name) in
    let tr = ctx.tracer in
    Tracer.write tr ~path
      ~header:
        (J.Obj
           [
             ("workload", J.String name);
             ("seed", J.Int o.seed);
             ("spans", J.Int tr.Tracer.n);
             ("dropped", J.Int tr.Tracer.dropped);
           ]);
    Printf.printf "  spans: %d kept, %d beyond the cap -> %s\n" tr.Tracer.n
      tr.Tracer.dropped path
  end;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", J.Obj (List.map (fun (x : metric) -> (x.name, metric_json x)) metrics));
          ]));
  exit (if correct then 0 else 1)

(* Every workload in a fresh process. Under --quick the children get
   the environment without its ODE_* variables, so the output checks
   also run under the CI legs that set them. *)
let run_all o argv =
  if not o.quick then refuse_ode_env ();
  let env =
    if o.quick then
      Array.of_list (List.filter (fun kv -> not (is_ode kv)) (Array.to_list (Unix.environment ())))
    else Unix.environment ()
  in
  let failures =
    List.filter
      (fun (name, _) ->
        flush_all ();
        let args = Array.of_list ((Sys.executable_name :: "run" :: argv) @ [ "--workload"; name ]) in
        let pid = Unix.create_process_env Sys.executable_name args env Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> false
        | _ -> true)
      workloads
  in
  match failures with
  | [] -> ()
  | l ->
    Printf.printf "odebench: failed: %s\n" (String.concat ", " (List.map fst l));
    exit 1

let parse_run args =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = 20.0;
      trace = false;
      quick = false;
      out_dir = Filename.concat "bench" (Filename.concat "e2e" "out");
      results = None;
      bench = "BENCHMARK.json";
    }
  in
  let int_of what s = match int_of_string_opt s with Some n -> n | None -> die "%s: not an integer: %s" what s in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      if not (List.mem_assoc w workloads) then
        die "unknown workload %s (one of: %s)" w (String.concat ", " (List.map fst workloads));
      o.workload <- Some w;
      go rest
    | "--seed" :: n :: rest ->
      o.seed <- int_of "--seed" n;
      go rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some f when f > 0.0 -> o.seconds <- f
      | _ -> die "--seconds: not a positive number: %s" s);
      go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      o.trace <- v = "1";
      go rest
    | "--trace" :: rest ->
      o.trace <- true;
      go rest
    | "--quick" :: rest ->
      o.quick <- true;
      go rest
    | "--out-dir" :: d :: rest ->
      o.out_dir <- d;
      go rest
    | "--results" :: f :: rest ->
      o.results <- Some f;
      go rest
    | "--bench" :: f :: rest ->
      o.bench <- f;
      go rest
    | a :: _ -> die "run: unexpected argument %s" a
  in
  go args;
  o

let usage () =
  die "usage: odebench run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
       [--quick] [--out-dir DIR] [--results FILE] [--bench FILE]\n\
      \       odebench compare A.jsonl B.jsonl [--bench BENCHMARK.json]"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> (
    let o = parse_run args in
    match o.workload with
    | Some w -> run_one o w (List.assoc w workloads)
    | None -> run_all o args)
  | "compare" :: args -> Compare.main args
  | _ -> usage ()
