(* odebench compare A.jsonl B.jsonl [--bench BENCHMARK.json]

   For every workload and end-to-end metric found in both result files
   (untraced runs only), print each side's median and quartiles, the
   share of run pairs B won, and a verdict by the rule the benchmark
   uses for claims and regressions:

   - better: B wins at least 9 of 10 pairs and the medians differ, in
     B's favour, by more than A's own spread (its interquartile range);
   - worse: B's median is worse than A's by more than the metric's
     bound from BENCHMARK.json;
   - unresolved: not worse by more than the bound, but A's or B's
     spread (interquartile range over median) is wider than the bound —
     unless every run of B reads better than every run of A;
   - within bound: otherwise.

   Runs are paired in file order within each workload. *)

open Common

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("odebench compare: " ^ s); exit 2) fmt

let read_lines path =
  let ic = try open_in path with Sys_error e -> die "%s" e in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let parse path s =
  match J.of_string s with Ok j -> j | Error e -> die "%s: %s" path e

(* workload -> runs (in file order) -> metric -> value *)
let runs path =
  List.filter_map
    (fun line ->
      let r = parse path line in
      match (J.member "trace" r, J.member "metrics" r) with
      | Some (J.Bool false), Some (J.Obj ms) ->
        let values =
          List.filter_map
            (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (J.member "value" v) json_num))
            ms
        in
        Some (json_str "workload" r, values)
      | _ -> None)
    (read_lines path)

(* Python's statistics.quantiles(n=4), the default "exclusive" method,
   so the spreads printed here are the ones the bounds are
   checked against; [a] is sorted. *)
let quartiles a =
  let n = Array.length a in
  if n < 2 then (a.(0), a.(0))
  else begin
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)
  end

(* at least four significant digits, without exponents *)
let num x =
  if Float.abs x >= 1000.0 then Printf.sprintf "%.0f" x
  else if Float.abs x >= 1.0 then Printf.sprintf "%.4g" x
  else Printf.sprintf "%.4f" x

let verdict (spec : spec) a b =
  let sa = Array.copy a and sb = Array.copy b in
  Array.sort Float.compare sa;
  Array.sort Float.compare sb;
  let ma = median (Array.to_list sa) and mb = median (Array.to_list sb) in
  let qa1, qa3 = quartiles sa and qb1, qb3 = quartiles sb in
  let better x y = if spec.higher then x > y else x < y in
  let pairs = min (Array.length a) (Array.length b) in
  let won = ref 0 in
  for i = 0 to pairs - 1 do
    if better b.(i) a.(i) then incr won
  done;
  let share = float_of_int !won /. float_of_int (max 1 pairs) in
  let gain = if spec.higher then mb -. ma else ma -. mb in
  let spread_a = (qa3 -. qa1) /. Float.abs ma and spread_b = (qb3 -. qb1) /. Float.abs mb in
  let all_better = Array.for_all (fun y -> Array.for_all (fun x -> better y x) a) b in
  let v =
    if share >= 0.9 && gain > qa3 -. qa1 then "better"
    else if -.gain /. Float.abs ma > spec.bound then "worse"
    else if (spread_a > spec.bound || spread_b > spec.bound) && not all_better then
      "unresolved"
    else "within bound"
  in
  ((ma, qa1, qa3, spread_a), (mb, qb1, qb3, spread_b), share, v)

let main args =
  let rec go bench files = function
    | "--bench" :: f :: rest -> go f files rest
    | f :: rest -> go bench (files @ [ f ]) rest
    | [] -> (bench, files)
  in
  let bench, files = go "BENCHMARK.json" [] args in
  let a_path, b_path =
    match files with [ a; b ] -> (a, b) | _ -> die "usage: compare A.jsonl B.jsonl [--bench FILE]"
  in
  let specs = try fst (load_specs bench) with Failure e -> die "%s" e in
  let ra = runs a_path and rb = runs b_path in
  let workloads = List.sort_uniq compare (List.map fst ra) in
  Printf.printf "%-16s %-18s %34s %34s %6s  %s\n" "workload" "metric" "A median [q1, q3] spread"
    "B median [q1, q3] spread" "B won" "verdict";
  let worse = ref false in
  List.iter
    (fun w ->
      let side rs name =
        Array.of_list
          (List.filter_map (fun (w', ms) -> if w' = w then List.assoc_opt name ms else None) rs)
      in
      List.iter
        (fun (spec : spec) ->
          let a = side ra spec.name and b = side rb spec.name in
          if Array.length a > 0 && Array.length b > 0 then begin
            let a_side, b_side, share, v = verdict spec a b in
            if v = "worse" then worse := true;
            let cell (m, q1, q3, sp) =
              Printf.sprintf "%s [%s, %s] %4.1f%%" (num m) (num q1) (num q3) (100.0 *. sp)
            in
            Printf.printf "%-16s %-18s %34s %34s %5.0f%%  %s (bound %.0f%%)\n" w spec.name
              (cell a_side) (cell b_side) (100.0 *. share) v (100.0 *. spec.bound)
          end)
        specs)
    workloads;
  exit (if !worse then 1 else 0)
