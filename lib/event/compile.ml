type level = {
  l_mask : int;
  l_deps : int array;
  l_dfa : Dfa.t;
  l_flat : int array option;
}

type t = {
  base_m : int;
  levels : level array;
  top_deps : int array;
  top_dfa : Dfa.t;
  flat : int array option;
}

(* ------------------------------------------------------------------ *)
(* Specialised DFA constructions                                      *)
(* ------------------------------------------------------------------ *)

let minimization = ref true

let minimize d = if !minimization then Dfa.minimize d else Dfa.reachable d

let counting (base : Dfa.t) cond =
  let accepts_count, bump =
    match cond with
    | `Exact n ->
      if n < 1 then invalid_arg "Compile.counting: n >= 1";
      ((fun c -> c = n), fun c -> min (c + 1) (n + 1))
    | `At_least n ->
      if n < 1 then invalid_arg "Compile.counting: n >= 1";
      ((fun c -> c >= n), fun c -> min (c + 1) n)
    | `Mod n ->
      if n < 1 then invalid_arg "Compile.counting: n >= 1";
      ((fun c -> c = 0), fun c -> (c + 1) mod n)
  in
  let m = base.Dfa.m in
  let index : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let rows = ref [] in
  let count = ref 0 in
  let rec visit (q, c) =
    match Hashtbl.find_opt index (q, c) with
    | Some i -> i
    | None ->
      let i = !count in
      incr count;
      Hashtbl.add index (q, c) i;
      let row = Array.make m 0 in
      rows := (i, (q, c), row) :: !rows;
      for s = 0 to m - 1 do
        let q' = base.delta.(q).(s) in
        let c' = if base.accept.(q') then bump c else c in
        row.(s) <- visit (q', c')
      done;
      i
  in
  let start = visit (base.start, 0) in
  let n = !count in
  let accept = Array.make n false in
  let delta = Array.make n [||] in
  List.iter
    (fun (i, (q, c), row) ->
      accept.(i) <- base.accept.(q) && accepts_count c;
      delta.(i) <- row)
    !rows;
  minimize { Dfa.m; start; accept; delta }

let first_match (f : Dfa.t) (g : Dfa.t) =
  if f.Dfa.m <> g.Dfa.m then invalid_arg "Compile.first_match: alphabet mismatch";
  let m = f.Dfa.m in
  let nf = Array.length f.accept in
  let ng = Array.length g.accept in
  (* State encoding: (qf, qg) live states, plus one dead sink. *)
  let dead = nf * ng in
  let n = dead + 1 in
  let accept = Array.make n false in
  let delta = Array.make n [||] in
  for qf = 0 to nf - 1 do
    for qg = 0 to ng - 1 do
      let id = (qf * ng) + qg in
      accept.(id) <- f.accept.(qf);
      delta.(id) <-
        (if f.accept.(qf) || g.accept.(qg) then Array.make m dead
         else Array.init m (fun s -> (f.delta.(qf).(s) * ng) + g.delta.(qg).(s)))
    done
  done;
  delta.(dead) <- Array.make m dead;
  minimize { Dfa.m; start = (f.start * ng) + g.start; accept; delta }

(* faAbs(a, b, g): nondeterministically guess the point where [a] occurs;
   from there run [b] on the suffix while [g] keeps running on the whole
   history; block once a stale phase-2 state accepts [b] or [g]. *)
let fa_abs_nfa (a : Dfa.t) (b : Dfa.t) (g : Dfa.t) : Nfa.t =
  let m = a.Dfa.m in
  if b.Dfa.m <> m || g.Dfa.m <> m then invalid_arg "Compile.fa_abs: alphabet mismatch";
  let na = Array.length a.accept in
  let nb = Array.length b.accept in
  let ng = Array.length g.accept in
  let id1 qa qg = (qa * ng) + qg in
  let id2 qb qg fresh =
    (na * ng) + (if fresh then 0 else nb * ng) + (qb * ng) + qg
  in
  let n = (na * ng) + (2 * nb * ng) in
  let accept = Array.make n false in
  let delta = Array.init n (fun _ -> Array.make m []) in
  let eps = Array.make n [] in
  for qa = 0 to na - 1 do
    for qg = 0 to ng - 1 do
      let id = id1 qa qg in
      for s = 0 to m - 1 do
        delta.(id).(s) <- [ id1 a.delta.(qa).(s) g.delta.(qg).(s) ]
      done;
      if a.accept.(qa) then eps.(id) <- [ id2 b.start qg true ]
    done
  done;
  for qb = 0 to nb - 1 do
    for qg = 0 to ng - 1 do
      let fresh_id = id2 qb qg true in
      let stale_id = id2 qb qg false in
      for s = 0 to m - 1 do
        let succ = [ id2 b.delta.(qb).(s) g.delta.(qg).(s) false ] in
        delta.(fresh_id).(s) <- succ;
        if not (b.accept.(qb) || g.accept.(qg)) then delta.(stale_id).(s) <- succ
      done;
      accept.(stale_id) <- b.accept.(qb)
    done
  done;
  { Nfa.m; start = [ id1 a.start g.start ]; accept; delta; eps }

(* ------------------------------------------------------------------ *)
(* Core compiler over an internal mask-free AST                        *)
(* ------------------------------------------------------------------ *)

type flat =
  | F_false
  | F_sel of bool array
  | F_or of flat * flat
  | F_and of flat * flat
  | F_not of flat
  | F_relative of flat * flat
  | F_relative_plus of flat
  | F_relative_n of int * flat
  | F_prior of flat * flat
  | F_prior_n of int * flat
  | F_sequence of flat * flat
  | F_sequence_n of int * flat
  | F_choose of int * flat
  | F_every of int * flat
  | F_fa of flat * flat * flat
  | F_fa_abs of flat * flat * flat

let rec compile_flat ~m (e : flat) : Dfa.t =
  let dfa = function e -> compile_flat ~m e in
  let nfa e = Nfa.of_dfa (dfa e) in
  let det x = minimize (Nfa.determinize x) in
  match e with
  | F_false -> Dfa.empty ~m
  | F_sel sel ->
    if Array.length sel <> m then invalid_arg "Compile: selector length mismatch";
    Dfa.leaf ~m (fun c -> sel.(c))
  | F_or (a, b) -> minimize (Dfa.union (dfa a) (dfa b))
  | F_and (a, b) -> minimize (Dfa.inter (dfa a) (dfa b))
  | F_not a -> minimize (Dfa.complement (dfa a))
  | F_relative (a, b) -> det (Nfa.concat (nfa a) (nfa b))
  | F_relative_plus a -> det (Nfa.plus (nfa a))
  | F_relative_n (n, a) ->
    let na = nfa a in
    if n = 1 then det (Nfa.plus na)
    else det (Nfa.concat (Nfa.power na (n - 1)) (Nfa.plus na))
  | F_prior (a, b) ->
    let before = det (Nfa.concat (nfa a) (Nfa.any_plus ~m)) in
    minimize (Dfa.inter before (dfa b))
  | F_prior_n (n, a) -> counting (dfa a) (`At_least n)
  | F_sequence (a, b) ->
    let shifted = det (Nfa.concat (nfa a) (Nfa.any_word ~m 1)) in
    minimize (Dfa.inter shifted (dfa b))
  | F_sequence_n (n, a) ->
    let da = dfa a in
    let shift d = det (Nfa.concat (Nfa.of_dfa d) (Nfa.any_word ~m 1)) in
    let acc = ref da in
    let cur = ref da in
    for _i = 1 to n - 1 do
      cur := shift !cur;
      acc := minimize (Dfa.inter !acc !cur)
    done;
    !acc
  | F_choose (n, a) -> counting (dfa a) (`Exact n)
  | F_every (n, a) -> counting (dfa a) (`Mod n)
  | F_fa (a, b, g) -> det (Nfa.concat (nfa a) (Nfa.of_dfa (first_match (dfa b) (dfa g))))
  | F_fa_abs (a, b, g) -> det (fa_abs_nfa (dfa a) (dfa b) (dfa g))

(* ------------------------------------------------------------------ *)
(* Hierarchical flattening of Masked nodes                             *)
(* ------------------------------------------------------------------ *)

let max_deps = 16

(* [step] carries the levels' derived-event bits in one int. *)
let max_levels = 62

(* Extract levels innermost-first. Returns the list of
   (mask_id, expression-with-derived-leaves) plus the top expression. *)
let flatten (e : Lowered.t) =
  let levels = ref [] in
  let n_levels = ref 0 in
  (* Rebuild the expression with Masked nodes replaced by a fresh
     selector-style leaf. We represent a derived reference as a negative
     pseudo-symbol via a custom flat leaf later, so here we produce a
     hybrid tree directly in terms of [flat] once the extended alphabet is
     known. Instead we first collect per-level Lowered-like trees where a
     special encoding marks derived leaves. *)
  let rec strip (e : Lowered.t) : Lowered.t =
    match e with
    | False | Atom _ -> e
    | Or (a, b) -> Or (strip a, strip b)
    | And (a, b) -> And (strip a, strip b)
    | Not a -> Not (strip a)
    | Relative (a, b) -> Relative (strip a, strip b)
    | Relative_plus a -> Relative_plus (strip a)
    | Relative_n (n, a) -> Relative_n (n, strip a)
    | Prior (a, b) -> Prior (strip a, strip b)
    | Prior_n (n, a) -> Prior_n (n, strip a)
    | Sequence (a, b) -> Sequence (strip a, strip b)
    | Sequence_n (n, a) -> Sequence_n (n, strip a)
    | Choose (n, a) -> Choose (n, strip a)
    | Every (n, a) -> Every (n, strip a)
    | Fa (a, b, g) -> Fa (strip a, strip b, strip g)
    | Fa_abs (a, b, g) -> Fa_abs (strip a, strip b, strip g)
    | Masked (a, mask_id) ->
      let body = strip a in
      let idx = !n_levels in
      incr n_levels;
      levels := (mask_id, body) :: !levels;
      (* Re-use Masked as the derived marker: mask_id field now holds the
         level index, and the body is [False] to mark it as a leaf. *)
      Masked (False, idx)
  in
  let top = strip e in
  (List.rev !levels, top)

let derived_refs (e : Lowered.t) =
  let refs =
    Lowered.fold
      (fun acc n -> match n with Lowered.Masked (False, idx) -> idx :: acc | _ -> acc)
      [] e
  in
  List.sort_uniq compare refs

(* Translate a stripped tree into [flat] over the extended alphabet
   [m * 2^|deps|]. *)
let to_flat ~m ~deps (e : Lowered.t) : flat =
  let d = Array.length deps in
  let width = 1 lsl d in
  let m_ext = m * width in
  let local_of_idx idx =
    let rec find i = if deps.(i) = idx then i else find (i + 1) in
    find 0
  in
  let rec go (e : Lowered.t) : flat =
    match e with
    | False -> F_false
    | Atom sel -> F_sel (Array.init m_ext (fun s -> sel.(s / width)))
    | Masked (False, idx) ->
      let j = local_of_idx idx in
      F_sel (Array.init m_ext (fun s -> s land (1 lsl j) <> 0))
    | Masked (_, _) -> assert false (* flatten removed real Masked nodes *)
    | Or (a, b) -> F_or (go a, go b)
    | And (a, b) -> F_and (go a, go b)
    | Not a -> F_not (go a)
    | Relative (a, b) -> F_relative (go a, go b)
    | Relative_plus a -> F_relative_plus (go a)
    | Relative_n (n, a) -> F_relative_n (n, go a)
    | Prior (a, b) -> F_prior (go a, go b)
    | Prior_n (n, a) -> F_prior_n (n, go a)
    | Sequence (a, b) -> F_sequence (go a, go b)
    | Sequence_n (n, a) -> F_sequence_n (n, go a)
    | Choose (n, a) -> F_choose (n, go a)
    | Every (n, a) -> F_every (n, go a)
    | Fa (a, b, g) -> F_fa (go a, go b, go g)
    | Fa_abs (a, b, g) -> F_fa_abs (go a, go b, go g)
  in
  go e

(* Every automaton level additionally gets a row-major packed transition
   table over its own (extended) alphabet: cell [q * m_ext + sym] holds
   [(q' lsl 1) lor accept q'], so the hot-path step is one load, one
   shift and one bit test per level — the paper's "one transition-table
   lookup per posted event", generalized to the hierarchical stack.
   Capped so a pathological automaton cannot pin megabytes per
   detector; the cap is one shared budget across the whole stack. *)
let flat_cells_limit = 1 lsl 22

let flatten_dfa (d : Dfa.t) =
  let n = Array.length d.accept in
  if n * d.m > flat_cells_limit then None
  else begin
    let f = Array.make (n * d.m) 0 in
    for q = 0 to n - 1 do
      let row = d.delta.(q) in
      for s = 0 to d.m - 1 do
        let q' = row.(s) in
        f.((q * d.m) + s) <- (q' lsl 1) lor Bool.to_int d.accept.(q')
      done
    done;
    Some f
  end

let compile ~m (e : Lowered.t) : t =
  if m < 1 then invalid_arg "Compile.compile: alphabet must be non-empty";
  let level_specs, top = flatten e in
  if List.length level_specs > max_levels then
    invalid_arg "Compile.compile: more than 62 composite-mask levels";
  let build_level body =
    let deps = Array.of_list (derived_refs body) in
    if Array.length deps > max_deps then
      invalid_arg "Compile.compile: too many nested composite masks";
    let dfa = compile_flat ~m:(m * (1 lsl Array.length deps)) (to_flat ~m ~deps body) in
    (deps, dfa)
  in
  (* one flat-cell budget per detector, shared by the whole level stack *)
  let budget = ref flat_cells_limit in
  let flatten_within (d : Dfa.t) =
    let cells = Array.length d.accept * d.m in
    if cells > !budget then None
    else begin
      budget := !budget - cells;
      flatten_dfa d
    end
  in
  let levels =
    List.map
      (fun (mask_id, body) ->
        let deps, dfa = build_level body in
        { l_mask = mask_id; l_deps = deps; l_dfa = dfa;
          l_flat = flatten_within dfa })
      level_specs
  in
  let top_deps, top_dfa = build_level top in
  let flat = flatten_within top_dfa in
  { base_m = m; levels = Array.of_list levels; top_deps; top_dfa; flat }

let compile_pure ~m (e : Lowered.t) : Dfa.t =
  let c = compile ~m e in
  if Array.length c.levels > 0 then
    invalid_arg "Compile.compile_pure: expression has composite masks";
  c.top_dfa

let n_state_words t = Array.length t.levels + 1

let total_dfa_states t =
  Array.fold_left
    (fun acc l -> acc + Dfa.n_states l.l_dfa)
    (Dfa.n_states t.top_dfa) t.levels

type state = int array

let write_initial t cells off =
  let n = Array.length t.levels in
  for i = 0 to n - 1 do
    cells.(off + i) <- t.levels.(i).l_dfa.start
  done;
  cells.(off + n) <- t.top_dfa.start

let initial t =
  let state = Array.make (n_state_words t) 0 in
  write_initial t state 0;
  state

(* Derived-event bits carried as one int ([compile] caps the stack at
   62 levels): bit [i] of [fired_bits] is "level [i] accepted, mask
   true"; this maps a level's dependencies to its local extension bits. *)
let rec ext_bits deps fired_bits j acc =
  if j >= Array.length deps then acc
  else
    let acc =
      if fired_bits land (1 lsl deps.(j)) <> 0 then acc lor (1 lsl j) else acc
    in
    ext_bits deps fired_bits (j + 1) acc

(* Advance one level's word at [cells.(k)] on its extended symbol and
   report whether the level accepts: one load from the packed table
   when the level has one, the [Dfa] row otherwise. *)
let[@inline] advance flat (dfa : Dfa.t) cells k sym =
  match flat with
  | Some f ->
    let cell = f.((cells.(k) * dfa.m) + sym) in
    cells.(k) <- cell lsr 1;
    cell land 1 = 1
  | None ->
    let q = dfa.delta.(cells.(k)).(sym) in
    cells.(k) <- q;
    dfa.accept.(q)

let rec step_levels t cells off base_sym eval arg i fired_bits =
  if i < Array.length t.levels then begin
    let level = t.levels.(i) in
    let sym =
      (base_sym lsl Array.length level.l_deps)
      lor ext_bits level.l_deps fired_bits 0 0
    in
    let fired_bits =
      if advance level.l_flat level.l_dfa cells (off + i) sym
         && eval arg level.l_mask
      then fired_bits lor (1 lsl i)
      else fired_bits
    in
    step_levels t cells off base_sym eval arg (i + 1) fired_bits
  end
  else
    let sym =
      (base_sym lsl Array.length t.top_deps) lor ext_bits t.top_deps fired_bits 0 0
    in
    advance t.flat t.top_dfa cells (off + i) sym

let step t cells off base_sym eval arg =
  match t.flat with
  | Some f when Array.length t.levels = 0 ->
    (* mask-free and packed: the paper's one table load per event *)
    let cell = f.((cells.(off) * t.base_m) + base_sym) in
    cells.(off) <- cell lsr 1;
    cell land 1 = 1
  | Some _ | None -> step_levels t cells off base_sym eval arg 0 0

let run t ~mask history =
  let state = initial t in
  let eval p id = mask id p in
  Array.mapi
    (fun p sym ->
      if sym < 0 || sym >= t.base_m then invalid_arg "Compile.run: bad symbol";
      step t state 0 sym eval p)
    history
