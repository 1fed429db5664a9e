module Codec = Ode_base.Codec

type mode = Full_history | Committed

type t = {
  uid : int;
  expr : Expr.t;
  alphabet : Rewrite.t;
  masks : Mask.t array;
  compiled : Compile.t;
  mode : mode;
  has_formals : bool;
  eval_mask : Mask.env -> int -> bool;
}

type state = int array

let next_uid = ref 0

let build ~mode expr =
  let alphabet, lowered, masks = Rewrite.build expr in
  let compiled = Compile.compile ~m:(Rewrite.n_symbols alphabet) lowered in
  let has_formals =
    Array.exists
      (Array.exists (fun (g : Rewrite.guard) -> g.g_formals <> []))
      alphabet.Rewrite.guards
  in
  let uid = !next_uid in
  incr next_uid;
  (* built once, so a step hands [Compile.step] a closure it already
     has and allocates nothing *)
  let eval_mask env id = Mask.eval_bool env masks.(id) in
  { uid; expr; alphabet; masks; compiled; mode; has_formals; eval_mask }

(* Triggers with identical specifications can share one compiled detector
   (the paper compiles per class; sharing extends that across declarations).
   Opt-in because the result must not depend on the mutable compilation
   knobs ([Compile.minimization], [Rewrite.max_atoms]); the database layer,
   which never touches them, opts in. *)
let shared : (mode * Expr.t, t) Hashtbl.t = Hashtbl.create 32

let make ?(mode = Full_history) ?(share = false) expr =
  if not share then build ~mode expr
  else
    match Hashtbl.find_opt shared (mode, expr) with
    | Some t -> t
    | None ->
      let t = build ~mode expr in
      Hashtbl.add shared (mode, expr) t;
      t

let initial t = Compile.initial t.compiled
let n_state_words t = Compile.n_state_words t.compiled

let concerns t basic = Rewrite.concerns t.alphabet basic
let relevant_basics t = Rewrite.relevant_basics t.alphabet

let classify_code t ~env occurrence =
  Rewrite.classify_code t.alphabet ~env occurrence

let[@inline] code_relevant code = code >= 0 && Rewrite.code_bits code <> 0

let post_code t cells off ~env code =
  (* §5: the automaton is advanced only "for each active trigger for which
     a logical event has occurred". An occurrence matching none of this
     trigger's logical events is not part of its history at all — it must
     not break adjacency (sequence) or feed negations. *)
  let sym = Rewrite.sym_of_code t.alphabet code in
  if sym = Rewrite.other t.alphabet then false
  else Compile.step t.compiled cells off sym t.eval_mask env

let post t state ~env occurrence =
  post_code t state 0 ~env (classify_code t ~env occurrence)

let write_initial t cells off = Compile.write_initial t.compiled cells off

let collect_key_bits t key bits (occurrence : Symbol.occurrence) =
  let gs = t.alphabet.Rewrite.guards.(key) in
  let bindings = ref [] in
  Array.iteri
    (fun i (g : Rewrite.guard) ->
      if bits land (1 lsl i) <> 0 && g.g_formals <> [] then
        (* formals and args in lockstep; a matched guard with formals
           pins the arity, so the two lists have equal length *)
        let rec bind formals args =
          match formals, args with
          | (f : Expr.formal) :: fs, v :: vs ->
            bindings := (f.f_name, v) :: !bindings;
            bind fs vs
          | _, _ -> ()
        in
        bind g.g_formals occurrence.args)
    gs;
  List.rev !bindings

let collect_code t code (occurrence : Symbol.occurrence) =
  if (not t.has_formals) || not (code_relevant code) then []
  else
    collect_key_bits t (Rewrite.code_key code) (Rewrite.code_bits code)
      occurrence

let collect t ~env occurrence =
  collect_code t (classify_code t ~env occurrence) occurrence

let check_state t state =
  let c = t.compiled in
  let n = Array.length c.Compile.levels in
  if Array.length state <> n + 1 then
    raise (Codec.Corrupt "trigger state size mismatch (schema changed?)");
  Array.iteri
    (fun i q ->
      let dfa = if i < n then c.levels.(i).l_dfa else c.top_dfa in
      if q < 0 || q >= Dfa.n_states dfa then
        raise (Codec.Corrupt "trigger state word outside its automaton"))
    state

let encode_state t state =
  if Array.length state <> n_state_words t then
    invalid_arg "Detector.encode_state: size mismatch";
  let w = Codec.writer () in
  Codec.write_array w Codec.write_int state;
  Codec.contents w

let decode_state t s =
  let r = Codec.reader s in
  let state = Codec.read_array r Codec.read_int in
  check_state t state;
  state
