(** Runtime event detection for one trigger definition (paper §5).

    A detector is compiled once per trigger {e definition} — in an
    object-oriented system all objects of a class share it, exactly as the
    paper stores one transition table per class. Each activated trigger on
    each object then carries only the automaton state: a single integer
    per automaton level (one, for mask-free-composite triggers). *)

type mode =
  | Full_history
      (** aborted transactions' events remain in the history; the
          detection state is {e not} rolled back on abort *)
  | Committed
      (** the history contains only committed work; the database layer
          restores the detection state from its undo log on abort (§6's
          "state is part of the object" option) *)

type t = {
  uid : int;
      (** process-unique detector identity, assigned at compilation;
          shared detectors share it — the database keys its
          structure-of-arrays state blocks on this *)
  expr : Expr.t;
  alphabet : Rewrite.t;
  masks : Mask.t array;  (** composite-mask table *)
  compiled : Compile.t;
  mode : mode;
  has_formals : bool;
      (** precomputed: does any logical event declare formals? When
          false, {!collect} can never bind anything and is skipped. *)
  eval_mask : Mask.env -> int -> bool;
      (** [eval_mask env id] evaluates composite mask [masks.(id)] in
          [env]; built once, it is the evaluator every {!post_code}
          hands {!Compile.step} *)
}

type state = int array

val make : ?mode:mode -> ?share:bool -> Expr.t -> t
(** Compile a trigger event specification. Raises [Invalid_argument] on
    invalid expressions (see {!Expr.validate}) or §5 atom blowup beyond
    {!Rewrite.max_atoms}. Default mode is [Full_history].

    With [~share:true], structurally identical [(mode, expr)] pairs
    return one physically shared (immutable) detector, so the database's
    per-occurrence classification cache classifies once for all triggers
    declaring the same event. Sharing memoizes across the process: only
    opt in when the compilation knobs ([Compile.minimization],
    [Rewrite.max_atoms]) are at their defaults. *)

val initial : t -> state
val n_state_words : t -> int

val post : t -> state -> env:Mask.env -> Symbol.occurrence -> bool
(** Classify the occurrence against the trigger's logical events (basic
    event kind, arity, masks — evaluated in [env] with the occurrence's
    arguments bound), advance the automaton stack, and report whether the
    trigger event occurred at this point. Composite masks are evaluated
    against [env] "now". [state] is updated in place.

    Per §5, a trigger's history contains only its {e own} logical events:
    an occurrence that matches none of them leaves the state untouched
    (it does not break [sequence] adjacency and is invisible to [!]).
    This is what makes the paper's T8 — "a deposit immediately followed
    by a withdrawal" — detectable even though every method call also
    posts access/update events. *)

(** {2 Dispatch relevance and split classification}

    The database's hot path posts each occurrence to many triggers. These
    entry points let it (a) index triggers by the basic events they can
    react to, and (b) classify an occurrence once — into one packed int
    ({!Rewrite.classify_code}), so a batch classifies into a scratch int
    buffer with zero allocation — and reuse the result for the automaton
    step, the §9 parameter collection, and the undo-logging decision.
    {!post} and {!collect} are exactly these entry points composed. *)

val concerns : t -> Symbol.basic -> bool
(** Can an occurrence of this basic event ever advance this detector?
    O(1); false means {!post} is guaranteed to return [false] and leave
    the state untouched. *)

val relevant_basics : t -> Symbol.basic_key list
(** Dispatch keys of the detector's alphabet — see
    {!Rewrite.relevant_basics}. *)

val classify_code : t -> env:Mask.env -> Symbol.occurrence -> int
(** Evaluate the occurrence against the detector's guards once: [-1]
    when its basic event is foreign to the alphabet, otherwise the
    alphabet key and the guard truth-assignment bits packed into one
    int. Mask evaluation errors propagate as {!Mask.Eval_error}. *)

val code_relevant : int -> bool
(** Did the occurrence match at least one of the detector's logical
    events? When false, stepping is a no-op and collection binds
    nothing — callers may skip undo logging (state provably unchanged). *)

val post_code : t -> int array -> int -> env:Mask.env -> int -> bool
(** [post_code t cells off ~env code] is the automaton-stepping half of
    {!post}, given a prior {!classify_code} result: it advances the
    [n_state_words t]-word state vector stored at [cells.(off ..)] in
    place — a vector from {!initial} is [off = 0], an activation's slot
    in the database's structure-of-arrays block is [slot * width] — and
    reports whether the trigger event occurred. Composite masks are
    evaluated in [env] "now", only when their level accepts.
    Allocation-free. *)

val collect_code :
  t -> int -> Symbol.occurrence -> (string * Ode_base.Value.t) list
(** The collection half of {!collect}, given a prior {!classify_code}
    result: no guard mask is re-evaluated; formals and arguments are
    walked in lockstep. *)

val write_initial : t -> int array -> int -> unit
(** [write_initial t cells off] writes the detector's initial
    [n_state_words t]-word state vector into [cells] at [off]. *)

val collect :
  t -> env:Mask.env -> Symbol.occurrence -> (string * Ode_base.Value.t) list
(** Parameter collection — the paper's §9 future-work item "incorporation
    of arguments into composite event specification". For each of this
    trigger's logical events that the occurrence matches and that declares
    formals, bind the formal names to the occurrence's arguments. The
    database layer accumulates these bindings per activation
    (latest-occurrence-wins) and hands them to the action when the
    composite event fires. *)

val check_state : t -> state -> unit
(** Raise [Ode_base.Codec.Corrupt] unless the vector has
    [n_state_words t] words and each lies in its level's DFA state
    range — a word outside it would send the next step out of the
    transition table. *)

val encode_state : t -> state -> string
val decode_state : t -> string -> state
(** Persistence of per-object trigger state. [decode_state] raises
    [Ode_base.Codec.Corrupt] on malformed input or a vector
    {!check_state} rejects. *)
