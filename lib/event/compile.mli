(** Compilation of event expressions to finite automata (paper §5).

    A mask-free expression compiles to a single minimized DFA over the
    disjoint-atom alphabet; the detection state is then exactly one
    integer — the paper's "one word per active trigger per object".

    Expressions with composite masks ([Lowered.Masked]) compile to a small
    stack of {e hierarchical} automata: each masked subexpression gets its
    own DFA, and its mask-filtered acceptance becomes a {e derived symbol}
    in the alphabet of the automata above it (base atoms × derived-bit
    subsets). Detection state is one integer per level. *)

type level = {
  l_mask : int;  (** mask-table index filtering this level's acceptance *)
  l_deps : int array;
      (** derived events this level's expression references (indices of
          lower levels), ascending *)
  l_dfa : Dfa.t;  (** over the extended alphabet [m * 2^|l_deps|] *)
  l_flat : int array option;
      (** this level's row-major packed transition table over its
          extended alphabet; [None] when the stack blew the shared cell
          budget, and {!step} then reads [l_dfa]'s rows *)
}

type t = {
  base_m : int;  (** atom alphabet size, including "other" *)
  levels : level array;
      (** innermost first; one per [Masked] node, at most 62 *)
  top_deps : int array;
  top_dfa : Dfa.t;
  flat : int array option;
      (** the top automaton's row-major packed transition table over
          its extended alphabet [base_m * 2^|top_deps|]. Cell
          [q * m_ext + sym] holds [(q' lsl 1) lor accept(q')], so a
          step is one array load per level. [None] when the table would
          exceed the detector's shared cell budget. *)
}

val minimization : bool ref
(** Minimize intermediate automata during compilation (default [true]).
    Exposed for the E10 ablation benchmark; leave on in production. *)

val compile : m:int -> Lowered.t -> t
(** [m] must match the selectors' length in the expression's [Atom]s.
    Raises [Invalid_argument] when a level references more than 16 lower
    levels or the expression has more than 62 [Masked] nodes. *)

val compile_pure : m:int -> Lowered.t -> Dfa.t
(** Single-automaton compilation; raises [Invalid_argument] if the
    expression contains [Masked] nodes. *)

val n_state_words : t -> int
(** Integers of per-object detection state (levels + 1). *)

val total_dfa_states : t -> int

type state = int array

val initial : t -> state

val write_initial : t -> int array -> int -> unit
(** [write_initial t cells off] writes the initial state vector
    ([n_state_words t] words — level starts, then the top start) into
    [cells] at [off]. *)

val step : t -> int array -> int -> int -> ('a -> int -> bool) -> 'a -> bool
(** [step t cells off sym eval arg] advances the [n_state_words t]-word
    state vector held at [cells.(off ..)] in place on the base symbol
    [sym] and returns whether the top-level event occurs at this point.
    Levels run innermost first, each on [sym] extended with the bits of
    the lower levels it references; a level advances through its packed
    table when it has one and through its [Dfa] rows otherwise.
    [eval arg mask_id] is consulted only when a level accepts, and
    decides whether that level's derived event occurs. A word vector
    from {!initial} is [off = 0]; the database packs the vectors of all
    activations sharing a detector into one int array. With a closure
    [eval] built once and passed [arg] (the detector passes its mask
    table's evaluator and the mask environment) a step allocates
    nothing. [sym] must lie in
    [0 .. base_m - 1]. *)

val run : t -> mask:(int -> int -> bool) -> int array -> bool array
(** Run over a whole history; [mask mask_id position]. Fresh state.
    Raises [Invalid_argument] on a symbol outside the alphabet. *)

(** Building blocks, exposed for tests and for {!Committed}: *)

val counting :
  Dfa.t -> [ `Exact of int | `At_least of int | `Mod of int ] -> Dfa.t
(** Counting construction: occurrences of the argument language are
    numbered 1, 2, …; accept those whose index matches the condition. *)

val first_match : Dfa.t -> Dfa.t -> Dfa.t
(** [first_match f g] accepts the words of [L(f)] none of whose proper
    nonempty prefixes lie in [L(f) ∪ L(g)] — the core of [fa]. *)
