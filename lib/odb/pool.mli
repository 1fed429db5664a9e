(** A fixed-size pool of OCaml 5 domains for the parallel classify/step
    phase of batch posting ({!Engine.post_many}).

    The pool runs one job at a time through a reusable barrier: a job
    is published by bumping a generation counter that idle workers spin
    on (parking on a condition variable once a short budget runs out),
    and completion is a lock-free countdown the caller awaits the same
    way. Publishing a batch therefore costs a couple of atomic
    transitions when the pool is hot, instead of a mutex broadcast and
    a condvar wake per worker per batch.

    Distribution is static: participant [w] of [size] owns the strided
    subset [w, w + size, ...]. The task → participant map is a pure
    function of the pool size, so repeated jobs over the same index
    space pin each task to the same domain — the engine uses this to
    keep each partition member (and its scratch state) on one domain
    across batches.

    The pool is {e not} reentrant: tasks must not call {!run_static}
    on the pool executing them, and only one thread may orchestrate a
    pool at a time. The engine satisfies both by construction — the posting
    pipeline has a single sequential orchestrator and the parallel
    phase never posts. *)

type t

val create : size:int -> t
(** [create ~size] spawns [size - 1] worker domains (the caller is the
    [size]-th participant). [size] is clamped below at 1; a size-1 pool
    spawns nothing and {!run_static} degenerates to an inline loop,
    which is also the no-allocation path [post_many] takes on a
    1-domain run.
    Raises [Invalid_argument] beyond 128 (the runtime's domain ceiling
    must be shared with the rest of the process). *)

val size : t -> int

val run_static : t -> tasks:int -> (int -> unit) -> unit
(** [run_static t ~tasks f] executes [f 0 .. f (tasks-1)], each exactly
    once, and blocks until all have completed: participant [w] executes
    exactly the tasks [i] with [i mod size = w], the caller being
    participant [size - 1]. If one or more tasks raise, every remaining
    task still runs (partial effects must stay mergeable) and then the
    first-recorded exception is re-raised in the caller. *)

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent; the pool must not be
    run afterwards. *)
