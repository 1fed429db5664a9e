(* A one-job-at-a-time domain pool built around a reusable barrier.

   Workers are spawned once and kept; a job is published by bumping the
   [generation] atomic, and workers notice it by spinning briefly on
   that atomic before falling back to parking on [work_ready] — so a
   batch-per-millisecond caller pays two atomic transitions per batch
   instead of a mutex broadcast and a condvar sleep/wake per worker.
   Completion is a countdown on [pending]: the caller spins briefly,
   then parks on [work_done], which only the last finishing worker
   signals (one mutex acquisition per batch, off the hot path).

   Work distribution is static: participant [w] of [size] owns tasks
   [w, w + size, ...]. With tasks = partition members, the member ->
   domain map is a pure function of the pool size, so every batch pins
   the same members (and their scratch buffers) to the same domain — no
   work-stealing migrates a member's state across domains mid-run. *)

type t = {
  size : int;  (* parallelism including the calling thread *)
  mutable workers : unit Domain.t list;  (* size - 1 spawned domains *)
  mu : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : (int -> unit) option;
  mutable n_tasks : int;
  generation : int Atomic.t;  (* bumped once per run; spun on *)
  pending : int Atomic.t;  (* workers still inside the current job *)
  sleepers : int Atomic.t;  (* workers parked on [work_ready] *)
  stop : bool Atomic.t;
  mutable failure : exn option;  (* first exception raised by a task *)
}

let size t = t.size

(* How long a participant polls an atomic before parking on a condvar.
   Long enough to cover the fan-out/fan-in of a typical batch when
   every participant has a core; short enough that an oversubscribed
   box (more domains than cores) quickly yields the CPU to whoever
   holds the work. *)
let spin_budget = 512

let record_failure t e =
  Mutex.lock t.mu;
  if t.failure = None then t.failure <- Some e;
  Mutex.unlock t.mu

(* Participant [w] runs its own strided subset. A raising task records
   the first failure and the chunk continues: sibling tasks' effects
   (undo segments, counters) must still be produced so the caller can
   merge them before re-raising. *)
let run_chunk t f w =
  let i = ref w in
  while !i < t.n_tasks do
    (try f !i with e -> record_failure t e);
    i := !i + t.size
  done

(* Spin until the generation moves past [seen] (or the pool stops);
   false = budget exhausted, caller should park. *)
let rec spin_for_job t seen budget =
  if Atomic.get t.generation <> seen || Atomic.get t.stop then true
  else if budget = 0 then false
  else begin
    Domain.cpu_relax ();
    spin_for_job t seen (budget - 1)
  end

let worker t w () =
  let rec loop seen =
    if not (spin_for_job t seen spin_budget) then begin
      Mutex.lock t.mu;
      Atomic.incr t.sleepers;
      while Atomic.get t.generation = seen && not (Atomic.get t.stop) do
        Condition.wait t.work_ready t.mu
      done;
      Atomic.decr t.sleepers;
      Mutex.unlock t.mu
    end;
    if not (Atomic.get t.stop) then begin
      let gen = Atomic.get t.generation in
      (* the job fields were written before the generation bump; the
         atomic read above orders these plain reads after them *)
      (match t.job with
      | Some f -> run_chunk t f w
      | None -> ());
      if Atomic.fetch_and_add t.pending (-1) = 1 then begin
        (* last finisher: the caller may already be parked on
           [work_done] — one mutex round-trip per batch, not per task *)
        Mutex.lock t.mu;
        Condition.broadcast t.work_done;
        Mutex.unlock t.mu
      end;
      loop gen
    end
  in
  loop 0

let create ~size =
  let size = max 1 size in
  if size > 128 then invalid_arg "Pool.create: size beyond the domain ceiling";
  let t =
    {
      size;
      workers = [];
      mu = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      n_tasks = 0;
      generation = Atomic.make 0;
      pending = Atomic.make 0;
      sleepers = Atomic.make 0;
      stop = Atomic.make false;
      failure = None;
    }
  in
  t.workers <- List.init (size - 1) (fun w -> Domain.spawn (worker t w));
  t

(* Wait for the workers' countdown: spin first, park only if they are
   slow (descheduled, or the box has fewer cores than domains). *)
let rec await_pending t budget =
  if Atomic.get t.pending > 0 then
    if budget > 0 then begin
      Domain.cpu_relax ();
      await_pending t (budget - 1)
    end
    else begin
      Mutex.lock t.mu;
      while Atomic.get t.pending > 0 do
        Condition.wait t.work_done t.mu
      done;
      Mutex.unlock t.mu
    end

let run_static t ~tasks f =
  if tasks > 0 then
    if t.size = 1 || tasks = 1 then begin
      (* inline fast path: same failure contract, no synchronisation *)
      t.failure <- None;
      t.n_tasks <- tasks;
      run_chunk t f 0;
      match t.failure with None -> () | Some e -> raise e
    end
    else begin
      if Atomic.get t.stop then invalid_arg "Pool.run_static: pool is shut down";
      t.job <- Some f;
      t.n_tasks <- tasks;
      t.failure <- None;
      Atomic.set t.pending (t.size - 1);
      (* publish: the generation bump makes the plain writes above
         visible to any worker that observes it *)
      Atomic.incr t.generation;
      if Atomic.get t.sleepers > 0 then begin
        (* a worker racing into its park re-checks the generation under
           the condvar's guard, so a missed broadcast here is benign *)
        Mutex.lock t.mu;
        Condition.broadcast t.work_ready;
        Mutex.unlock t.mu
      end;
      (* the caller is participant [size - 1] *)
      run_chunk t f (t.size - 1);
      await_pending t spin_budget;
      t.job <- None;
      match t.failure with None -> () | Some e -> raise e
    end

let shutdown t =
  Mutex.lock t.mu;
  let ws = t.workers in
  t.workers <- [];
  Atomic.set t.stop true;
  (* wake spinners (generation moved) and sleepers (broadcast) alike *)
  Atomic.incr t.generation;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mu;
  List.iter Domain.join ws
