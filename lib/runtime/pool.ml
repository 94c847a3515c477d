(** The enhanced fork-join execution model of §III-C, from SAC [14].

    A naive translation spawns and destroys threads around every parallel
    with-loop and "pays the price of creating and destroying threads each
    time".  Instead, the runtime spawns the necessary number of workers
    {i once} at program start and parks them in a spin lock; when the main
    thread reaches a parallel construct it "flips the condition that keeps
    the threads spinning, which releases all of them at once", each worker
    runs its share, passes through a {i stop barrier} and goes straight
    back to spinning; the main thread waits in the stop barrier until all
    workers are done.

    Workers are OCaml 5 domains (real parallelism).  The spin loops use
    [Domain.cpu_relax] with a sleep back-off so the model remains usable on
    machines with fewer cores than workers (such as 1-core CI containers —
    the spin never starves the worker that must make progress).

    {!naive_run} implements the fork-join-per-region model as the
    benchmark baseline the paper argues against.

    {2 Crash containment}

    A worker exception does not poison the pool.  Raw {!run} collects
    {e every} thread's exception (not just the first): the first is
    re-raised at the stop barrier with its original backtrace, the rest
    are counted ([pool.suppressed_exns]).  The chunked entry point
    {!parallel_for} goes further: a chunk that raises a recoverable exception is {e recorded}
    — its range, exception and backtrace — while surviving workers
    finish their own chunks; the dispatcher then re-executes the failed
    ranges inline on the calling thread (a transient fault, e.g. an
    injected one, succeeds on retry).  Chunk retry relies on the
    with-loop generator's disjointness guarantee (§III-A4): chunk bodies
    write disjoint elements, so re-execution is idempotent.

    Each recovered fault charges the pool's {e fault budget}; exceeding
    it flips the pool into {e degraded mode} ([pool.degraded] counter,
    {!on_degrade} warning): every subsequent region executes
    sequentially inline, so the program still completes — correctly,
    just without speedup.  The pool remains usable after any exception,
    recovered or re-raised.  {!Limits} deadlines and byte caps are
    probed at every chunk boundary and are deliberately {e not}
    recoverable: they re-raise at the barrier so the run aborts. *)

type job = { fn : int -> int -> unit (* worker_index n_workers -> unit *) }

type t = {
  n_workers : int;  (** helper domains; the main thread also works *)
  generation : int Atomic.t;  (** bumped to release the spinners *)
  job : job option Atomic.t;
  done_count : int Atomic.t;
  shutdown : bool Atomic.t;
  in_region : bool Atomic.t;
      (** a region is currently executing; a nested [run] (a parallel
          loop dispatched from inside a worker's share) executes inline on
          the calling thread instead of corrupting the single job slot *)
  failures : (exn * Printexc.raw_backtrace) list Atomic.t;
      (** every exception raised by a thread's share of the current job
          (newest first), each with the raising thread's backtrace; the
          earliest is re-raised on the main thread at the stop barrier,
          the rest are counted as suppressed *)
  degraded : bool Atomic.t;
      (** sequential-fallback mode: set when recovered chunk faults
          exceed the fault budget; every later region runs inline *)
  faults : int Atomic.t;  (** recovered chunk faults over the pool's life *)
  mutable fault_budget : int;
      (** recovered faults tolerated before degrading (default 3, or
          [MMC_FAULT_BUDGET]); budget 0 degrades on the first fault *)
  busy : Support.Telemetry.counter array;
      (** per-thread busy nanoseconds (slot 0 = main thread's share) *)
  mutable domains : unit Domain.t array;
}

(* Pool telemetry (§III-C observability).  Every probe is behind the
   telemetry enabled flag, so the disabled hot path pays one atomic load
   per region/wakeup — nothing per spin iteration. *)
let c_jobs = Support.Telemetry.counter "pool.jobs_dispatched"
let c_spin_wakeups = Support.Telemetry.counter "pool.wakeups_spin"
let c_sleep_wakeups = Support.Telemetry.counter "pool.wakeups_sleep"
let c_barrier_ns = Support.Telemetry.counter "pool.barrier_wait_ns"
let c_exceptions = Support.Telemetry.counter "pool.job_exceptions"
let c_chunks = Support.Telemetry.counter "pool.chunks_dispatched"
let c_nested = Support.Telemetry.counter "pool.nested_inline_runs"
let c_suppressed = Support.Telemetry.counter "pool.suppressed_exns"
let c_chunk_faults = Support.Telemetry.counter "pool.chunk_faults"
let c_retries = Support.Telemetry.counter "pool.chunk_retries"
let c_degraded = Support.Telemetry.counter "pool.degraded"

(* Fault-injection sites (armed via MMC_FAILPOINTS / --failpoints): a
   region dispatch on the calling thread, and a chunk execution inside a
   worker's share. *)
let fp_dispatch = Support.Failpoint.register "pool.dispatch"
let fp_worker_body = Support.Failpoint.register "pool.worker_body"

(* Resource-limit violations abort the run: containment must not retry
   them (a deadline already passed stays passed), so they re-raise at the
   stop barrier like any uncontained exception. *)
let recoverable = function Limits.Resource_limit _ -> false | _ -> true

let rec push_atomic cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (x :: old)) then push_atomic cell x

(** Called once when a pool flips into sequential-fallback mode, with a
    human-readable reason — the degradation warning diagnostic.  Replace
    to route into a diagnostics stream (tests silence it). *)
let on_degrade : (string -> unit) ref =
  ref (fun msg -> Printf.eprintf "mmc: warning: %s\n%!" msg)

(* Spin with progressive back-off: pure spinning briefly (the fast path the
   enhanced fork-join model is built for), then yield to the OS so
   oversubscribed machines still progress.  Returns whether the wait ever
   fell back to sleeping, so wakeups can be classified spin-vs-sleep. *)
let spin_until pred =
  let spins = ref 0 in
  let slept = ref false in
  while not (pred ()) do
    incr spins;
    if !spins < 1000 then Domain.cpu_relax ()
    else begin
      slept := true;
      Unix.sleepf 0.000_05
    end
  done;
  !slept

(* Execute one thread's share of a job.  Every exception is captured (not
   swallowed) and collected for the stop barrier, where the earliest is
   re-raised on the main thread; when telemetry is on, the share's
   wall-clock goes to the thread's busy counter. *)
let run_share pool idx fn =
  let n = pool.n_workers + 1 in
  let exec () =
    try fn idx n
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      Support.Telemetry.bump c_exceptions;
      push_atomic pool.failures (e, bt)
  in
  if Support.Telemetry.on () || Support.Profile.is_enabled () then begin
    let t0 = Support.Telemetry.now_ns () in
    exec ();
    let busy = Support.Telemetry.now_ns () - t0 in
    Support.Telemetry.add pool.busy.(idx) busy;
    (* Source attribution: charge this share's wall-clock to the ParFor
       region (if any) the profiler has open. *)
    if Support.Profile.is_enabled () then
      Support.Profile.worker_busy ~worker:idx busy
  end
  else exec ()

let worker_loop pool idx () =
  let my_gen = ref 0 in
  let running = ref true in
  while !running do
    let slept =
      spin_until (fun () ->
          Atomic.get pool.shutdown || Atomic.get pool.generation <> !my_gen)
    in
    if Atomic.get pool.shutdown then running := false
    else begin
      my_gen := Atomic.get pool.generation;
      if Support.Telemetry.on () then
        Support.Telemetry.bump
          (if slept then c_sleep_wakeups else c_spin_wakeups);
      (match Atomic.get pool.job with
      (* Worker indices 1..n; index 0 is the main thread's share. *)
      | Some { fn } -> run_share pool idx fn
      | None -> ());
      Atomic.incr pool.done_count
    end
  done

(** [create n] — a pool executing parallel regions on [n] threads total:
    the calling (main) thread plus [n-1] spawned worker domains, matching
    the paper's command-line thread-count argument. *)
let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt s with Some v when v >= 0 -> v | _ -> default)
  | None -> default

let create n =
  if n < 1 then invalid_arg "Pool.create: need at least one thread";
  let pool =
    {
      n_workers = n - 1;
      generation = Atomic.make 0;
      job = Atomic.make None;
      done_count = Atomic.make 0;
      shutdown = Atomic.make false;
      in_region = Atomic.make false;
      failures = Atomic.make [];
      degraded = Atomic.make false;
      faults = Atomic.make 0;
      fault_budget = env_int "MMC_FAULT_BUDGET" 3;
      busy =
        Array.init n (fun i ->
            Support.Telemetry.counter (Printf.sprintf "pool.worker%d.busy_ns" i));
      domains = [||];
    }
  in
  pool.domains <-
    Array.init (n - 1) (fun i -> Domain.spawn (worker_loop pool (i + 1)));
  pool

let threads pool = pool.n_workers + 1

(** Is the pool in sequential-fallback mode? *)
let is_degraded pool = Atomic.get pool.degraded

(** Recovered chunk faults over the pool's lifetime. *)
let fault_count pool = Atomic.get pool.faults

(** [set_fault_budget pool n] — recovered faults tolerated before the
    pool degrades to sequential fallback; 0 degrades on the first. *)
let set_fault_budget pool n =
  if n < 0 then invalid_arg "Pool.set_fault_budget";
  pool.fault_budget <- n

let fault_budget pool = pool.fault_budget

(** [reset_faults pool] — forgive recorded faults and leave degraded
    mode, re-enabling parallel dispatch (operator intervention / tests). *)
let reset_faults pool =
  Atomic.set pool.faults 0;
  Atomic.set pool.degraded false

(* Charge one recovered fault; flipping past the budget degrades the pool
   exactly once (CAS), bumps [pool.degraded] and emits the warning. *)
let note_fault pool =
  let n = 1 + Atomic.fetch_and_add pool.faults 1 in
  if n > pool.fault_budget && Atomic.compare_and_set pool.degraded false true
  then begin
    Support.Telemetry.bump c_degraded;
    !on_degrade
      (Printf.sprintf
         "parallel pool degraded to sequential fallback after %d recovered \
          worker fault(s) (budget %d); remaining regions run inline"
         n pool.fault_budget)
  end

(** [run pool f] — one parallel region: every thread [t] of [n] executes
    [f t n]; returns when all have passed the stop barrier.  If any share
    raised, the first exception is re-raised here (after every worker has
    parked again, so the pool stays usable).

    Re-entrant: a [run] issued while a region is already executing (a
    nested [ParFor] inside a worker's share) executes its function inline as [f 0 1] — the
    outer region already owns all the threads, so nesting degenerates to
    sequential execution instead of deadlocking on the single job slot. *)
let run pool (fn : int -> int -> unit) =
  Support.Failpoint.hit fp_dispatch;
  if pool.n_workers = 0 || Atomic.get pool.degraded then begin
    Support.Telemetry.bump c_jobs;
    fn 0 1
  end
  else if not (Atomic.compare_and_set pool.in_region false true) then begin
    Support.Telemetry.bump c_nested;
    fn 0 1
  end
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set pool.in_region false)
      (fun () ->
        Atomic.set pool.done_count 0;
        Atomic.set pool.job (Some { fn });
        Atomic.incr pool.generation;
        (* release *)
        Support.Telemetry.bump c_jobs;
        run_share pool 0 fn;
        (* main thread's share *)
        let wait () =
          ignore
            (spin_until (fun () ->
                 Atomic.get pool.done_count = pool.n_workers))
          (* stop barrier *)
        in
        if Support.Telemetry.on () then begin
          let t0 = Support.Telemetry.now_ns () in
          wait ();
          Support.Telemetry.add c_barrier_ns (Support.Telemetry.now_ns () - t0)
        end
        else wait ();
        (* Every worker has parked again, so the pool is reusable no
           matter what happens next.  The earliest exception re-raises
           with its original backtrace; later ones are counted, not
           lost silently. *)
        match List.rev (Atomic.exchange pool.failures []) with
        | [] -> ()
        | (e, bt) :: rest ->
            Support.Telemetry.add c_suppressed (List.length rest);
            Printexc.raise_with_backtrace e bt)

(** [parallel_for pool lo hi f] — apply [f] to every index in [lo, hi)
    in parallel, scheduled as guided chunks (§III-C): threads grab
    shrinking chunks ([remaining / 2n], at least one index) from a shared
    counter.  That costs one CAS per chunk but load-balances irregular
    iteration bodies (matrixMap over slices of varying work, conncomp
    frames with different eddy counts).  A range of at most one index
    runs inline on the calling thread without waking the pool. *)
let parallel_for pool lo hi f =
  let run_range clo chi =
    for i = clo to chi - 1 do
      f i
    done
  in
  let total = hi - lo in
  if total <= 0 then ()
  else if total = 1 || Atomic.get pool.degraded then begin
    (* inline: a single index never wakes the pool; degraded pools run
       everything sequentially (one whole-range chunk, exact sequential
       exception semantics — no containment). *)
    Support.Telemetry.bump c_chunks;
    Limits.check ();
    run_range lo hi
  end
  else begin
    (* Containment: a chunk that raises a recoverable exception records
       its range and lets the rest of the region finish; resource-limit
       violations escape to the share collector and re-raise at the
       barrier. *)
    let failed = Atomic.make [] in
    let exec_chunk clo chi =
      Support.Telemetry.bump c_chunks;
      Limits.check ();
      try
        Support.Failpoint.hit fp_worker_body;
        run_range clo chi
      with e when recoverable e ->
        let bt = Printexc.get_raw_backtrace () in
        Support.Telemetry.bump c_chunk_faults;
        push_atomic failed (clo, chi, e, bt)
    in
    let next = Atomic.make lo in
    run pool (fun _ n ->
        let continue = ref true in
        while !continue do
          let cur = Atomic.get next in
          if cur >= hi then continue := false
          else
            let size = max 1 ((hi - cur) / (2 * n)) in
            if Atomic.compare_and_set next cur (cur + size) then
              exec_chunk cur (cur + size)
        done);
    (* Re-execute failed ranges inline, in arrival order: chunk bodies
       write disjoint elements (§III-A4), so re-running a partially
       executed chunk is idempotent.  A fault that persists (the retry
       raises too) propagates to the caller — with the pool already
       parked and reusable. *)
    List.iter
      (fun (clo, chi, _, _) ->
        note_fault pool;
        Support.Telemetry.bump c_retries;
        Limits.check ();
        run_range clo chi)
      (List.rev (Atomic.exchange failed []))
  end

(** Park the workers permanently and join their domains. *)
let shutdown pool =
  if pool.n_workers > 0 then begin
    Atomic.set pool.shutdown true;
    Array.iter Domain.join pool.domains
  end

(** [with_pool n f] — create, use, always shut down. *)
let with_pool n f =
  let pool = create n in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(** The naive fork-join baseline (§III-C): spawn [n-1] fresh domains for
    the region, join them, destroy them.  Benchmarked against {!run} in
    the [forkjoin] bench group. *)
let naive_run n (fn : int -> int -> unit) =
  if n <= 1 then fn 0 1
  else begin
    let ds = Array.init (n - 1) (fun i -> Domain.spawn (fun () -> fn (i + 1) n)) in
    fn 0 n;
    Array.iter Domain.join ds
  end

(** Spawn-per-region counterpart of {!parallel_for}.  Kept deliberately:
    it is the baseline the C5 benchmark group measures {!run} against
    (and [bench --smoke] exercises it so it cannot bit-rot). *)
let naive_parallel_for n lo hi f =
  let total = hi - lo in
  if total > 0 then
    naive_run n (fun t n ->
        let chunk = (total + n - 1) / n in
        let start = lo + (t * chunk) in
        let stop = min hi (start + chunk) in
        for i = start to stop - 1 do
          f i
        done)
