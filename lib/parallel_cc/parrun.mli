(** The parallel compiler on the simulated host (paper, section 3.2):
    master → section masters → function masters, with FCFS workstation
    claiming, per-process Lisp startup, source re-parsing, result
    combining and the sequential phases 1 and 4 in the master.

    The plan is passed through {!Sched.schedule} before the section
    masters fork: {!Config.t.sched_policy} selects FCFS dispatch (the
    paper's behaviour, event schedule bit-identical), LPT ordering, or
    LPT with tiny-function batching, and on retries under a non-FCFS
    policy the re-dispatch prefers — and skips re-downloads on — a
    station that already holds the task's bytes ({!Netsim.Net.cached}).

    Every task runs one lifecycle: claim → fetch → compute → stage →
    commit | abort → publish.  Whichever path first makes its output
    durable (an attempt's write-back, a speculative commit, or the
    sequential fallback) takes the task's completion token, publishes
    to the compile cache ({!Cache.publish}) and records the placements;
    every later finisher only adds to [wasted_cpu].  Two pieces vary:

    - the execution stage.  With {!Config.t.fine_grained} set, each
      task splits into a phase-2 and a phase-3 master connected by an
      IR file on the server — the "finer grain parallelism" the paper's
      section 5 anticipates;

    - supervision.  When {!Config.t.faults} is non-empty, every task
      runs under a supervisor in its section master: per-attempt
      deadlines from the cost model, crash/timeout detection, FCFS
      re-dispatch with exponential backoff up to
      {!Config.t.retry_budget}, and — once the budget is exhausted —
      sequential fallback in the master's own Lisp, so the compilation
      terminates with identical output no matter the fault plan.
      Without a supervisor the one attempt runs inline in the task's
      process, with no watchdog and no mailbox.

    Under {!Sched.Dag_spec} (as resolved by {!Config.effective_policy})
    tasks also run supervised, fault plan or not: an attempt whose
    speculative predecessors are not all durably complete at claim time
    stages its output in a versioned buffer on the file server instead
    of writing back, and a commit protocol rules on it — commit (a
    version-pointer flip promotes the staged artifact, exactly once)
    when no genuinely conflicting ("hot") predecessor was pending,
    abort (quarantine the stale version, charge the attempt's CPU to
    [wasted_cpu], re-dispatch) at the first hot predecessor's
    write-back.  After {!Config.t.spec_budget} aborts a task hardens:
    further launches gate on every speculative edge, dag+lpt style. *)

type outcome = {
  run : Timings.run;
  station_of_task : (string * int) list;
      (** head function of each task → workstation id; fine-grained
          phase-3 placements appear as ["name#p3"] *)
}

val master_process :
  Config.t ->
  Netsim.Des.t ->
  Netsim.Host.cluster ->
  noise:(int -> float) ->
  salt:int ->
  Driver.Compile.module_work ->
  Plan.t ->
  stats:Timings.stats ->
  on_finish:(float -> unit) ->
  unit ->
  unit
(** The spawnable master body; several can share a cluster (the
    combined strategy of the parallel-make study).  [stats] receives
    the counters: the tasks launched after scheduling (batching merges
    tasks, so [dispatch_units] can be below the input plan's task
    count), the retries, fallbacks, speculation verdicts and
    compile-cache tallies. *)

val run : Config.t -> Driver.Compile.module_work -> Plan.t -> outcome
(** One parallel compilation on a fresh cluster.
    @raise Failure naming the tasks that never completed when the
    simulation drains before the master finishes (a deadlock). *)
