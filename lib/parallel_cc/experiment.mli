(** Drivers for every experiment in the paper's evaluation (section 4)
    plus the extension studies.

    Each driver compiles the test programs with the real compiler (work
    measurement, cached — it is deterministic), then plays sequential
    and parallel compilation on the simulated 1989 host, repeating each
    measurement under the noise model and averaging (the paper's
    protocol, section 4.2). *)

type point = { n_functions : int; comparison : Timings.comparison }

val s_program_work :
  ?level:int -> size:W2.Gen.size -> count:int -> unit -> Driver.Compile.module_work
(** The compiled-and-measured S_n program (cached). *)

val user_program_work : ?level:int -> unit -> Driver.Compile.module_work

val measure :
  ?cfg:Config.t -> ?processors:int -> Driver.Compile.module_work ->
  Timings.comparison
(** One sequential-versus-parallel comparison.  Without [processors]:
    one function master per workstation.  With [processors]: the
    grouped plan of section 4.3 on a pool of that size (tasks queue
    FCFS when they outnumber stations). *)

val function_counts : int list
(** The paper's x axis: 1, 2, 4, 8. *)

val size_series : ?cfg:Config.t -> W2.Gen.size -> point list
(** Figures 3-5/12-13 (times) and the rows of 6-10/14-16. *)

val user_program : ?cfg:Config.t -> unit -> point list
(** Figure 11: 2, 3, 5 and 9 processors on the section-4.3 program. *)

val saturation :
  ?cfg:Config.t -> ?size:W2.Gen.size -> unit -> (int * float) list
(** Section 4.2.2: parallel elapsed time versus pool size for S_8. *)

(** {1 Ablations (DESIGN.md section 5)} *)

type ablation = { ab_name : string; ab_cfg : Config.t }

val ablations : ablation list
(** baseline / no-memory-model / no-core-download / ideal-network. *)

(** {1 Section 5.1: procedure inlining} *)

type inlining_study = {
  baseline : Timings.comparison;
  inlined : Timings.comparison;
  baseline_functions : int;
  inlined_functions : int;
  calls_inlined : int;
}

val run_inlining_study : ?cfg:Config.t -> unit -> inlining_study
(** The many-small-functions program, compiled as written and after
    inlining + pruning. *)

(** {1 Section 3.4: parallel make coexistence} *)

val run_make_study : ?cfg:Config.t -> ?stations:int -> unit -> Makerun.result list
(** Every strategy on a mixed 4-module "system" (independent makefile
    targets). *)

(** {1 Section 5: finer-grain parallelism} *)

type grain_point = {
  gp_stations : int;
  coarse : float; (** elapsed, phases 2+3 fused (the paper's design) *)
  fine : float; (** elapsed, phases 2 and 3 as separate tasks *)
}

val run_grain_study :
  ?cfg:Config.t -> ?size:W2.Gen.size -> ?count:int -> unit -> grain_point list

(** {1 Fault tolerance} *)

type fault_point = {
  fp_stations : int; (** pool size available to function masters *)
  fp_rate : float; (** crash rate fed to {!Netsim.Fault.random} *)
  fp_elapsed : float;
  fp_inflation : float; (** elapsed / fault-free elapsed (1.0 = free) *)
  fp_retries : int;
  fp_fallbacks : int;
  fp_lost : int; (** stations crashed or reclaimed *)
  fp_wasted_cpu : float;
}

val fault_sweep :
  ?cfg:Config.t -> ?size:W2.Gen.size -> ?count:int -> unit -> fault_point list
(** Elapsed-time inflation, recovery work and wasted CPU of the
    parallel compiler on 2/4/8/16-station pools as the fault rate
    grows (0, 0.25, 0.5, 1.0); seeded, so the series is reproducible. *)

(** {1 Scheduling policies} *)

type sched_point = {
  sp_series : string; (** e.g. ["tiny8p4"] = S_8 of tiny functions, pool of 4 *)
  sp_policy : Sched.policy;
  sp_pool : int; (** stations available to function masters *)
  sp_units : int; (** dispatch units launched (after any batching) *)
  sp_elapsed : float;
  sp_speedup_vs_fcfs : float;
      (** FCFS elapsed / this elapsed on the same point (1.0 for FCFS) *)
}

val sched_sweep : ?cfg:Config.t -> unit -> sched_point list
(** Tiny/small/large/huge S_n programs and the user program on pools
    smaller than the task count, the regime where scheduling order and
    batching can matter, under every {!Sched.policy} with [cfg]'s batch
    threshold; seeded (noise seed 3), so reproducible. *)

(** {1 Dependence-aware dispatch} *)

type dag_point = {
  dg_series : string;
  dg_policy : Sched.policy; (** [Fcfs] baseline, [Dag] or [Dag_lpt] *)
  dg_pool : int;
  dg_units : int;
  dg_elapsed : float;
  dg_speedup_vs_fcfs : float; (** 1.0 for the baseline row *)
  dg_edges : int; (** dependence edges over the whole module *)
  dg_licensed : float; (** pairs-weighted licensed-parallelism fraction *)
}

val helper_program_work : ?level:int -> unit -> Driver.Compile.module_work
(** The section-5.1 helper program (cached) — the sweep's coupled
    module: its call graph becomes inline_of dependence edges. *)

val dag_sweep : ?cfg:Config.t -> unit -> dag_point list
(** Points spanning licensed fractions — edge-free S_8 programs (DAG
    dispatch must be free), the helper program, and the user program —
    under FCFS and both {!Sched.dag_policies}; seeded (noise seed 3), so
    reproducible.  On the edge-free points the
    [dag] rows reproduce the FCFS elapsed times bit for bit. *)

(** {1 Section 6: scaling limit} *)

val run_scaling_study :
  ?cfg:Config.t -> ?size:W2.Gen.size -> ?max_stations:int -> unit -> point list
(** Speedup for 1..32 equal functions.  Without [max_stations], one
    processor per function (efficiency decays past 8-16); with it, the
    paper's environment ("the number of processors that can be used in
    parallel is limited to 10-15", §3.3), where speedup plateaus. *)

(** {1 Abstract-interpretation refinement} *)

type absint_point = {
  ap_series : string;
  ap_functions : int;
  ap_edges_off : int; (** dependence edges, base (flow-insensitive) analysis *)
  ap_edges_on : int; (** after the {!Analysis.Absint} refinement *)
  ap_pruned : int; (** edge reasons refuted (region + protocol) *)
  ap_licensed_off : float;
  ap_licensed_on : float; (** pairs-weighted licensed fractions *)
  ap_elapsed_off : float; (** dag+lpt elapsed on the unpruned DAG *)
  ap_elapsed_on : float; (** dag+lpt elapsed on the pruned DAG *)
  ap_speedup : float; (** off / on — what the pruning buys *)
  ap_race_violations : int;
      (** {!Traceview.race_check} violations on the pruned run's trace;
          soundness of the refutations means this is always 0 *)
}

val absint_sweep : ?cfg:Config.t -> ?pool:int -> unit -> absint_point list
(** Each program compiled with the refinement off and on, both DAGs
    played under dag+lpt on a [pool]-station cluster (default 4) with
    the race oracle armed; seeded (noise seed 3), so reproducible. *)

(** {1 Speculative dispatch (dag+spec)} *)

type spec_point = {
  zp_series : string;
  zp_functions : int;
  zp_spec_edges : int; (** speculative edges in the plan *)
  zp_hot_edges : int; (** genuinely conflicting speculative edges *)
  zp_elapsed_lpt : float; (** dag+lpt elapsed (every edge gated) *)
  zp_elapsed_spec : float; (** dag+spec elapsed *)
  zp_speedup : float; (** lpt / spec — what speculation buys *)
  zp_dispatched : int; (** speculative attempts launched *)
  zp_committed : int; (** staged outputs promoted to durable *)
  zp_rolled_back : int; (** staged outputs quarantined *)
  zp_race_violations : int;
      (** {!Traceview.race_check_spec} violations on the dag+spec
          trace; the commit protocol's soundness means this is 0 *)
}

val spec_program_work :
  ?level:int ->
  ?max_tracked:int ->
  absint:bool ->
  name:string ->
  (unit -> W2.Ast.modul) ->
  Driver.Compile.module_work
(** Compile one sweep program (cached on every knob that shapes the
    analysis, [max_tracked] and [absint] included). *)

val spec_sweep : ?cfg:Config.t -> unit -> spec_point list
(** Two "blinded" programs — dynamically independent but compiled with
    the refinement off and the tracking cap below their write fan-out,
    so every pair is pinned by [summary_limit] — plus the deliberately
    racy scatter program whose conflicts are real, each played under
    dag+lpt and dag+spec on a pool matching its width, traced, with the
    speculation-aware race oracle armed; seeded (noise seed 3), so
    reproducible.  On the blinded points every speculation commits and
    dag+spec beats dag+lpt; on the racy point attempts roll back and the
    run still terminates with every task written back exactly once. *)

(** {1 Critical-path profile sweep} *)

type profile_point = {
  fp_series : string;
  fp_policy : Sched.policy;
  fp_pool : int;
  fp_elapsed : float;
  fp_buckets : (string * float) list;
      (** in the order of {!Critpath.profile}'s [p_buckets]; folds to
          [fp_elapsed] exactly *)
  fp_dominant : string; (** largest bucket — the bottleneck regime *)
  fp_segments : int;
}

val profile_sweep : ?cfg:Config.t -> unit -> profile_point list
(** Three bottleneck regimes — the overhead-dominated tiny S_8, the
    dependence-coupled helper program, and the speculation-exercising
    blinded program — one master per function, on pools of 2, 4 and 8
    under FCFS, dag+lpt and dag+spec, traced and profiled with
    {!Critpath.of_trace} ({!Critpath.assert_exact} armed); seeded
    (noise seed 3), so reproducible.  Shrinking the pool below the task
    count shifts the dominant bucket from compute/overhead toward
    pool-wait — the bottleneck-migration story the artifact records. *)

(** {1 Content-addressed compile cache} *)

type cache_point = {
  cp_series : string;
  cp_pool : int;
  cp_functions : int;
  cp_edited : string; (** the function the one-edit run touched *)
  cp_closure : int;
      (** edited function + transitive dependence dependents: the set
          whose keys change, hence the expected recompile count *)
  cp_cold_elapsed : float; (** empty store: every lookup misses *)
  cp_warm_elapsed : float; (** same module again: every lookup hits *)
  cp_edit_elapsed : float; (** after {!W2.Gen.touch_in} on [cp_edited] *)
  cp_warm_speedup : float; (** cold / warm — what memoization buys *)
  cp_cold_hits : int;
  cp_cold_misses : int;
  cp_warm_hits : int;
  cp_warm_misses : int;
  cp_edit_hits : int;
  cp_edit_misses : int; (** = [cp_closure] when the cache is correct *)
  cp_edit_invalidated : int; (** misses attributed to the edit; = misses *)
}

val edit_closure : Analysis.Depan.t -> string -> int
(** Size of the named function's invalidation closure (itself plus
    transitive dependents over the dependence edges). *)

val widest_edit : Driver.Compile.module_work -> string
(** The function whose edit invalidates the largest closure — the
    sweep's deterministic "programmer edit" target. *)

val cache_series :
  unit -> (string * (unit -> W2.Ast.modul) * int) list
(** (name, program, pool): an edge-free S_8 (closure 1), the
    inline-coupled helper program, and the user program. *)

val cache_program_work :
  ?level:int ->
  name:string ->
  ?edit:string ->
  (unit -> W2.Ast.modul) ->
  Driver.Compile.module_work
(** Compile one sweep program (cached), optionally after
    {!W2.Gen.touch_in} on [edit]. *)

val cache_sweep : ?cfg:Config.t -> unit -> cache_point list
(** Cold, warm and one-edit runs of each {!cache_series} point against
    a single {!Cache.t}, dag+lpt on the point's pool; seeded (noise
    seed 3), so reproducible.  Warm elapsed is strictly below cold on
    every point, and the edit run recompiles exactly the closure. *)

(** {1 Modular cross-module analysis (link-time composition)} *)

type link_compose_point = {
  lc_shape : string; (** {!W2.Gen.shape_name} *)
  lc_modules : int;
  lc_functions : int;
  lc_edges : int; (** composed dependence edges, intra + cross *)
  lc_cross_edges : int; (** edges whose endpoints live in different modules *)
  lc_levels : int; (** function antichains of the composed DAG *)
  lc_module_levels : int; (** antichains of the module condensation *)
  lc_licensed : float; (** project-wide licensed-parallelism fraction *)
  lc_missing : int; (** imported calls no module of the link defines *)
  lc_diags : (string * int) list; (** cross-module lints, counted by code *)
}

type link_sched_point = {
  lp_shape : string;
  lp_modules : int;
  lp_functions : int;
  lp_policy : Sched.policy; (** [Fcfs] baseline, [Dag_lpt] or [Dag_spec] *)
  lp_pool : int;
  lp_units : int;
  lp_elapsed : float;
  lp_speedup_vs_fcfs : float; (** 1.0 for the baseline row *)
  lp_cross_edges : int;
  lp_spec_edges : int; (** speculative edges in the composed plan *)
  lp_race_violations : int;
      (** race-oracle violations on the DAG-gated policies' traces;
          the composed DAG's superset property means this is 0 *)
}

val link_summaries :
  W2.Ast.modul list -> Analysis.Modan.module_summary list
(** Separately summarize each module with the project driver
    ({!Analysis.Modan.summarize_project}) and round-trip every summary
    through the [.wsi] artifact, so composition sees exactly what a
    separate build persists. *)

val link_compose_sweep : unit -> link_compose_point list
(** Every {!W2.Gen.shape} at 100, 200 and 400 modules,
    composed from summaries alone — no source text or AST crosses the
    module boundary after summarization.  Deterministic (seed 1). *)

val link_program_work :
  ?level:int ->
  shape:W2.Gen.shape ->
  modules:int ->
  unit ->
  Driver.Compile.module_work * Analysis.Modan.link
(** The inlined whole-program compile of a generated project (cached)
    plus its summary-composed link. *)

val link_plan :
  Driver.Compile.module_work -> Analysis.Modan.link -> Plan.t
(** One master per function with [Plan.func_deps] / [spec_edges]
    replaced by the composed {!Analysis.Modan.func_deps} /
    {!Analysis.Modan.spec_deps}; hot edges keep the merged analysis's
    proven-sharing pairs restricted to edges the composed DAG still
    speculates past (so hot ⊆ spec is preserved). *)

val link_sched_sweep : ?cfg:Config.t -> unit -> link_sched_point list
(** Every shape at 24 and 48 modules played under FCFS, dag+lpt and
    dag+spec on an 8-station pool, traced, with the race oracle armed
    on the DAG-gated policies; seeded (noise seed 3), so
    reproducible. *)
