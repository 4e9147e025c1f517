(* Drivers for every experiment in the paper's evaluation (section 4).

   Each driver compiles the test programs with the real compiler (work
   measurement), then plays the sequential and parallel compilations on
   the simulated 1989 host, repeating each measurement with the noise
   model and averaging — the paper's protocol (section 4.2). *)

type point = {
  n_functions : int;
  comparison : Timings.comparison;
}

(* --- compilation cache: measuring work is deterministic, do it once --- *)

let memo tbl key compile =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = compile () in
    Hashtbl.replace tbl key v;
    v

let cache : (string, Driver.Compile.module_work) Hashtbl.t = Hashtbl.create 32

let s_program_work ?(level = 2) ~size ~count () : Driver.Compile.module_work =
  let key = Printf.sprintf "s:%s:%d:%d" (W2.Gen.size_name size) count level in
  memo cache key (fun () ->
      Driver.Compile.compile_module ~level (W2.Gen.s_program ~size ~count ()))

let user_program_work ?(level = 2) () : Driver.Compile.module_work =
  memo cache (Printf.sprintf "user:%d" level) (fun () ->
      Driver.Compile.compile_module ~level (W2.Gen.user_program ()))

(* --- one measurement (sequential vs parallel), repeated and averaged --- *)

let repetitions = 3

let measure ?(cfg = Config.default) ?processors (mw : Driver.Compile.module_work) :
    Timings.comparison =
  (* [processors] is the number of workstations available to function
     masters; with fewer processors than tasks, tasks queue FCFS. *)
  let plan, n_fm =
    match processors with
    | None ->
      let plan = Plan.one_per_station mw in
      (plan, Plan.task_count plan)
    | Some p ->
      let plan = Plan.grouped mw ~processors:p in
      (plan, p)
  in
  let runs =
    List.init repetitions (fun i ->
        let seed = 1 + (1000 * i) + (17 * n_fm) in
        let cfg_run = { cfg with Config.noise_seed = seed } in
        let seq =
          Seqrun.run { cfg_run with Config.stations = 1 } mw
        in
        let par =
          (Parrun.run
             { cfg_run with Config.stations = n_fm + 1 }
             mw plan)
            .Parrun.run
        in
        (seq, par))
  in
  let avg_run (projection : (Timings.run * Timings.run) -> Timings.run) =
    let mean field = Stats.mean (List.map (fun r -> field (projection r)) runs) in
    {
      (projection (List.hd runs)) with
      Timings.elapsed = mean (fun r -> r.Timings.elapsed);
      master_cpu = mean (fun r -> r.Timings.master_cpu);
      section_cpu = mean (fun r -> r.Timings.section_cpu);
      extra_parse_cpu = mean (fun r -> r.Timings.extra_parse_cpu);
    }
  in
  let seq = avg_run fst and par = avg_run snd in
  Timings.compare_runs ~processors:n_fm ~seq ~par

(* --- the paper's experiments --- *)

let function_counts = [ 1; 2; 4; 8 ]

(* Figures 3, 4, 5, 12, 13: total execution times (elapsed and
   per-processor CPU, sequential vs parallel) for one function size. *)
let size_series ?(cfg = Config.default) (size : W2.Gen.size) : point list =
  List.map
    (fun count ->
      let mw = s_program_work ~level:cfg.Config.opt_level ~size ~count () in
      { n_functions = count; comparison = measure ~cfg mw })
    function_counts

(* Figures 8-10 and 14-16 reuse the size series: overheads are already
   part of each comparison. *)

(* Figure 11: the mechanical-engineering user program (three sections
   of three functions), compiled on 2, 3, 5 and 9 processors with the
   load-balancing heuristic. *)
let user_program ?(cfg = Config.default) () : point list =
  let mw = user_program_work ~level:cfg.Config.opt_level () in
  List.map
    (fun p ->
      let total_functions = List.length (Driver.Compile.all_funcs mw) in
      let comparison =
        if p >= total_functions then measure ~cfg mw
        else measure ~cfg ~processors:p mw
      in
      { n_functions = p; comparison })
    [ 2; 3; 5; 9 ]

(* Section 4.2.2 (comparison with Katseff's parallel assembler):
   saturation — elapsed time of the 8-function program as the
   workstation pool grows; past 8 stations nothing improves. *)
let saturation ?(cfg = Config.default) ?(size = W2.Gen.Medium) () :
    (int * float) list =
  let mw = s_program_work ~level:cfg.Config.opt_level ~size ~count:8 () in
  let plan = Plan.one_per_station mw in
  List.map
    (fun stations ->
      let cfg_run = { cfg with Config.stations = stations + 1; noise_seed = 7 } in
      let par = (Parrun.run cfg_run mw plan).Parrun.run in
      (stations, par.Timings.elapsed))
    [ 1; 2; 3; 4; 5; 6; 8; 10; 12 ]

(* --- ablations (DESIGN.md section 5) --- *)

type ablation = {
  ab_name : string;
  ab_cfg : Config.t;
}

let ablations =
  [
    { ab_name = "baseline"; ab_cfg = Config.default };
    { ab_name = "no-memory-model"; ab_cfg = { Config.default with Config.memory_model = false } };
    { ab_name = "no-core-download"; ab_cfg = { Config.default with Config.core_download = false } };
    { ab_name = "ideal-network"; ab_cfg = { Config.default with Config.ideal_network = true } };
  ]

(* --- section 5.1: procedure inlining as grain coarsening --- *)

type inlining_study = {
  baseline : Timings.comparison;
  inlined : Timings.comparison;
  baseline_functions : int;
  inlined_functions : int;
  calls_inlined : int;
}

(* Compile the many-small-functions program as-is, then again after
   inlining the helpers into their drivers (pruning helpers that are no
   longer called).  The paper's claim: "the increase in size of each
   function operated upon will also improve the speedup obtained by the
   parallel compiler". *)
let run_inlining_study ?(cfg = Config.default) () : inlining_study =
  let m = W2.Gen.helper_program () in
  let baseline_mw = Driver.Compile.compile_module ~level:cfg.Config.opt_level m in
  let expanded, stats = W2.Inline.expand_module m in
  let roots =
    List.concat_map
      (fun (sec : W2.Ast.section) ->
        List.filter_map
          (fun (f : W2.Ast.func) ->
            if String.length f.W2.Ast.fname >= 6
               && String.sub f.W2.Ast.fname 0 6 = "driver"
            then Some f.W2.Ast.fname
            else None)
          sec.W2.Ast.funcs)
      expanded.W2.Ast.sections
  in
  let pruned =
    {
      expanded with
      W2.Ast.sections =
        List.map (W2.Inline.prune_section ~roots) expanded.W2.Ast.sections;
    }
  in
  let inlined_mw = Driver.Compile.compile_module ~level:cfg.Config.opt_level pruned in
  {
    baseline = measure ~cfg baseline_mw;
    inlined = measure ~cfg inlined_mw;
    baseline_functions = List.length (Driver.Compile.all_funcs baseline_mw);
    inlined_functions = List.length (Driver.Compile.all_funcs inlined_mw);
    calls_inlined = stats.W2.Inline.inlined;
  }

(* --- section 3.4: parallel make coexistence --- *)

(* A small "system": several independent modules of mixed sizes, like a
   makefile with independent targets. *)
let make_modules ?(level = 2) () : Driver.Compile.module_work list =
  List.map
    (fun (size, count, tag) ->
      let key = Printf.sprintf "make:%s:%d:%d" (W2.Gen.size_name size) count level in
      memo cache key (fun () ->
          Driver.Compile.compile_module ~level
            (W2.Gen.s_program ~name:tag ~size ~count ())))
    [
      (W2.Gen.Medium, 3, "libA");
      (W2.Gen.Small, 4, "libB");
      (W2.Gen.Medium, 2, "libC");
      (W2.Gen.Large, 1, "app");
    ]

(* Compare the four build strategies of [Makerun] on the mixed system. *)
let run_make_study ?(cfg = Config.default) ?(stations = 10) () :
    Makerun.result list =
  let modules = make_modules ~level:cfg.Config.opt_level () in
  Makerun.run_all { cfg with Config.noise_seed = 5 } ~stations modules

(* --- section 5: finer-grain parallelism (phase pipelining) --- *)

type grain_point = {
  gp_stations : int;
  coarse : float; (* elapsed, phases 2+3 fused (the paper's design) *)
  fine : float; (* elapsed, phases 2 and 3 as separate tasks *)
}

(* Throughput of the two granularities as the pool shrinks below the
   task count: fine grain pipelines phase-2 and phase-3 stages of
   different functions through the pool, at the price of extra Lisp
   startups and IR shipping. *)
let run_grain_study ?(cfg = Config.default) ?(size = W2.Gen.Medium) ?(count = 8) ()
    : grain_point list =
  let mw = s_program_work ~level:cfg.Config.opt_level ~size ~count () in
  let plan = Plan.one_per_station mw in
  List.map
    (fun stations ->
      let elapsed fine_grained =
        let cfg_run =
          { cfg with Config.stations; fine_grained; noise_seed = 9 }
        in
        (Parrun.run cfg_run mw plan).Parrun.run.Timings.elapsed
      in
      { gp_stations = stations; coarse = elapsed false; fine = elapsed true })
    [ 3; 5; 9 ]

(* --- fault tolerance: elapsed-time inflation under faults --- *)

type fault_point = {
  fp_stations : int;
  fp_rate : float;
  fp_elapsed : float;
  fp_inflation : float; (* elapsed / fault-free elapsed *)
  fp_retries : int;
  fp_fallbacks : int;
  fp_lost : int;
  fp_wasted_cpu : float;
}

let fault_rates = [ 0.0; 0.25; 0.5; 1.0 ]

(* In the spirit of the paper's S_n series: the same module compiled on
   pools of 2/4/8/16 stations while the crash rate grows.  The plan for
   one pool size is drawn once per rate from the same seed, so a higher
   rate strictly adds faults; the fault horizon is 1.5x the fault-free
   elapsed time, placing every event inside (or near) the useful part
   of the run. *)
let fault_sweep ?(cfg = Config.default) ?(size = W2.Gen.Medium) ?(count = 8) ()
    : fault_point list =
  let mw = s_program_work ~level:cfg.Config.opt_level ~size ~count () in
  let plan = Plan.one_per_station mw in
  List.concat_map
    (fun pool ->
      let base =
        { cfg with Config.stations = pool + 1; noise_seed = 3; faults = Netsim.Fault.none }
      in
      let free = (Parrun.run base mw plan).Parrun.run.Timings.elapsed in
      List.map
        (fun rate ->
          let faults =
            if rate <= 0.0 then Netsim.Fault.none
            else
              Netsim.Fault.random ~seed:(41 + pool) ~stations:(pool + 1) ~rate
                ~horizon:(free *. 1.5) ()
          in
          let r = (Parrun.run { base with Config.faults } mw plan).Parrun.run in
          {
            fp_stations = pool;
            fp_rate = rate;
            fp_elapsed = r.Timings.elapsed;
            fp_inflation = r.Timings.elapsed /. free;
            fp_retries = r.Timings.retries;
            fp_fallbacks = r.Timings.fallback_tasks;
            fp_lost = r.Timings.stations_lost;
            fp_wasted_cpu = r.Timings.wasted_cpu;
          })
        fault_rates)
    [ 2; 4; 8; 16 ]

(* --- scheduling policies: FCFS vs LPT vs LPT + tiny batching --- *)

type sched_point = {
  sp_series : string;
  sp_policy : Sched.policy;
  sp_pool : int;
  sp_units : int;
  sp_elapsed : float;
  sp_speedup_vs_fcfs : float;
}

(* The points where scheduling can matter: pools smaller than the task
   count, so dispatch units queue.  With a pool per task (the paper's
   main configuration) every policy degenerates to FCFS, and batching
   tiny functions LOSES elapsed time — it serializes work onto one
   station while the others idle; the sweep therefore stresses the
   oversubscribed regime.  [user4] is the section-4.3 program, whose
   sections hold one task each — a witness that per-section reordering
   is a no-op there. *)
let sched_series ?(level = 2) () =
  [
    ("tiny4p2", s_program_work ~level ~size:W2.Gen.Tiny ~count:4 (), 2);
    ("tiny8p2", s_program_work ~level ~size:W2.Gen.Tiny ~count:8 (), 2);
    ("tiny8p4", s_program_work ~level ~size:W2.Gen.Tiny ~count:8 (), 4);
    ("tiny16p4", s_program_work ~level ~size:W2.Gen.Tiny ~count:16 (), 4);
    ("small8p4", s_program_work ~level ~size:W2.Gen.Small ~count:8 (), 4);
    ("large8p4", s_program_work ~level ~size:W2.Gen.Large ~count:8 (), 4);
    ("huge8p4", s_program_work ~level ~size:W2.Gen.Huge ~count:8 (), 4);
    ("user4", user_program_work ~level (), 4);
  ]

let sched_sweep ?(cfg = Config.default) () : sched_point list =
  List.concat_map
    (fun (name, mw, pool) ->
      let plan = Plan.one_per_station mw in
      let play policy =
        let cfg_run =
          {
            cfg with
            Config.stations = pool + 1;
            noise_seed = 3;
            sched_policy = policy;
          }
        in
        (Parrun.run cfg_run mw plan).Parrun.run
      in
      let fcfs = play Sched.Fcfs in
      List.map
        (fun policy ->
          let r = if policy = Sched.Fcfs then fcfs else play policy in
          {
            sp_series = name;
            sp_policy = policy;
            sp_pool = pool;
            sp_units = r.Timings.dispatch_units;
            sp_elapsed = r.Timings.elapsed;
            sp_speedup_vs_fcfs = fcfs.Timings.elapsed /. r.Timings.elapsed;
          })
        Sched.all)
    (sched_series ~level:cfg.Config.opt_level ())

(* --- dependence-aware dispatch: FCFS vs DAG vs DAG + LPT --- *)

type dag_point = {
  dg_series : string;
  dg_policy : Sched.policy;
  dg_pool : int;
  dg_units : int;
  dg_elapsed : float;
  dg_speedup_vs_fcfs : float;
  dg_edges : int;
  dg_licensed : float;
}

let module_edges (t : Analysis.Depan.t) =
  List.fold_left
    (fun n si -> n + List.length si.Analysis.Depan.si_edges)
    0 t.Analysis.Depan.dp_sections

(* Pairs-weighted mean of the per-section licensed fractions: the
   fraction of same-section function pairs the analyzer lets the
   scheduler overlap.  An edge-free module scores 1.0. *)
let module_licensed (t : Analysis.Depan.t) =
  let pairs, licensed =
    List.fold_left
      (fun (p, l) si ->
        let n = Array.length si.Analysis.Depan.si_funcs in
        let np = float_of_int (n * (n - 1) / 2) in
        (p +. np, l +. (np *. Analysis.Depan.licensed_fraction si)))
      (0.0, 0.0) t.Analysis.Depan.dp_sections
  in
  if pairs = 0.0 then 1.0 else licensed /. pairs

let helper_program_work ?(level = 2) () : Driver.Compile.module_work =
  memo cache (Printf.sprintf "helpers:%d" level) (fun () ->
      Driver.Compile.compile_module ~level (W2.Gen.helper_program ()))

(* Three regimes for the dependence-aware policies: an edge-free S_n
   (the DAG is a no-op and must cost nothing), the helper program
   (whose call graph the analyzer turns into inline_of edges, the
   paper's section 5.1 coupling), and the section-4.3 user program. *)
let dag_series ?(level = 2) () =
  [
    ("tiny8p4", s_program_work ~level ~size:W2.Gen.Tiny ~count:8 (), 4);
    ("small8p4", s_program_work ~level ~size:W2.Gen.Small ~count:8 (), 4);
    ("helpers4", helper_program_work ~level (), 4);
    ("user4", user_program_work ~level (), 4);
  ]

let dag_sweep ?(cfg = Config.default) () : dag_point list =
  List.concat_map
    (fun (name, (mw : Driver.Compile.module_work), pool) ->
      let analysis = mw.Driver.Compile.mw_analysis in
      let plan = Plan.one_per_station mw in
      let play policy =
        let cfg_run =
          {
            cfg with
            Config.stations = pool + 1;
            noise_seed = 3;
            sched_policy = policy;
          }
        in
        (Parrun.run cfg_run mw plan).Parrun.run
      in
      let fcfs = play Sched.Fcfs in
      List.map
        (fun policy ->
          let r = if policy = Sched.Fcfs then fcfs else play policy in
          {
            dg_series = name;
            dg_policy = policy;
            dg_pool = pool;
            dg_units = r.Timings.dispatch_units;
            dg_elapsed = r.Timings.elapsed;
            dg_speedup_vs_fcfs = fcfs.Timings.elapsed /. r.Timings.elapsed;
            dg_edges = module_edges analysis;
            dg_licensed = module_licensed analysis;
          })
        (Sched.Fcfs :: Sched.dag_policies))
    (dag_series ~level:cfg.Config.opt_level ())

(* --- section 6: how far does this scale? --- *)

(* "For the style of parallelism exploited by this compiler, on the
   order of 8 to 16 processors can be used comfortably.  For our domain
   of application programs, extending the number of processors beyond
   this range is unlikely to yield any additional speedup." *)
let run_scaling_study ?(cfg = Config.default) ?(size = W2.Gen.Large)
    ?max_stations () : point list =
  List.map
    (fun count ->
      let mw = s_program_work ~level:cfg.Config.opt_level ~size ~count () in
      let comparison =
        match max_stations with
        | Some cap when count > cap -> measure ~cfg ~processors:cap mw
        | Some _ | None -> measure ~cfg mw
      in
      { n_functions = count; comparison })
    [ 1; 2; 4; 8; 12; 16; 24; 32 ]

(* --- abstract-interpretation refinement: pruned edges, end to end --- *)

type absint_point = {
  ap_series : string;
  ap_functions : int;
  ap_edges_off : int; (* dependence edges, base analysis *)
  ap_edges_on : int; (* after the absint refinement *)
  ap_pruned : int; (* edge reasons refuted (region + protocol) *)
  ap_licensed_off : float;
  ap_licensed_on : float;
  ap_elapsed_off : float; (* dag+lpt elapsed on the unpruned DAG *)
  ap_elapsed_on : float; (* dag+lpt elapsed on the pruned DAG *)
  ap_speedup : float; (* off / on: what the pruning buys *)
  ap_race_violations : int;
      (* dynamic oracle over the pruned run's trace: dependence edges
         dispatched out of order.  Soundness means this is always 0 *)
}

(* The partitioned lattice, the histogram and the dead-channel program
   (each with refutable couplings) plus the 4-driver helper program as
   a no-op witness (all of its edges are inline/signature edges, which
   the refinement never touches). *)
let absint_series () =
  [
    ("partitioned", fun () -> W2.Gen.partitioned_program ());
    ("histogram", fun () -> W2.Gen.histogram_program ());
    ("deadchan", fun () -> W2.Gen.deadchan_program ());
    (* witness: every edge here is inline_of/sig_agreement, which the
       refinement never touches — the point must be a no-op *)
    ("helpers4", fun () -> W2.Gen.helper_program ~drivers:4 ());
  ]

let absint_program_work ?(level = 2) ~absint ~name (make : unit -> W2.Ast.modul)
    : Driver.Compile.module_work =
  memo cache (Printf.sprintf "absint:%s:%d:%b" name level absint) (fun () ->
      Driver.Compile.compile_source ~level ~absint
        (W2.Pretty.module_to_string (make ())))

let module_pruned (t : Analysis.Depan.t) =
  List.fold_left
    (fun n si -> n + List.length si.Analysis.Depan.si_pruned)
    0 t.Analysis.Depan.dp_sections

(* Each program is compiled twice — refinement off and on — and both
   DAGs are played under dag+lpt on a 4-station pool with the race
   oracle armed: the pruned schedule must be faster (or at worst equal)
   and every surviving edge must still be honoured dynamically. *)
let absint_sweep ?(cfg = Config.default) ?(pool = 4) () : absint_point list =
  List.map
    (fun (name, make) ->
      let level = cfg.Config.opt_level in
      let off = absint_program_work ~level ~absint:false ~name make in
      let on = absint_program_work ~level ~absint:true ~name make in
      let play (mw : Driver.Compile.module_work) =
        let plan = Plan.one_per_station mw in
        let tr = Trace.create () in
        let cfg_run =
          {
            cfg with
            Config.stations = pool + 1;
            noise_seed = 3;
            sched_policy = Sched.Dag_lpt;
            trace = tr;
          }
        in
        let r = (Parrun.run cfg_run mw plan).Parrun.run in
        let scheduled =
          Sched.schedule ~static:cfg.Config.static_cost ~policy:Sched.Dag_lpt
            ~cost:cfg.Config.cost ~threshold:cfg.Config.batch_threshold
            ~stations:(pool + 1) plan
        in
        (r.Timings.elapsed, List.length (Traceview.race_check tr ~plan:scheduled))
      in
      let elapsed_off, _ = play off in
      let elapsed_on, violations = play on in
      {
        ap_series = name;
        ap_functions = List.length (Driver.Compile.all_funcs on);
        ap_edges_off = module_edges off.Driver.Compile.mw_analysis;
        ap_edges_on = module_edges on.Driver.Compile.mw_analysis;
        ap_pruned = module_pruned on.Driver.Compile.mw_analysis;
        ap_licensed_off = module_licensed off.Driver.Compile.mw_analysis;
        ap_licensed_on = module_licensed on.Driver.Compile.mw_analysis;
        ap_elapsed_off = elapsed_off;
        ap_elapsed_on = elapsed_on;
        ap_speedup = elapsed_off /. elapsed_on;
        ap_race_violations = violations;
      })
    (absint_series ())

(* --- speculative dispatch (dag+spec) --- *)

type spec_point = {
  zp_series : string;
  zp_functions : int;
  zp_spec_edges : int; (* speculative edges in the plan *)
  zp_hot_edges : int; (* genuinely conflicting speculative edges *)
  zp_elapsed_lpt : float; (* dag+lpt elapsed (every edge gated) *)
  zp_elapsed_spec : float; (* dag+spec elapsed *)
  zp_speedup : float; (* lpt / spec: what speculation buys *)
  zp_dispatched : int;
  zp_committed : int;
  zp_rolled_back : int;
  zp_race_violations : int;
}

(* The "blinded" programs are dynamically independent but compiled with
   the abstract interpretation off and the summary tracking cap below
   the write fan-out, so the analyzer pins every pair with
   summary_limit — the conservative-analysis regime speculation is for.
   The racy program is the adversarial control: its conflicts are real,
   so dag+spec must roll attempts back and still finish correctly. *)
let spec_series () =
  [
    ( "blinded4",
      (fun () -> W2.Gen.speculative_program ~workers:4 ~fanout:24 ()),
      Some 8,
      false,
      4 );
    ( "blinded8",
      (fun () -> W2.Gen.speculative_program ~workers:8 ~fanout:24 ()),
      Some 8,
      false,
      8 );
    ("racy3", (fun () -> W2.Gen.racy_program ~scatters:3 ()), None, true, 3);
  ]

let spec_program_work ?(level = 2) ?max_tracked ~absint ~name
    (make : unit -> W2.Ast.modul) : Driver.Compile.module_work =
  let key =
    Printf.sprintf "spec:%s:%d:%b:%d" name level absint
      (Option.value ~default:(-1) max_tracked)
  in
  memo cache key (fun () ->
      Driver.Compile.compile_source ~level ?max_tracked ~absint
        (W2.Pretty.module_to_string (make ())))

(* Each program is played under dag+lpt (every dependence edge gated)
   and dag+spec (speculative edges overlapped under the commit
   protocol) on a pool matching its width, traced, with the
   speculation-aware race oracle counting violations on the dag+spec
   trace.  [Parrun.run] already asserts both runs race-free; the
   explicit count lands in the benchmark artifact. *)
let spec_sweep ?(cfg = Config.default) () : spec_point list =
  List.map
    (fun (name, make, max_tracked, absint, pool) ->
      let mw =
        spec_program_work ~level:cfg.Config.opt_level ?max_tracked ~absint
          ~name make
      in
      let plan = Plan.one_per_station mw in
      let play policy =
        let tr = Trace.create () in
        let cfg_run =
          {
            cfg with
            Config.stations = pool + 1;
            noise_seed = 3;
            sched_policy = policy;
            trace = tr;
          }
        in
        let r = (Parrun.run cfg_run mw plan).Parrun.run in
        let scheduled =
          Sched.schedule ~static:cfg.Config.static_cost ~policy
            ~cost:cfg.Config.cost ~threshold:cfg.Config.batch_threshold
            ~stations:(pool + 1) plan
        in
        let violations =
          if policy = Sched.Dag_spec then
            List.length (Traceview.race_check_spec tr ~plan:scheduled)
          else List.length (Traceview.race_check tr ~plan:scheduled)
        in
        (r, violations)
      in
      let lpt, _ = play Sched.Dag_lpt in
      let spec, violations = play Sched.Dag_spec in
      {
        zp_series = name;
        zp_functions = List.length (Driver.Compile.all_funcs mw);
        zp_spec_edges =
          List.fold_left
            (fun n (_, es) -> n + List.length es)
            0 plan.Plan.spec_edges;
        zp_hot_edges =
          List.fold_left
            (fun n (_, es) -> n + List.length es)
            0 plan.Plan.hot_edges;
        zp_elapsed_lpt = lpt.Timings.elapsed;
        zp_elapsed_spec = spec.Timings.elapsed;
        zp_speedup = lpt.Timings.elapsed /. spec.Timings.elapsed;
        zp_dispatched = spec.Timings.spec_dispatched;
        zp_committed = spec.Timings.spec_committed;
        zp_rolled_back = spec.Timings.spec_rolled_back;
        zp_race_violations = violations;
      })
    (spec_series ())

(* --- critical-path profile sweep --- *)

type profile_point = {
  fp_series : string;
  fp_policy : Sched.policy;
  fp_pool : int;
  fp_elapsed : float;
  fp_buckets : (string * float) list; (* canonical order, exact sum *)
  fp_dominant : string;
  fp_segments : int;
}

(* Three bottleneck regimes: the overhead-dominated tiny S_8, the
   dependence-coupled helper program, and the speculation-exercising
   blinded program.  One function master per function on pools smaller
   than the task count, so shrinking the pool turns compute time into
   pool-wait time and the dominant bucket shifts. *)
let profile_series ?(level = 2) () =
  [
    ("tiny8", s_program_work ~level ~size:W2.Gen.Tiny ~count:8 ());
    ("helpers", helper_program_work ~level ());
    ( "blinded8",
      spec_program_work ~level ~max_tracked:8 ~absint:false ~name:"blinded8"
        (fun () -> W2.Gen.speculative_program ~workers:8 ~fanout:24 ()) );
  ]

let profile_pools = [ 2; 4; 8 ]
let profile_policies = [ Sched.Fcfs; Sched.Dag_lpt; Sched.Dag_spec ]

let profile_sweep ?(cfg = Config.default) () : profile_point list =
  List.concat_map
    (fun (name, mw) ->
      let plan = Plan.one_per_station mw in
      List.concat_map
        (fun pool ->
          List.map
            (fun policy ->
              let tr = Trace.create () in
              let cfg_run =
                {
                  cfg with
                  Config.stations = pool + 1;
                  noise_seed = 3;
                  sched_policy = policy;
                  trace = tr;
                }
              in
              let r = (Parrun.run cfg_run mw plan).Parrun.run in
              let scheduled =
                Sched.schedule ~static:cfg.Config.static_cost ~policy
                  ~cost:cfg.Config.cost ~threshold:cfg.Config.batch_threshold
                  ~stations:(pool + 1) plan
              in
              let p =
                Critpath.of_trace ~plan:scheduled ~elapsed:r.Timings.elapsed
                  tr
              in
              Critpath.assert_exact p;
              let dominant =
                fst
                  (List.fold_left
                     (fun (bn, bv) (n, v) ->
                       if v > bv then (n, v) else (bn, bv))
                     ("", neg_infinity) p.Critpath.p_buckets)
              in
              {
                fp_series = name;
                fp_policy = policy;
                fp_pool = pool;
                fp_elapsed = p.Critpath.p_elapsed;
                fp_buckets = p.Critpath.p_buckets;
                fp_dominant = dominant;
                fp_segments = List.length p.Critpath.p_segments;
              })
            profile_policies)
        profile_pools)
    (profile_series ())

(* --- content-addressed compile cache: cold / warm / one-edit --- *)

type cache_point = {
  cp_series : string;
  cp_pool : int;
  cp_functions : int;
  cp_edited : string;
  cp_closure : int;
  cp_cold_elapsed : float;
  cp_warm_elapsed : float;
  cp_edit_elapsed : float;
  cp_warm_speedup : float;
  cp_cold_hits : int;
  cp_cold_misses : int;
  cp_warm_hits : int;
  cp_warm_misses : int;
  cp_edit_hits : int;
  cp_edit_misses : int;
  cp_edit_invalidated : int;
}

(* The invalidation closure of editing [name]: the function itself plus
   every transitive dependent in the analyzer's dependence DAG — by the
   key construction ([Analysis.Depan.cache_keys] folds predecessor keys
   in), exactly the set whose keys change, hence exactly the set an
   incremental rebuild recompiles. *)
let edit_closure (t : Analysis.Depan.t) name : int =
  List.fold_left
    (fun acc (si : Analysis.Depan.section_info) ->
      if
        Array.exists
          (fun fi -> fi.Analysis.Depan.fi_name = name)
          si.Analysis.Depan.si_funcs
      then begin
        let edges = Analysis.Depan.edges_by_name si in
        let reached = Hashtbl.create 8 in
        let rec go n =
          if not (Hashtbl.mem reached n) then begin
            Hashtbl.replace reached n ();
            List.iter (fun (f, t', _) -> if f = n then go t') edges
          end
        in
        go name;
        acc + Hashtbl.length reached
      end
      else acc)
    0 t.Analysis.Depan.dp_sections

(* The most coupled function of the module: editing it invalidates the
   largest closure, the sweep's most interesting (and still
   deterministic) incremental edit. *)
let widest_edit (mw : Driver.Compile.module_work) : string =
  let best = ref ("", 0) in
  List.iter
    (fun (fw : Driver.Compile.func_work) ->
      let c = edit_closure mw.Driver.Compile.mw_analysis fw.Driver.Compile.fw_name in
      if c > snd !best then best := (fw.Driver.Compile.fw_name, c))
    (Driver.Compile.all_funcs mw);
  fst !best

(* An edge-free point (closure of any edit = 1), the inline-coupled
   helper program (editing a shared helper invalidates its drivers),
   and the section-4.3 user program. *)
let cache_series () =
  [
    ("medium8", (fun () -> W2.Gen.s_program ~size:W2.Gen.Medium ~count:8 ()), 4);
    ("helpers", (fun () -> W2.Gen.helper_program ()), 4);
    ("user", (fun () -> W2.Gen.user_program ()), 4);
  ]

let cache_program_work ?(level = 2) ~name ?edit (make : unit -> W2.Ast.modul) :
    Driver.Compile.module_work =
  let key =
    Printf.sprintf "cachebench:%s:%d:%s" name level
      (Option.value ~default:"" edit)
  in
  memo cache key (fun () ->
      let m = make () in
      let m = match edit with None -> m | Some f -> W2.Gen.touch_in m f in
      Driver.Compile.compile_module ~level m)

(* Cold, warm and one-edit runs against a single store, dag+lpt on a
   small pool.  The cold run populates (every lookup misses), the warm
   run must hit on every function, and the edit run must recompile
   exactly the edited function's closure — each such miss flagged as an
   invalidation — while hitting on everything else. *)
let cache_sweep ?(cfg = Config.default) () : cache_point list =
  List.map
    (fun (name, make, pool) ->
      let level = cfg.Config.opt_level in
      let mw = cache_program_work ~level ~name make in
      let edited = widest_edit mw in
      let mw_edit = cache_program_work ~level ~name ~edit:edited make in
      let store = Cache.create () in
      let play (mw' : Driver.Compile.module_work) =
        let plan = Plan.one_per_station mw' in
        let cfg_run =
          {
            cfg with
            Config.stations = pool + 1;
            noise_seed = 3;
            sched_policy = Sched.Dag_lpt;
            cache = Some store;
          }
        in
        (Parrun.run cfg_run mw' plan).Parrun.run
      in
      let cold = play mw in
      let warm = play mw in
      let edit = play mw_edit in
      {
        cp_series = name;
        cp_pool = pool;
        cp_functions = List.length (Driver.Compile.all_funcs mw);
        cp_edited = edited;
        cp_closure = edit_closure mw_edit.Driver.Compile.mw_analysis edited;
        cp_cold_elapsed = cold.Timings.elapsed;
        cp_warm_elapsed = warm.Timings.elapsed;
        cp_edit_elapsed = edit.Timings.elapsed;
        cp_warm_speedup = cold.Timings.elapsed /. warm.Timings.elapsed;
        cp_cold_hits = cold.Timings.cache_hits;
        cp_cold_misses = cold.Timings.cache_misses;
        cp_warm_hits = warm.Timings.cache_hits;
        cp_warm_misses = warm.Timings.cache_misses;
        cp_edit_hits = edit.Timings.cache_hits;
        cp_edit_misses = edit.Timings.cache_misses;
        cp_edit_invalidated = edit.Timings.cache_invalidated;
      })
    (cache_series ())

(* --- modular cross-module analysis: compose from summaries, then
   schedule the whole link as one project --- *)

type link_compose_point = {
  lc_shape : string;
  lc_modules : int;
  lc_functions : int;
  lc_edges : int;
  lc_cross_edges : int;
  lc_levels : int;
  lc_module_levels : int;
  lc_licensed : float;
  lc_missing : int;
  lc_diags : (string * int) list;
}

type link_sched_point = {
  lp_shape : string;
  lp_modules : int;
  lp_functions : int;
  lp_policy : Sched.policy;
  lp_pool : int;
  lp_units : int;
  lp_elapsed : float;
  lp_speedup_vs_fcfs : float;
  lp_cross_edges : int;
  lp_spec_edges : int;
  lp_race_violations : int;
}

let link_compose_sizes = [ 100; 200; 400 ]
let link_sched_sizes = [ 24; 48 ]
let link_pool = 8

(* Summarize each module separately (the project driver keys each
   against the providers before it), then force every summary
   through the .wsi artifact: composition must see exactly what a
   separate build persists, nothing more. *)
let link_summaries (mods : W2.Ast.modul list) : Analysis.Modan.module_summary list =
  fst (Analysis.Modan.summarize_project (List.map (fun m -> ("", fun () -> m)) mods))
  |> List.map (fun s -> Analysis.Modan.of_artifact (Analysis.Modan.to_artifact s))

let link_cross_edges (link : Analysis.Modan.link) =
  List.length
    (List.filter
       (fun (e : Analysis.Modan.xedge) ->
         e.Analysis.Modan.x_from_module <> e.Analysis.Modan.x_to_module)
       link.Analysis.Modan.lk_edges)

let link_compose_sweep () : link_compose_point list =
  List.concat_map
    (fun shape ->
      List.map
        (fun n ->
          let mods = W2.Gen.project_program ~modules:n ~seed:1 ~shape () in
          let link = Analysis.Modan.compose (link_summaries mods) in
          let diags =
            List.sort compare
              (List.fold_left
                 (fun acc (d : W2.Diag.t) ->
                   let c = d.W2.Diag.d_code in
                   match List.assoc_opt c acc with
                   | Some k -> (c, k + 1) :: List.remove_assoc c acc
                   | None -> (c, 1) :: acc)
                 [] link.Analysis.Modan.lk_diags)
          in
          {
            lc_shape = W2.Gen.shape_name shape;
            lc_modules = n;
            lc_functions = List.length link.Analysis.Modan.lk_funcs;
            lc_edges = List.length link.Analysis.Modan.lk_edges;
            lc_cross_edges = link_cross_edges link;
            lc_levels = List.length link.Analysis.Modan.lk_levels;
            lc_module_levels = List.length link.Analysis.Modan.lk_module_levels;
            lc_licensed = link.Analysis.Modan.lk_licensed;
            lc_missing = List.length link.Analysis.Modan.lk_missing;
            lc_diags = diags;
          })
        link_compose_sizes)
    W2.Gen.all_shapes

let link_cache :
    (string, Driver.Compile.module_work * Analysis.Modan.link) Hashtbl.t =
  Hashtbl.create 8

let link_program_work ?(level = 2) ~shape ~modules () :
    Driver.Compile.module_work * Analysis.Modan.link =
  let key =
    Printf.sprintf "link:%s:%d:%d" (W2.Gen.shape_name shape) modules level
  in
  memo link_cache key (fun () ->
      let mods = W2.Gen.project_program ~modules ~seed:1 ~shape () in
      let link = Analysis.Modan.compose (link_summaries mods) in
      let merged = Analysis.Modan.inline_project mods in
      ( Driver.Compile.compile_source ~level (W2.Pretty.module_to_string merged),
        link ))

(* The project plan: one master per function over the inlined program,
   with the whole-program DAG replaced by the composed one.  The
   composed edge set is a superset of what the whole-program analyzer
   finds (the modan soundness theorem), so gating on it stays
   conservative; hot edges keep the merged analysis's proof of real
   sharing, restricted to pairs the composed DAG still speculates
   past. *)
let link_plan (mw : Driver.Compile.module_work) (link : Analysis.Modan.link) :
    Plan.t =
  let plan = Plan.one_per_station mw in
  let deps = Analysis.Modan.func_deps link in
  let specs = Analysis.Modan.spec_deps link in
  let spec_set = Hashtbl.create (1 + List.length specs) in
  List.iter (fun p -> Hashtbl.replace spec_set p ()) specs;
  let hot =
    List.map
      (fun (s, es) -> (s, List.filter (Hashtbl.mem spec_set) es))
      plan.Plan.hot_edges
  in
  {
    plan with
    Plan.func_deps = List.map (fun (s, _) -> (s, deps)) plan.Plan.func_deps;
    spec_edges = List.map (fun (s, _) -> (s, specs)) plan.Plan.spec_edges;
    hot_edges = hot;
  }

let link_sched_sweep ?(cfg = Config.default) () : link_sched_point list =
  List.concat_map
    (fun shape ->
      List.concat_map
        (fun modules ->
          let mw, link =
            link_program_work ~level:cfg.Config.opt_level ~shape ~modules ()
          in
          let plan = link_plan mw link in
          let pool = link_pool in
          let play policy =
            let tr = Trace.create () in
            let cfg_run =
              {
                cfg with
                Config.stations = pool + 1;
                noise_seed = 3;
                sched_policy = policy;
                trace = tr;
              }
            in
            let r = (Parrun.run cfg_run mw plan).Parrun.run in
            let violations =
              if policy = Sched.Fcfs then 0
                (* FCFS ignores the DAG; the oracle only judges the
                   DAG-gated policies *)
              else
                let scheduled =
                  Sched.schedule ~static:cfg.Config.static_cost ~policy
                    ~cost:cfg.Config.cost ~threshold:cfg.Config.batch_threshold
                    ~stations:(pool + 1) plan
                in
                if policy = Sched.Dag_spec then
                  List.length (Traceview.race_check_spec tr ~plan:scheduled)
                else List.length (Traceview.race_check tr ~plan:scheduled)
            in
            (r, violations)
          in
          let fcfs, _ = play Sched.Fcfs in
          let spec_edge_count =
            List.fold_left
              (fun n (_, es) -> n + List.length es)
              0 plan.Plan.spec_edges
          in
          List.map
            (fun policy ->
              let r, violations =
                if policy = Sched.Fcfs then (fcfs, 0) else play policy
              in
              {
                lp_shape = W2.Gen.shape_name shape;
                lp_modules = modules;
                lp_functions = List.length (Driver.Compile.all_funcs mw);
                lp_policy = policy;
                lp_pool = pool;
                lp_units = r.Timings.dispatch_units;
                lp_elapsed = r.Timings.elapsed;
                lp_speedup_vs_fcfs =
                  fcfs.Timings.elapsed /. r.Timings.elapsed;
                lp_cross_edges = link_cross_edges link;
                lp_spec_edges = spec_edge_count;
                lp_race_violations = violations;
              })
            [ Sched.Fcfs; Sched.Dag_lpt; Sched.Dag_spec ])
        link_sched_sizes)
    W2.Gen.all_shapes
