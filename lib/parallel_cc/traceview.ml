(* Trace-derived views of a parallel run.

   [recover] recomputes the [Timings.run] recovery bookkeeping (master/
   section/re-parse CPU, retries, fallbacks, wasted CPU, lost stations)
   purely from the recorded spans, and [assert_matches_run] checks the
   two agree — the spans carry their nominal seconds formatted to
   round-trip exactly ([Trace.farg]) and are summed in emission order,
   which is also the order the mutable counters accumulated in, so the
   float sums must match bit for bit.  Any divergence means an emit
   site and a counter site fell out of step.

   [decompose] then rebuilds the paper's section 4.2.3 overhead
   decomposition (Figures 8-10) from the trace alone, mirroring
   [Timings.compare_runs] formula for formula. *)

type recovered = {
  r_master_cpu : float; (* setup parse + scheduling *)
  r_section_cpu : float; (* directive interpretation + combining *)
  r_extra_parse_cpu : float; (* function masters re-parsing *)
  r_retries : int;
  r_timeouts : int;
  r_attempts_lost : int;
  r_fallback_tasks : int;
  r_wasted_cpu : float;
  r_stations_lost : int;
  r_spec_dispatched : int; (* "spec-dispatch" instants *)
  r_spec_committed : int; (* "spec-commit" spans *)
  r_spec_rolled_back : int; (* "spec-abort" spans *)
  r_cache_hits : int; (* "cache"/"cache-hit" instants *)
  r_cache_misses : int; (* "cache"/"cache-miss" instants *)
  r_cache_invalidated : int; (* the misses flagged invalidated=1 *)
  r_cache_stores : int; (* "cache"/"cache-store" instants; no run
                           counter — the store itself is the ledger
                           ([Cache.store_count]) *)
}

let span_tag (s : Trace.span) =
  match List.assoc_opt "tag" s.Trace.args with Some t -> t | None -> "cpu"

let span_ok (s : Trace.span) =
  match List.assoc_opt "outcome" s.Trace.args with
  | Some "ok" -> true
  | _ -> false

let nominal (s : Trace.span) =
  match Trace.arg_float "nominal" s.Trace.args with Some v -> v | None -> 0.0

let recover ?elapsed (tr : Trace.t) : recovered =
  let elapsed =
    match elapsed with Some e -> e | None -> Trace.end_time tr
  in
  let master = ref 0.0 and section = ref 0.0 and parse = ref 0.0 in
  let fallbacks = ref 0 in
  let commits = ref 0 and aborts = ref 0 in
  List.iter
    (fun (s : Trace.span) ->
      match s.Trace.cat with
      | "cpu" when span_ok s -> (
        (* Only completed computes reach the counters: a crashed slice
           is charged to busy seconds but not to the overhead account. *)
        match span_tag s with
        | "setup-parse" | "sched" -> master := !master +. nominal s
        | "sect-interpret" | "combine" -> section := !section +. nominal s
        | "reparse" -> parse := !parse +. nominal s
        | _ -> ())
      | "task" when s.Trace.name = "fallback" -> incr fallbacks
      | "task" when s.Trace.name = "spec-commit" -> incr commits
      | "task" when s.Trace.name = "spec-abort" -> incr aborts
      | _ -> ())
    (Trace.spans tr);
  let retries = ref 0 and timeouts = ref 0 and lost_attempts = ref 0 in
  let dispatched = ref 0 in
  let wasted = ref 0.0 in
  let hits = ref 0 and misses = ref 0 and invalidated = ref 0 in
  let stores = ref 0 in
  let lost = Hashtbl.create 8 in
  List.iter
    (fun (i : Trace.instant) ->
      match (i.Trace.i_cat, i.Trace.i_name) with
      | "task", "retry" -> incr retries
      | "task", "timeout" -> incr timeouts
      | "task", "attempt-lost" -> incr lost_attempts
      | "task", "spec-dispatch" -> incr dispatched
      | "task", "wasted" -> (
        match Trace.arg_float "cpu" i.Trace.i_args with
        | Some v -> wasted := !wasted +. v
        | None -> ())
      | "cache", "cache-hit" -> incr hits
      | "cache", "cache-miss" ->
        incr misses;
        if List.assoc_opt "invalidated" i.Trace.i_args = Some "1" then
          incr invalidated
      | "cache", "cache-store" -> incr stores
      | "fault", ("crash" | "reclaim") ->
        if i.Trace.at <= elapsed then Hashtbl.replace lost i.Trace.i_track ()
      | _ -> ())
    (Trace.instants tr);
  {
    r_master_cpu = !master;
    r_section_cpu = !section;
    r_extra_parse_cpu = !parse;
    r_retries = !retries;
    r_timeouts = !timeouts;
    r_attempts_lost = !lost_attempts;
    r_fallback_tasks = !fallbacks;
    r_wasted_cpu = !wasted;
    r_stations_lost = Hashtbl.length lost;
    r_spec_dispatched = !dispatched;
    r_spec_committed = !commits;
    r_spec_rolled_back = !aborts;
    r_cache_hits = !hits;
    r_cache_misses = !misses;
    r_cache_invalidated = !invalidated;
    r_cache_stores = !stores;
  }

let assert_matches_run (tr : Trace.t) (run : Timings.run) : unit =
  let r = recover ~elapsed:run.Timings.elapsed tr in
  let fail what expected got =
    failwith
      (Printf.sprintf
         "Traceview: trace-derived %s = %s disagrees with run counter %s" what
         got expected)
  in
  let check_f what expected got =
    if got <> expected then
      fail what (Printf.sprintf "%.17g" expected) (Printf.sprintf "%.17g" got)
  in
  let check_i what expected got =
    if got <> expected then
      fail what (string_of_int expected) (string_of_int got)
  in
  check_f "master CPU" run.Timings.master_cpu r.r_master_cpu;
  check_f "section CPU" run.Timings.section_cpu r.r_section_cpu;
  check_f "extra-parse CPU" run.Timings.extra_parse_cpu r.r_extra_parse_cpu;
  check_f "wasted CPU" run.Timings.wasted_cpu r.r_wasted_cpu;
  check_i "retries" run.Timings.retries r.r_retries;
  check_i "fallback tasks" run.Timings.fallback_tasks r.r_fallback_tasks;
  check_i "stations lost" run.Timings.stations_lost r.r_stations_lost;
  check_i "speculative dispatches" run.Timings.spec_dispatched
    r.r_spec_dispatched;
  check_i "speculative commits" run.Timings.spec_committed r.r_spec_committed;
  check_i "speculative rollbacks" run.Timings.spec_rolled_back
    r.r_spec_rolled_back;
  check_i "cache hits" run.Timings.cache_hits r.r_cache_hits;
  check_i "cache misses" run.Timings.cache_misses r.r_cache_misses;
  check_i "cache invalidations" run.Timings.cache_invalidated
    r.r_cache_invalidated

type decomposition = {
  d_processors : int;
  d_elapsed : float; (* latest non-fault span end *)
  d_ideal : float;
  d_total_overhead : float;
  d_impl_overhead : float;
  d_sys_overhead : float;
  d_rel_total_overhead : float;
  d_rel_sys_overhead : float;
}

let decompose ~processors ~seq_elapsed (tr : Trace.t) : decomposition =
  let elapsed = Trace.end_time tr in
  let r = recover ~elapsed tr in
  let ideal = seq_elapsed /. float_of_int (max 1 processors) in
  let total = elapsed -. ideal in
  let impl = r.r_master_cpu +. r.r_section_cpu +. r.r_extra_parse_cpu in
  let sys = total -. impl in
  {
    d_processors = processors;
    d_elapsed = elapsed;
    d_ideal = ideal;
    d_total_overhead = total;
    d_impl_overhead = impl;
    d_sys_overhead = sys;
    d_rel_total_overhead = Stats.percent_of ~part:total ~total:elapsed;
    d_rel_sys_overhead = Stats.percent_of ~part:sys ~total:elapsed;
  }

let decomposition_table (d : decomposition) : Stats.Table.t =
  let table =
    Stats.Table.make ~title:"Trace-derived overhead decomposition"
      ~columns:[ "quantity"; "seconds" ]
  in
  List.fold_left
    (fun table (label, v) ->
      Stats.Table.add_row table [ label; Printf.sprintf "%.2f" v ])
    table
    [
      ("elapsed", d.d_elapsed);
      ("ideal", d.d_ideal);
      ("total overhead", d.d_total_overhead);
      ("implementation overhead", d.d_impl_overhead);
      ("system overhead", d.d_sys_overhead);
      ("total overhead %", d.d_rel_total_overhead);
      ("system overhead %", d.d_rel_sys_overhead);
    ]

(* --- dependence-order oracle --- *)

(* The DAG policies promise that a task claims its station only after
   every predecessor's output is durably written back.  This oracle
   re-derives that ordering from the span store alone: each task gets a
   logical clock that ticks at its first claim and at its earliest
   durable write-back (the winning attempt's — superseded stragglers
   write back later and are ignored, exactly as their outputs are), and
   each promised edge demands finish(before) <= start(after).  Because
   the only cross-task edges the schedule promises are the analyzer's,
   this is a two-entry vector clock per edge; anything richer would
   re-verify the DES itself. *)

type ordering_violation = {
  ov_section : string;
  ov_before : string;
  ov_after : string;
  ov_finish : float; (* earliest durable write-back of [ov_before] *)
  ov_start : float; (* first claim of [ov_after] *)
}

let violation_to_string (v : ordering_violation) =
  Printf.sprintf
    "section %s: task '%s' claimed at %.6f before its dependence '%s' \
     wrote back at %.6f"
    v.ov_section v.ov_after v.ov_start v.ov_before v.ov_finish

(* Span args identify tasks by head-function label only, so a label
   reused across sections cannot be attributed; skip such edges rather
   than report phantom races. *)
let unambiguous_labels (plan : Plan.t) =
  let owners = Hashtbl.create 32 in
  List.iter
    (fun (_, tasks) ->
      List.iter
        (fun t ->
          match Plan.task_head t with
          | Some l ->
            Hashtbl.replace owners l
              (1 + Option.value ~default:0 (Hashtbl.find_opt owners l))
          | None -> ())
        tasks)
    plan.Plan.tasks_per_section;
  fun l -> Hashtbl.find_opt owners l = Some 1

(* Per-label marks recovered from the span store: the first claim over
   all attempts, the first claim of each particular attempt, and the
   earliest durable publication (write-back, fallback, or speculative
   commit — a committed stage IS the durable artifact, its quarantined
   sibling never becomes readable) together with the attempt that won
   it. *)
type marks = {
  m_first_claim : (string, float) Hashtbl.t;
  m_claim_of_attempt : (string * string, float) Hashtbl.t;
  m_durable : (string, float * string) Hashtbl.t;
}

let collect_marks (tr : Trace.t) : marks =
  let m =
    {
      m_first_claim = Hashtbl.create 32;
      m_claim_of_attempt = Hashtbl.create 32;
      m_durable = Hashtbl.create 32;
    }
  in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.cat = "task" then
        match List.assoc_opt "task" s.Trace.args with
        | None -> ()
        | Some label -> (
          let attempt =
            Option.value ~default:"" (List.assoc_opt "attempt" s.Trace.args)
          in
          match s.Trace.name with
          | "claim" ->
            let t0 = s.Trace.t0 in
            (match Hashtbl.find_opt m.m_first_claim label with
            | Some t when t <= t0 -> ()
            | _ -> Hashtbl.replace m.m_first_claim label t0);
            (match Hashtbl.find_opt m.m_claim_of_attempt (label, attempt) with
            | Some t when t <= t0 -> ()
            | _ -> Hashtbl.replace m.m_claim_of_attempt (label, attempt) t0)
          | "write-back" | "fallback" | "spec-commit" ->
            let t1 = s.Trace.t1 in
            (match Hashtbl.find_opt m.m_durable label with
            | Some (t, _) when t <= t1 -> ()
            | _ -> Hashtbl.replace m.m_durable label (t1, attempt))
          | _ -> ()))
    (Trace.spans tr);
  m

(* Check every [func_deps] edge of [plan] as finish(before) <=
   start(after), where the successor's start is chosen by [start_of]
   (first claim for gated edges; the winning attempt's claim for
   speculative ones). *)
let edge_violations (m : marks) ~(plan : Plan.t) ~func_deps ~start_of :
    ordering_violation list =
  let unambiguous = unambiguous_labels plan in
  let violations = ref [] in
  List.iter
    (fun (section, tasks) ->
      let deps = Sched.task_deps ~func_deps ~section tasks in
      let arr = Array.of_list tasks in
      Array.iteri
        (fun j ds ->
          List.iter
            (fun i ->
              match (Plan.task_head arr.(i), Plan.task_head arr.(j)) with
              | Some before, Some after
                when unambiguous before && unambiguous after -> (
                match
                  ( Hashtbl.find_opt m.m_durable before,
                    start_of m after )
                with
                | Some (finish, _), Some start when start < finish ->
                  violations :=
                    {
                      ov_section = section;
                      ov_before = before;
                      ov_after = after;
                      ov_finish = finish;
                      ov_start = start;
                    }
                    :: !violations
                | _ -> ())
              | _ -> ())
            ds)
        deps)
    plan.Plan.tasks_per_section;
  List.rev !violations

let first_claim (m : marks) label = Hashtbl.find_opt m.m_first_claim label

(* The claim of the attempt whose publication became durable.  A task
   finished by the master's sequential fallback has no claim span for
   the winning "attempt"; the fallback runs in the master's own Lisp
   over the already-parsed module, so such edges are vacuous and the
   lookup's [None] skips them. *)
let winning_claim (m : marks) label =
  match Hashtbl.find_opt m.m_durable label with
  | None -> None
  | Some (_, attempt) -> Hashtbl.find_opt m.m_claim_of_attempt (label, attempt)

let race_check (tr : Trace.t) ~(plan : Plan.t) : ordering_violation list =
  edge_violations (collect_marks tr) ~plan ~func_deps:plan.Plan.func_deps
    ~start_of:first_claim

(* The dag+spec promise is weaker than the gated one, and different per
   edge class:
   - proven edges are still gated: no attempt of the successor may
     claim before the predecessor's durable publication;
   - hot speculative edges (pairs the uncapped effect summaries show
     really conflict) may be overlapped by attempts that lose, but the
     WINNING attempt — the one whose output readers see — must have
     claimed after the predecessor published;
   - cold speculative edges (conservative analysis artifacts between
     pairs that share no state) are unconstrained. *)
let race_check_spec (tr : Trace.t) ~(plan : Plan.t) : ordering_violation list =
  let m = collect_marks tr in
  edge_violations m ~plan ~func_deps:(Plan.proven_deps plan)
    ~start_of:first_claim
  @ edge_violations m ~plan ~func_deps:plan.Plan.hot_edges
      ~start_of:winning_claim

let assert_race_free (tr : Trace.t) ~(plan : Plan.t) : unit =
  match race_check tr ~plan with
  | [] -> ()
  | vs ->
    failwith
      ("Traceview.race_check: dependence-order violation(s):\n"
      ^ String.concat "\n" (List.map violation_to_string vs))

let assert_race_free_spec (tr : Trace.t) ~(plan : Plan.t) : unit =
  match race_check_spec tr ~plan with
  | [] -> ()
  | vs ->
    failwith
      ("Traceview.race_check_spec: dependence-order violation(s):\n"
      ^ String.concat "\n" (List.map violation_to_string vs))
