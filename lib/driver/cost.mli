(** Compilation cost model: deterministic work units (measured while
    the real compiler runs) → simulated seconds on a 1989 SUN
    workstation running the Common-Lisp compiler, plus the memory
    behaviour that drives GC and paging.

    Calibration anchors from the paper: ~300-line functions ≈ 19-22
    sequential minutes and small functions 2-6 minutes (§4.3); parsing
    under 5% of sequential compilation (§3.4); the sequential compiler
    thrashes on modules exceeding one workstation's memory (§4.2.3);
    Lisp startup downloads a multi-megabyte core image (§4.2.3). *)

type model = {
  sec_per_token : float; (** phase 1 *)
  sec_per_ast_node : float;
  sec_per_opt_unit : float; (** phase 2 *)
  sec_per_sched_unit : float; (** phase 3 *)
  sec_per_wide : float;
  func_fixed_seconds : float; (** per-function Lisp bookkeeping *)
  sec_per_wide_assembly : float; (** phase 4 *)
  sec_per_image_byte : float;
  workstation_mb : float;
  lisp_core_mb : float;
  ast_mb_per_loc : float;
  data_mb_per_loc : float; (** live data while compiling one function *)
  retained_mb_per_loc : float;
      (** kept by the sequential Lisp until the end, per compiled line *)
  parse_garbage_mb_per_loc : float;
      (** phase-1 garbage in the sequential Lisp's heap *)
  parse_garbage_cap_mb : float; (** the collector eventually reclaims it *)
  gc_slope : float; (** above [gc_knee] of physical memory *)
  gc_knee : float;
  page_coeff : float;
      (** paging above 1.0; diskless stations page through the shared
          file server, so the cost scales with the square of the number
          of paging stations *)
  max_slowdown : float;
  lisp_core_bytes : float; (** downloaded at Lisp process start *)
  lisp_init_seconds : float;
  c_process_seconds : float; (** master / section-master startup *)
  fm_fork_seconds : float;
      (** remote process creation, serialized in the forking parent *)
  source_bytes_per_loc : float;
  diagnostic_bytes : float;
}

val default : model
(** The calibrated 1989 host (see DESIGN.md section 5b). *)

(** {1 Time} *)

val phase1_seconds : model -> Compile.module_work -> float
(** Parse + semantic check of the whole module. *)

val setup_parse_seconds : model -> Compile.module_work -> float
(** The master's extra structure-discovering parse (implementation
    overhead). *)

val phase23_seconds : model -> Compile.func_work -> float
(** One function master's compile work (nominal; memory slowdowns are
    applied by the simulation). *)

val task_phase23_seconds : model -> Compile.func_work list -> float
(** Estimated phases-2+3 compute of a task compiling several functions
    in one function master: the sum of the functions'
    {!phase23_seconds}.  This is the cost signal the parallel
    compiler's scheduler ranks (LPT) and batches by, and a term of the
    supervision deadline. *)

val static_task_seconds : model -> Compile.func_work list -> float
(** Sum of each function's static phases-2+3 estimate over a task's
    functions — the [--static-cost] scheduling signal: the abstract
    interpretation's statement-execution bound ([fw_static_units])
    priced as optimizer work units, or {!phase23_seconds} when the
    bound is missing. *)

val phase4_seconds : model -> Compile.module_work -> float
(** Assembly, linking, I/O drivers. *)

val combine_seconds : Compile.section_work -> float
(** Section master combining results and diagnostics (includes a
    per-diagnostic merge share). *)

val task_diag_bytes : Compile.func_work list -> float
(** Bytes of rendered diagnostics a task's function masters write back
    with their results, on top of the fixed [diagnostic_bytes]
    framing. *)

val phase2_seconds : model -> Compile.func_work -> float
(** Fine-grained split: the optimizer half of a function's work. *)

val phase3_seconds : model -> Compile.func_work -> float
(** Fine-grained split: the scheduling/codegen half. *)

val ir_bytes : Compile.func_work -> float
(** Size of the serialized optimized IR a phase-2 master ships to a
    phase-3 master. *)

(** {1 Memory} *)

val function_master_mb : model -> Compile.func_work -> float
(** Resident set of a function master compiling one function. *)

val sequential_mb :
  model -> Compile.module_work -> compiled_loc:int -> current_loc:int -> float
(** Resident set of the sequential compiler while compiling a function,
    given how many lines it has already compiled (its heap never
    shrinks). *)

val slowdown : model -> pressure:float -> pagers:int -> float
(** CPU slowdown at the given memory pressure when [pagers] stations
    cluster-wide are paging simultaneously. *)

val source_bytes : model -> int -> float
