(** Real multicore execution of the master / section-master /
    function-master hierarchy using OCaml domains.

    The discrete-event simulation reproduces the paper's measurements
    on a period-accurate host; this driver demonstrates that the same
    orchestration runs the {e actual} compiler in parallel on today's
    hardware: one domain per function master, FCFS over a bounded pool,
    sections independent, phases 1 and 4 sequential — the structure of
    the paper's figure 2. *)

type result = {
  images : (string * Warp.Mcode.image) list; (** per section *)
  functions_compiled : int;
  wall_seconds : float; (** monotonic wall clock, phases 1 to 4 *)
}

val compile_parallel :
  ?workers:int -> ?level:int -> W2.Ast.modul -> result
(** Compile with up to [workers] function masters running as domains.
    The master blocks (no spinning) until every function master has
    finished; a function master that raises neither kills its worker nor
    strands the master.
    @raise Driver.Compile.Compile_error on phase-1 failure.
    @raise exn the first exception raised by any function master,
    after all workers have stopped. *)
