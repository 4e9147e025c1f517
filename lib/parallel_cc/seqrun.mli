(** The sequential compiler on the simulated host: one workstation, one
    Common-Lisp process doing all four phases in order; its heap holds
    the whole module, so memory pressure grows as compilation proceeds
    (the paper's explanation of the sequential compiler's own system
    overhead). *)

val compile_process :
  ?stats:Timings.stats ->
  Config.t ->
  Netsim.Des.t ->
  Netsim.Host.cluster ->
  noise:(int -> float) ->
  salt:int ->
  Driver.Compile.module_work ->
  on_finish:(float -> unit) ->
  unit ->
  unit
(** The spawnable body of one sequential compilation: claims a
    workstation, runs the four phases, releases it, and reports its
    completion time.  Reused by the parallel-make study, where several
    instances share a cluster ([salt] decorrelates their noise).
    [stats] receives the run's counters (one dispatch unit and the
    compile-cache tallies); omit it to discard them. *)

val run : Config.t -> Driver.Compile.module_work -> Timings.run
(** One sequential compilation on a fresh cluster. *)
