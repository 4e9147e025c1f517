(** Phase 3: code generation.

    Per function: find software-pipelining candidates (canonical
    counted loops with constant trips and call-free single-block
    bodies); allocate registers; split blocks at calls (calls become
    block terminators); then schedule — modulo scheduling with flat
    emission for the pipelined bodies, list scheduling elsewhere. *)

type compiled = {
  mfunc : Mcode.mfunc;
  sched_work : int; (** placement attempts (phase-3 work units) *)
  spilled : int;
  pipelined : int; (** loops software-pipelined *)
  ii_total : int; (** sum of achieved initiation intervals *)
  wide_count : int; (** code size *)
}

val pipeline_candidates :
  Midend.Ir.func -> (Midend.Counted.t * int) list
(** Counted loops eligible for software pipelining, with their trip
    counts.  Found on virtual registers (the dead-guard check needs
    unaliased names); block ids survive allocation and call
    splitting. *)

val compile_function :
  ?pipeline:bool -> ?reg_limit:int -> Midend.Ir.func -> compiled
(** [pipeline:false] disables software pipelining (ablation);
    [reg_limit] exercises spilling.  The input is copied, never
    mutated. *)
