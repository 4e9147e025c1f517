(** List scheduling of one basic block onto the wide-instruction cell:
    greedy cycle-by-cycle placement of ready operations in decreasing
    critical-path height, padded so every result is written before the
    terminator executes.

    Readiness is incremental: each op counts its unissued predecessors
    and keeps an earliest cycle, raised to [c + max delay 1] when a
    predecessor issues at cycle [c] (a predecessor must issue in an
    earlier cycle, whatever its delay).  Each cycle, every ready op
    counts one attempt and the highest (height desc, index asc) ready
    op of each unit takes that unit's slot.  Cost: O((n + E) log n +
    cycles) for [n] ops and [E] edges of the reduced straight-line
    {!Ddg.build} graph. *)

type schedule = {
  code : Mcode.wide array;
  issue : int array; (** issue cycle per op *)
  attempts : int; (** placement trials: phase-3 work units *)
}

val run : Midend.Ir.instr array -> schedule
