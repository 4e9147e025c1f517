(** Iterative modulo scheduling — the software-pipelining heart of
    phase 3 (Rau's IMS with ejection).

    Operations of a single-block loop body are placed at times σ(op)
    such that every dependence edge (a → b, delay, dist) satisfies
    σ(b) ≥ σ(a) + delay − II·dist, with one operation per functional
    unit per II-slot.  Registers are physical (allocation happens
    first), so the wrapped anti-dependences bound every lifetime by II:
    the kernel is valid with the original register names, and the
    overlapped schedule of a constant-trip loop can be emitted flat.

    The search computes the exact recurrence-constrained MII with a
    Bellman–Ford feasibility test, applies a profitability cut-off
    (overlap must be able to recover at least half the critical path),
    and bounds its total effort. *)

type result = {
  ii : int; (** achieved initiation interval *)
  sigma : int array; (** issue time of each op within one iteration *)
  makespan : int; (** σ + latency, maximised *)
  attempts : int; (** placement trials: phase-3 work units *)
}

exception No_schedule of int
(** No schedule found (profitability cut, II range exhausted, or budget
    spent); the payload is the work spent trying — it still counts as
    compilation time. *)

val run : Midend.Ir.instr array -> result
(** @raise No_schedule as described above. *)

val emit_flat : Midend.Ir.instr array -> result -> trip:int -> Mcode.wide array
(** The full overlapped schedule for [trip] iterations: op of iteration
    [j] at σ(op) + II·j.  Resource-legal by construction. *)
