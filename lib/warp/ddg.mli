(** Data-dependence graphs over the operations of one basic block.

    Edges carry (delay, distance): a dependence from [a] to [b] with
    distance [d] means instance (b, iteration k+d) must issue no
    earlier than issue(a, iteration k) + delay.  Distance-0 edges order
    operations of one iteration; distance-1 edges wrap around the loop
    (any pair, either program order, self-edges included) and are what
    the modulo scheduler prices. *)

type edge = { src : int; dst : int; delay : int; dist : int }

type t = {
  ops : Midend.Ir.instr array;
  edges : edge list;
  succs : (int * int * int) list array; (** (dst, delay, dist) *)
  preds : (int * int * int) list array; (** (src, delay, dist) *)
}

val hazard_delay : Midend.Ir.instr -> Midend.Ir.instr -> int option
(** Maximum delay of the register/memory/queue hazards between a first
    and a second operation; [None] when independent. *)

val build : ?loop:bool -> Midend.Ir.instr array -> t
(** [build ops] is the straight-line graph, transitively reduced: it
    keeps only the pairs found by last-accessor tables (last def and
    uses since it per register, last store and loads since it per
    array, the previous queue op), and each kept edge carries the exact
    {!hazard_delay} of its pair.  Every dropped hazard pair is
    path-dominated — some kept path between the two ops has at least
    its delay — so {!heights} and list-scheduling readiness match the
    complete graph.  Built in one pass over the ops.

    [build ~loop:true] is complete: every forward pair at distance 0
    plus the wrapped distance-1 edges, O(n{^2}).  The modulo scheduler
    needs every pair and prices its probes by the edge count. *)

val heights : t -> int array
(** Critical-path height over distance-0 edges — the scheduling
    priority. *)
