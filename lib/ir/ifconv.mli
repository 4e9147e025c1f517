(** If-conversion: small branch diamonds (and triangles) become
    straight-line code ending in [Sel] instructions, one per register
    the arms define.  Arms must be short, pure, non-trapping and
    load-free (speculating a guarded out-of-bounds access would add a
    fault).  The payoff is downstream: loop bodies that become single
    blocks are candidates for software pipelining. *)

val run : Ir.func -> int
(** Convert to a fixpoint; returns the number of conversions. *)
