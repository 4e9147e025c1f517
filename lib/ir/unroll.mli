(** Full unrolling of constant-trip innermost counted loops (the
    optimization the paper names among those that "increase the size of
    the program to be compiled").

    Registers need no renaming: the copies execute sequentially with
    exactly the per-iteration register semantics of the original loop,
    and the increments are kept so the loop variable's final value is
    preserved. *)

val run : Ir.func -> int
(** Returns the number of loops unrolled. *)
