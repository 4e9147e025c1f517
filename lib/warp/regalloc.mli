(** Linear-scan register allocation (Poletto/Sarkar style).

    Virtual registers get single conservative live intervals over a
    linearization of the blocks; interval overlap soundly approximates
    interference under any control flow.  Under pressure, the active
    interval with the furthest end is spilled to a per-activation
    [$spill] array; allocation restarts after rewriting and terminates
    because every restart strictly grows the spill set. *)

type result = {
  func : Midend.Ir.func; (** registers now physical *)
  param_locs : int list; (** where this function's arguments arrive *)
  spilled : int; (** spill slots allocated *)
}

exception Too_many_params of string

val run : ?reg_limit:int -> Midend.Ir.func -> result
(** Allocate; [reg_limit] defaults to {!Machine.num_allocatable} (low
    values exercise spilling).
    @raise Too_many_params if parameters alone exceed the registers. *)
