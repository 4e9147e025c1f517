(** Parallel make versus the parallel compiler (paper, section 3.4):
    four build strategies for a system of independent modules sharing
    one cluster. *)

type strategy =
  | Sequential (** one workstation, modules in order *)
  | Parallel_make (** concurrent modules, sequential compiler each *)
  | Parallel_cc (** modules in order, each compiled in parallel *)
  | Combined (** concurrent modules, each compiled in parallel *)

val strategy_name : strategy -> string
(** Human-readable label, e.g. ["parallel make"]. *)

type result = {
  strategy : strategy;
  elapsed : float; (** simulated seconds for the whole system build *)
  stations_used : int;
}

val run_all :
  Config.t -> stations:int -> Driver.Compile.module_work list -> result list
(** Build the module list under all four strategies, in declaration
    order, each on a fresh [stations]-sized cluster. *)
