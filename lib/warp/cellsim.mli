(** Cycle-level simulator for one Warp-like cell.

    Executes a linked image with the pipeline semantics the schedulers
    assume: operations read registers at issue and write them
    [latency] cycles later; one operation per functional unit per
    cycle; stores become visible to the next cycle's loads; a block's
    terminator executes one cycle after its last wide instruction.

    Queue operations go through {!type:ports}; a wide instruction whose
    queue operation cannot proceed stalls the whole cell for that
    cycle.  Calls push a fresh register window and fresh local arrays,
    so they clobber nothing in the caller. *)

type value = Midend.Ir_interp.value

exception Fault of string

type ports = {
  recv : W2.Ast.channel -> value option; (** [None]: would block *)
  send : W2.Ast.channel -> value -> bool; (** [false]: would block *)
}

val script_ports :
  input_x:value list ->
  input_y:value list ->
  ports * (unit -> value list * value list)
(** Scripted input queues and recorded output; the second component
    returns the (X, Y) output so far. *)

type status = Running | Blocked | Halted

type t = {
  image : Mcode.image;
  ports : ports;
  mutable stack : frame list;
  mutable cycle : int;
  mutable result : value option;
  mutable status : status;
}

and frame

val create : ?ports:ports -> Mcode.image -> name:string -> args:value list -> t

val step : t -> status
(** Execute one cycle. *)

val run :
  ?fuel:int ->
  ?ports:ports ->
  Mcode.image ->
  name:string ->
  args:value list ->
  value option * int
(** Run to completion; returns the result and the cycle count.
    @raise Fault on runtime errors, deadlock, or fuel exhaustion. *)
