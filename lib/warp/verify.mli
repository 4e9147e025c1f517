(** Static verifier for linked images.

    Validates the invariants the rest of the system relies on: physical
    register bounds, slot/functional-unit agreement, calls only as
    terminators, resolvable call targets with matching arity, declared
    arrays, in-range branch targets — and dependence legality of every
    non-pipelined block's schedule (hazard pairs separated by their
    delays).  Flat-emitted pipelined blocks interleave iterations, so
    they are checked for write-back well-definedness instead.

    No hazard delay exceeds {!Machine.max_latency}, so the dependence
    check pairs each op only with the ops issued fewer than that many
    cycles after it: linear in block length, and reporting exactly what
    an all-pairs scan would. *)

type violation = { v_func : string; v_block : int; v_message : string }

val violation_to_string : violation -> string

val image : Mcode.image -> violation list
(** All violations; [[]] means the image is valid. *)
