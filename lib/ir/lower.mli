(** Lowering from the W2 AST to the three-address IR — the front half
    of phase 2 (flowgraph construction).

    Input must have passed {!W2.Semcheck}.  Booleans become 0/1 integer
    registers; [and]/[or] lower to short-circuit control flow; a
    counted [for] loop becomes the canonical init / guarded header /
    body-with-increment shape that {!Counted.recognize} detects. *)

exception Unsupported of string
(** Raised on constructs the backend has no story for (these are also
    rejected by the checker; the exception guards against unchecked
    input). *)

val lower_function :
  func_rets:(string, Ir.ty option) Hashtbl.t ->
  ?globals:W2.Ast.decl list ->
  W2.Ast.func ->
  Ir.func
(** Lower one function given the return types of every function of its
    section (needed to type intra-section call results).  [globals] are
    the section's global declarations; the ones the body mentions are
    localized into per-activation storage (registers or arrays),
    default-initialized like locals. *)

val lower_module : W2.Ast.modul -> Ir.section list
