(** Source linter — phase 1, running in the master alongside
    {!Semcheck}.  Every finding is a {!Diag.Warning}; nothing here
    rejects a program.

    Codes:
    - [W001] unused variable
    - [W002] unused parameter
    - [W003] dead store (a value written and overwritten or never read)
    - [W004] unreachable statement after a return
    - [W005] assignment or receive into an enclosing [for]-loop variable
    - [W006] constant [if]/[while] condition
    - [W007] function never called from its section (excluding the
      section's first function, its entry point by convention)
    - [W008] section global written by one function and accessed by a
      sibling — every activation starts from a fresh default-initialized
      copy, so the sibling never observes the write
    - [W009] channel with sends but no receives anywhere in a
      multi-cell section — only the boundary cell's sends reach the
      host, so inner-cell values are silently dropped

    W008/W009 need whole-section effect summaries, which the linter
    does not compute itself: the interprocedural analyzer
    ([Analysis.Depan], a layer above this library) distills its
    per-function effects into {!coupling} records and calls
    {!coupling_warnings}. *)

val lint_section : (Diag.t -> unit) -> Ast.section -> unit
(** Per-function checks for every function plus the section-level
    never-called analysis (W007). *)

val lint_module : Ast.modul -> Diag.t list
(** All warnings for a module, in file order.  Does not include
    W008/W009 (see {!coupling_warnings}). *)

type coupling = {
  c_func : string;
  c_loc : Loc.t;
  c_greads : string list; (** section globals the function reads *)
  c_gwrites : string list; (** section globals the function writes *)
  c_sends : Ast.channel list;
  c_recvs : Ast.channel list;
}
(** One function's externally visible effects, as distilled by the
    interprocedural analyzer (direct effects, not call-summarized ones,
    so each warning blames the function whose source text contains the
    coupled operation). *)

val coupling_warnings :
  section:string ->
  cells:int ->
  ?disjoint:string list ->
  coupling list ->
  Diag.t list
(** W008/W009 over one section's couplings (given in section order).
    W008 fires once per global that some function writes while a
    distinct sibling also reads or writes it; W009 fires once per
    channel that is sent on but never received in a section with more
    than one cell.

    [disjoint] names globals whose every write/access pair the
    analyzer's region domain proved element-disjoint: their W008
    downgrades from a warning to a {!Diag.Note} (the siblings partition
    the global, so the "write nobody observes" reading is a false
    positive), which survives [-Werror]. *)
