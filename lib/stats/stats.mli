(** Small statistics helpers shared by the benchmark harness, the
    examples and the experiment driver.

    The paper (section 4.2) reports the arithmetic mean of repeated
    measurements and notes that individual deviations stay within 10%
    of the average; {!mean}, {!stddev} and {!within_fraction} implement
    exactly the checks needed to mirror that protocol. *)

val mean : float list -> float
(** Arithmetic mean.  @raise Invalid_argument on the empty list. *)

val stddev : float list -> float
(** Sample standard deviation. *)

val within_fraction : float -> float list -> bool
(** [within_fraction frac xs] is [true] when every sample lies within
    [frac] (relative) of the mean — the paper's acceptance criterion
    for a measurement series. *)

val minimum : float list -> float
(** Smallest element.  @raise Invalid_argument on the empty list. *)

val maximum : float list -> float
(** Largest element.  @raise Invalid_argument on the empty list. *)

val speedup : sequential:float -> parallel:float -> float
(** Speedup of a parallel run over a sequential baseline.
    @raise Invalid_argument when [parallel <= 0.]. *)

val percent_of : part:float -> total:float -> float
(** [percent_of ~part ~total] is [100 * part / total] ([0.] when
    [total = 0.]) — the unit of the paper's figures 8-10. *)

val geomean : float list -> float
(** Geometric mean, used to summarise speedups across programs.
    @raise Invalid_argument on the empty list. *)

(** ASCII tables and labelled series for the benchmark output. *)
module Table : sig
  type t
  (** A table under construction: a title, a header row and data rows. *)

  val make : title:string -> columns:string list -> t
  (** An empty table with the given title and column headers. *)

  val add_row : t -> string list -> t
  (** Append a row of cells.
      @raise Invalid_argument if the cell count differs from the
      column count. *)

  val add_float_row : t -> label:string -> float list -> t
  (** Append a row whose first cell is [label] and whose remaining
      cells are the values formatted with two decimals. *)

  val render : t -> string
  (** The table as boxed ASCII art, title first. *)

  val print : t -> unit
  (** [print t] writes {!render}[ t] to standard output. *)

  type series = { name : string; points : (float * float) list }
  (** One named line of a figure: (x, y) pairs. *)

  val series : string -> (float * float) list -> series

  val of_series : title:string -> x_label:string -> series list -> t
  (** Merge several series sharing x points into one table, one column
      per series (missing points render as ["-"]). *)
end
