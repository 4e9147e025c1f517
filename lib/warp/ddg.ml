(* Data-dependence graphs over the operations of one basic block.

   Edges carry (delay, distance): a dependence from [a] to [b] with
   distance d means instance (b, iteration k+d) must issue no earlier
   than issue(a, iteration k) + delay.  Distance-0 edges order
   operations of one iteration (used by both schedulers); distance-1
   edges wrap around the loop (used by the modulo scheduler and valid
   for any pair, in either program order, including self-edges).

   Delay rules (results are written at issue + latency and read at
   issue; local-memory stores are visible one cycle after issue, loads
   read at issue; queue operations act in issue order):
     true (def -> use)        latency(def)
     anti (use -> def)        1 - latency(def')   (write lands after read)
     output (def -> def)      latency(first) - latency(second) + 1
     store -> load            1
     load -> store            0
     store -> store           1
     queue op -> queue op     1                    (strict queue order)
*)

open Midend

type edge = { src : int; dst : int; delay : int; dist : int }

type t = {
  ops : Ir.instr array;
  edges : edge list;
  succs : (int * int * int) list array; (* dst, delay, dist *)
  preds : (int * int * int) list array; (* src, delay, dist *)
}

let regs_def instr = match Ir.def_of instr with Some d -> [ d ] | None -> []
let regs_use instr = Ir.uses_of instr

let touched_array = function
  | Ir.Load (_, a, _) -> Some (a, `Load)
  | Ir.Store (a, _, _) -> Some (a, `Store)
  | _ -> None

let is_qio = function Ir.Send _ | Ir.Recv _ -> true | _ -> false

(* Maximum delay of the hazards between [a] (first) and [b] (second);
   None when independent. *)
let hazard_delay a b : int option =
  let lat = Machine.latency in
  let delays = ref [] in
  let add d = delays := d :: !delays in
  let da = regs_def a and ua = regs_use a in
  let db = regs_def b and ub = regs_use b in
  List.iter (fun r -> if List.mem r ub then add (lat a)) da; (* true *)
  List.iter (fun r -> if List.mem r db then add (1 - lat b)) ua; (* anti *)
  List.iter (fun r -> if List.mem r db then add (lat a - lat b + 1)) da; (* output *)
  (match (touched_array a, touched_array b) with
  | Some (arr_a, ka), Some (arr_b, kb) when arr_a = arr_b -> (
    match (ka, kb) with
    | `Store, `Load -> add 1
    | `Load, `Store -> add 0
    | `Store, `Store -> add 1
    | `Load, `Load -> ())
  | _ -> ());
  if is_qio a && is_qio b then add 1;
  match !delays with [] -> None | ds -> Some (List.fold_left max min_int ds)

(* Candidate pairs (i, j), i < j, of a straight-line block, from
   last-accessor tables: op j pairs with the last def of every register
   it reads or writes, with the uses since that def of every register it
   writes, with the last store to the array it touches, with the loads
   since that store when it stores, and with the previous queue op.

   Every other hazard pair (i, j) of delay d is path-dominated: the
   chain of defs of the register (stores to the array, queue ops) from
   i to j is a path of kept pairs whose delays sum to at least d —
   output delays telescope to lat(i) - lat(k) + hops, and an anti pair
   from a use reaches the chain through the first def after it.  So
   heights, which add delays along paths, are unchanged; and since the
   list scheduler waits at least one cycle per hop, so are its ready
   sets. *)
let straight_line_pairs (ops : Ir.instr array) =
  let last_def = Hashtbl.create 16 and uses_since = Hashtbl.create 16 in
  let last_store = Hashtbl.create 4 and loads_since = Hashtbl.create 4 in
  let last_qio = ref None in
  let since tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
  let pairs = ref [] in
  Array.iteri
    (fun j op ->
      let srcs = ref [] in
      let add_last tbl k = Option.iter (fun i -> srcs := i :: !srcs) (Hashtbl.find_opt tbl k) in
      let add_all tbl k = srcs := since tbl k @ !srcs in
      List.iter (add_last last_def) (regs_use op);
      List.iter (fun r -> add_last last_def r; add_all uses_since r) (regs_def op);
      (match touched_array op with
      | Some (a, `Load) ->
        add_last last_store a;
        Hashtbl.replace loads_since a (j :: since loads_since a)
      | Some (a, `Store) ->
        add_last last_store a;
        add_all loads_since a;
        Hashtbl.replace last_store a j;
        Hashtbl.replace loads_since a []
      | None -> ());
      if is_qio op then begin
        Option.iter (fun i -> srcs := i :: !srcs) !last_qio;
        last_qio := Some j
      end;
      List.iter (fun r -> Hashtbl.replace uses_since r (j :: since uses_since r)) (regs_use op);
      List.iter
        (fun r ->
          Hashtbl.replace last_def r j;
          Hashtbl.replace uses_since r [])
        (regs_def op);
      List.iter (fun i -> pairs := (i, j) :: !pairs) (List.sort_uniq compare !srcs))
    ops;
  !pairs

(* Build the graph.  Straight-line graphs keep only the candidate pairs
   above; [loop] graphs relate every pair and add the wrap-around
   distance-1 edges. *)
let build ?(loop = false) (ops : Ir.instr array) : t =
  let n = Array.length ops in
  let edges = ref [] in
  let add src dst dist =
    match hazard_delay ops.(src) ops.(dst) with
    | Some delay -> edges := { src; dst; delay; dist } :: !edges
    | None -> ()
  in
  if not loop then List.iter (fun (i, j) -> add i j 0) (straight_line_pairs ops)
  else begin
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        add i j 0
      done
    done;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        (* (i, iter k) happens before (j, iter k+1) for every pair. *)
        add i j 1
      done
    done
  end;
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  List.iter
    (fun e ->
      succs.(e.src) <- (e.dst, e.delay, e.dist) :: succs.(e.src);
      preds.(e.dst) <- (e.src, e.delay, e.dist) :: preds.(e.dst))
    !edges;
  { ops; edges = !edges; succs; preds }

(* Critical-path height over distance-0 edges: the scheduling priority.
   The height of an op is its latency plus the maximum height reachable
   through its same-iteration successors. *)
let heights (g : t) : int array =
  let n = Array.length g.ops in
  let height = Array.make n (-1) in
  let rec compute i =
    if height.(i) >= 0 then height.(i)
    else begin
      (* Mark to guard against cycles (distance-0 edges are acyclic by
         construction: they all go forward in program order). *)
      let best = ref (Machine.latency g.ops.(i)) in
      List.iter
        (fun (j, delay, dist) ->
          if dist = 0 then best := max !best (delay + compute j))
        g.succs.(i);
      height.(i) <- !best;
      !best
    end
  in
  for i = 0 to n - 1 do
    ignore (compute i)
  done;
  height
