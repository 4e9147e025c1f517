(* List scheduling of one basic block onto the wide-instruction cell.

   Greedy cycle-by-cycle: at each cycle the ready operations (all
   distance-0 predecessors scheduled and their delays elapsed) are
   placed into free functional-unit slots in decreasing critical-path
   height.  The block is padded so that every result has been written by
   the time the terminator executes (clean block boundaries).

   Returns the wide code and the number of placement attempts, which
   feeds the phase-3 cost model.

   Readiness is tracked incrementally.  Each op counts its unissued
   predecessors and keeps an earliest cycle; when a predecessor issues
   at cycle c along an edge of delay d, the earliest cycle rises to
   c + max d 1.  The [max d 1] is the rule that a predecessor must have
   issued in an earlier cycle, so zero and negative delays still order
   ops across cycles.  An op whose counter reaches zero waits in
   [pending] until its earliest cycle, then joins the ready set of its
   unit, ordered by (height desc, index asc).  Every ready op is one
   attempt per cycle, and the first of each unit's ready set takes that
   unit's slot — exactly the outcome of trying every ready op in
   priority order.  Cost: O((n + E) log n + cycles) for n ops and E
   edges. *)

open Midend

type schedule = {
  code : Mcode.wide array;
  issue : int array; (* issue cycle per op *)
  attempts : int; (* work units *)
}

module Keyed = Set.Make (struct
  type t = int * int

  let compare ((a1 : int), (b1 : int)) (a2, b2) =
    let c = compare a1 a2 in
    if c <> 0 then c else compare b1 b2
end)

let run (ops : Ir.instr array) : schedule =
  let n = Array.length ops in
  if n = 0 then { code = [||]; issue = [||]; attempts = 0 }
  else begin
    let g = Ddg.build ~loop:false ops in
    let height = Ddg.heights g in
    let issue = Array.make n (-1) in
    let unissued_preds = Array.map List.length g.preds in
    let earliest = Array.make n 0 in
    (* (earliest cycle, op) for ops whose predecessors have all issued *)
    let pending = ref Keyed.empty in
    Array.iteri (fun i k -> if k = 0 then pending := Keyed.add (0, i) !pending) unissued_preds;
    (* per unit: (-height, op) for ready ops *)
    let ready = List.map (fun fu -> (fu, ref Keyed.empty)) Machine.all_fus in
    let nready = ref 0 in
    let scheduled = ref 0 in
    let attempts = ref 0 in
    let wides = ref [] in (* reversed *)
    let cycle = ref 0 in
    while !scheduled < n do
      let rec release () =
        match Keyed.min_elt_opt !pending with
        | Some ((e, i) as key) when e <= !cycle ->
          pending := Keyed.remove key !pending;
          let set = List.assq (Machine.fu_of ops.(i)) ready in
          set := Keyed.add (-height.(i), i) !set;
          incr nready;
          release ()
        | _ -> ()
      in
      release ();
      attempts := !attempts + !nready;
      let wide = ref Mcode.empty_wide in
      let placed = ref [] in
      List.iter
        (fun (fu, set) ->
          match Keyed.min_elt_opt !set with
          | Some ((_, i) as key) ->
            set := Keyed.remove key !set;
            decr nready;
            wide := Mcode.with_slot !wide fu ops.(i);
            issue.(i) <- !cycle;
            placed := i :: !placed;
            incr scheduled
          | None -> ())
        ready;
      List.iter
        (fun i ->
          List.iter
            (fun (j, delay, _) ->
              earliest.(j) <- max earliest.(j) (!cycle + max delay 1);
              unissued_preds.(j) <- unissued_preds.(j) - 1;
              if unissued_preds.(j) = 0 then pending := Keyed.add (earliest.(j), j) !pending)
            g.succs.(i))
        !placed;
      wides := !wide :: !wides;
      incr cycle
    done;
    (* Pad so every write has landed before the terminator. *)
    let finish =
      Array.to_list (Array.mapi (fun i op -> issue.(i) + Machine.latency op) ops)
      |> List.fold_left max !cycle
    in
    let code = Array.make finish Mcode.empty_wide in
    List.iteri
      (fun k w -> code.(!cycle - 1 - k) <- w)
      !wides;
    { code; issue; attempts = !attempts }
  end
