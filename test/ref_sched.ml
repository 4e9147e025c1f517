(* Reference implementations of the phase-3 straight-line path, kept as
   differential oracles for the fast ones in lib/warp:

   - [ddg]: the complete distance-0 graph, one edge for every hazard
     pair (what [Ddg.build ~loop:false] reduces);
   - [listsched]: the cycle-rescan list scheduler, which rebuilds the
     ready list from every op's predecessors at each cycle;
   - [dependence_violations]: the verifier's exhaustive pair loop over
     each non-pipelined block's timed ops.

   They are quadratic or worse, which is why they live here and not in
   the library. *)

open Midend

let ddg (ops : Ir.instr array) : Warp.Ddg.t =
  let n = Array.length ops in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match Warp.Ddg.hazard_delay ops.(i) ops.(j) with
      | Some delay -> edges := { Warp.Ddg.src = i; dst = j; delay; dist = 0 } :: !edges
      | None -> ()
    done
  done;
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  List.iter
    (fun (e : Warp.Ddg.edge) ->
      succs.(e.src) <- (e.dst, e.delay, e.dist) :: succs.(e.src);
      preds.(e.dst) <- (e.src, e.delay, e.dist) :: preds.(e.dst))
    !edges;
  { Warp.Ddg.ops; edges = !edges; succs; preds }

let listsched (ops : Ir.instr array) : Warp.Listsched.schedule =
  let n = Array.length ops in
  if n = 0 then { Warp.Listsched.code = [||]; issue = [||]; attempts = 0 }
  else begin
    let g = ddg ops in
    let height = Warp.Ddg.heights g in
    let issue = Array.make n (-1) in
    let scheduled = ref 0 in
    let attempts = ref 0 in
    let wides = ref [] in
    let cycle = ref 0 in
    while !scheduled < n do
      let ready =
        List.filter
          (fun i ->
            issue.(i) < 0
            && List.for_all
                 (fun (p, delay, dist) ->
                   dist > 0 || (issue.(p) >= 0 && !cycle >= issue.(p) + delay))
                 g.Warp.Ddg.preds.(i))
          (List.init n Fun.id)
        |> List.sort (fun a b -> compare (height.(b), a) (height.(a), b))
      in
      let wide = ref Warp.Mcode.empty_wide in
      List.iter
        (fun i ->
          incr attempts;
          let fu = Warp.Machine.fu_of ops.(i) in
          if Warp.Mcode.slot !wide fu = None then begin
            wide := Warp.Mcode.with_slot !wide fu ops.(i);
            issue.(i) <- !cycle;
            incr scheduled
          end)
        ready;
      wides := !wide :: !wides;
      incr cycle
    done;
    let finish =
      Array.to_list (Array.mapi (fun i op -> issue.(i) + Warp.Machine.latency op) ops)
      |> List.fold_left max !cycle
    in
    let code = Array.make finish Warp.Mcode.empty_wide in
    List.iteri (fun k w -> code.(!cycle - 1 - k) <- w) !wides;
    { Warp.Listsched.code; issue; attempts = !attempts }
  end

(* The dependence-legality violations of [image], in [Verify.image]'s
   order and wording. *)
let dependence_violations (image : Warp.Mcode.image) : Warp.Verify.violation list =
  let out = ref [] in
  Array.iter
    (fun (f : Warp.Mcode.mfunc) ->
      Array.iteri
        (fun bi (b : Warp.Mcode.mblock) ->
          let report msg =
            out := { Warp.Verify.v_func = f.Warp.Mcode.mf_name; v_block = bi; v_message = msg } :: !out
          in
          let timed = ref [] in
          Array.iteri
            (fun cycle wide ->
              List.iter
                (fun fu ->
                  match Warp.Mcode.slot wide fu with
                  | None | Some (Ir.Call _) -> ()
                  | Some op -> timed := (cycle, op) :: !timed)
                Warp.Machine.all_fus)
            b.Warp.Mcode.code;
          let ops = Array.of_list (List.rev !timed) in
          let n = Array.length ops in
          if not b.Warp.Mcode.mb_pipelined then
            for i = 0 to n - 1 do
              for j = i + 1 to n - 1 do
                let ci, oi = ops.(i) and cj, oj = ops.(j) in
                if ci = cj then begin
                  let ok = function None -> true | Some d -> d <= 0 in
                  if not (ok (Warp.Ddg.hazard_delay oi oj) || ok (Warp.Ddg.hazard_delay oj oi))
                  then
                    report
                      (Printf.sprintf "cycle %d: irreconcilable same-cycle hazard (%s | %s)" ci
                         (Ir.instr_to_string oi) (Ir.instr_to_string oj))
                end
                else
                  match Warp.Ddg.hazard_delay oi oj with
                  | Some d when cj < ci + d ->
                    report
                      (Printf.sprintf "dependence violated: %s @%d -> %s @%d needs delay %d"
                         (Ir.instr_to_string oi) ci (Ir.instr_to_string oj) cj d)
                  | Some _ | None -> ()
              done
            done)
        f.Warp.Mcode.mblocks)
    image.Warp.Mcode.funcs;
  List.rev !out

let is_dependence_violation (v : Warp.Verify.violation) =
  Tutil.contains v.Warp.Verify.v_message "irreconcilable same-cycle hazard"
  || Tutil.contains v.Warp.Verify.v_message "dependence violated"
