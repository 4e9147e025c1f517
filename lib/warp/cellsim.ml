(* Cycle-level simulator for one Warp-like cell.

   Executes a linked [Mcode.image] with the pipeline semantics the
   schedulers assume: operations read registers at issue and write them
   [latency] cycles later; one operation per functional unit per cycle;
   memory stores become visible to the next cycle's loads; a block's
   terminator executes one cycle after its last wide instruction, by
   which time the schedule guarantees all writes have landed.

   Queue operations go through [ports].  A wide instruction whose queue
   operation cannot proceed (empty input or full output) stalls the
   whole cell for that cycle — the hardware's flow control.

   Calls push a fresh register window and fresh local arrays; returns
   pop them, so calls clobber nothing in the caller. *)

open Midend

type value = Ir_interp.value

exception Fault of string

type ports = {
  recv : W2.Ast.channel -> value option; (* None: would block *)
  send : W2.Ast.channel -> value -> bool; (* false: would block *)
}

(* Sends vanish; receives fault. *)
let closed_ports =
  { recv = (fun _ -> raise (Fault "receive on unconnected channel"));
    send = (fun _ _ -> true) }

(* Ports over scripted input queues, recording output. *)
let script_ports ~input_x ~input_y =
  let qx = Queue.of_seq (List.to_seq input_x) in
  let qy = Queue.of_seq (List.to_seq input_y) in
  let out_x = Queue.create () in
  let out_y = Queue.create () in
  let recv = function
    | W2.Ast.Chan_x -> Queue.take_opt qx
    | W2.Ast.Chan_y -> Queue.take_opt qy
  in
  let send c v =
    (match c with
    | W2.Ast.Chan_x -> Queue.push v out_x
    | W2.Ast.Chan_y -> Queue.push v out_y);
    true
  in
  let outputs () =
    (List.of_seq (Queue.to_seq out_x), List.of_seq (Queue.to_seq out_y))
  in
  ({ recv; send }, outputs)

type frame = {
  func : Mcode.mfunc;
  regs : value array;
  arrays : (string, value array) Hashtbl.t;
  mutable block : int;
  mutable wide_idx : int;
  mutable pending : (int * int * value) list; (* due cycle, reg, value *)
  ret_dst : int option;
  ret_block : int; (* block to resume in the caller *)
}

type status = Running | Blocked | Halted

type t = {
  image : Mcode.image;
  ports : ports;
  mutable stack : frame list;
  mutable cycle : int;
  mutable result : value option;
  mutable status : status;
}

let default_value (ty : Ir.ty) : value =
  match ty with Ir.Int | Ir.Bool -> Ir_interp.Vi 0 | Ir.Float -> Ir_interp.Vf 0.0

let new_frame (func : Mcode.mfunc) ~ret_dst ~ret_block : frame =
  let arrays = Hashtbl.create 4 in
  List.iter
    (fun (name, size, ty) -> Hashtbl.replace arrays name (Array.make size (default_value ty)))
    func.Mcode.mf_arrays;
  {
    func;
    regs = Array.make Machine.num_regs (Ir_interp.Vi 0);
    arrays;
    block = 0;
    wide_idx = 0;
    pending = [];
    ret_dst;
    ret_block;
  }

let create ?(ports = closed_ports) (image : Mcode.image) ~name ~args : t =
  match Mcode.find_func image name with
  | None -> raise (Fault ("undefined function " ^ name))
  | Some func ->
    let frame = new_frame func ~ret_dst:None ~ret_block:0 in
    (if List.length args <> List.length func.Mcode.param_locs then
       raise (Fault ("arity mismatch calling " ^ name)));
    List.iter2 (fun loc v -> frame.regs.(loc) <- v) func.Mcode.param_locs args;
    { image; ports; stack = [ frame ]; cycle = 0; result = None; status = Running }

let operand_value (frame : frame) = function
  | Ir.Reg r -> frame.regs.(r)
  | Ir.Imm_int n -> Ir_interp.Vi n
  | Ir.Imm_float f -> Ir_interp.Vf f

let truthy = function Ir_interp.Vi n -> n <> 0 | Ir_interp.Vf f -> f <> 0.0

let array_of frame name =
  match Hashtbl.find_opt frame.arrays name with
  | Some a -> a
  | None -> raise (Fault ("unknown array " ^ name))

let apply_due_writes (frame : frame) cycle =
  let due, still = List.partition (fun (c, _, _) -> c <= cycle) frame.pending in
  (* Earlier-issued writes to the same register land first; apply in due
     order so the later write wins. *)
  List.iter
    (fun (_, r, v) -> frame.regs.(r) <- v)
    (List.sort (fun (a, _, _) (b, _, _) -> compare a b) due);
  frame.pending <- still

let flush_writes (frame : frame) = apply_due_writes frame max_int

(* Execute one cycle.  Returns the new status. *)
let step (cell : t) : status =
  match cell.stack with
  | [] ->
    cell.status <- Halted;
    Halted
  | frame :: rest -> (
    apply_due_writes frame cell.cycle;
    let block = frame.func.Mcode.mblocks.(frame.block) in
    if frame.wide_idx < Array.length block.Mcode.code then begin
      let wide = block.Mcode.code.(frame.wide_idx) in
      let ops = Mcode.ops_of wide in
      (* Receive phase: a wide instruction has at most one QIO slot, so
         consuming the receive before deciding to stall is safe — a
         stall can only be caused by that same receive. *)
      let recv_ops =
        List.filter_map (function Ir.Recv (c, d) -> Some (c, d) | _ -> None) ops
      in
      let recv_values =
        List.map (fun (c, d) -> (c, d, cell.ports.recv c)) recv_ops
      in
      if List.exists (fun (_, _, v) -> v = None) recv_values then begin
        (* The ports contract: a [recv] returning [Some] has consumed the
           element, so a stalling wide instruction must have at most one
           receive (guaranteed: one QIO slot). *)
        cell.cycle <- cell.cycle + 1;
        cell.status <- Blocked;
        Blocked
      end
      else begin
        (* Read phase. *)
        let reads = Hashtbl.create 8 in
        List.iter
          (fun op ->
            List.iter
              (fun r -> Hashtbl.replace reads r frame.regs.(r))
              (Ir.uses_of op))
          ops;
        let read_operand = function
          | Ir.Reg r -> Hashtbl.find reads r
          | Ir.Imm_int n -> Ir_interp.Vi n
          | Ir.Imm_float f -> Ir_interp.Vf f
        in
        let sent_ok = ref true in
        let writes = ref [] in
        let stores = ref [] in
        List.iter
          (fun op ->
            let lat = Machine.latency op in
            match op with
            | Ir.Bin (bop, d, x, y) ->
              let v =
                try Ir_interp.eval_bin bop (read_operand x) (read_operand y)
                with Ir_interp.Error msg -> raise (Fault msg)
              in
              writes := (cell.cycle + lat, d, v) :: !writes
            | Ir.Un (uop, d, x) ->
              let v =
                try Ir_interp.eval_un uop (read_operand x)
                with Ir_interp.Error msg -> raise (Fault msg)
              in
              writes := (cell.cycle + lat, d, v) :: !writes
            | Ir.Mov (d, x) -> writes := (cell.cycle + lat, d, read_operand x) :: !writes
            | Ir.Sel (d, c, a, b) ->
              let v = if truthy (read_operand c) then read_operand a else read_operand b in
              writes := (cell.cycle + lat, d, v) :: !writes
            | Ir.Load (d, a, i) -> (
              let arr = array_of frame a in
              match read_operand i with
              | Ir_interp.Vi idx when idx >= 0 && idx < Array.length arr ->
                writes := (cell.cycle + lat, d, arr.(idx)) :: !writes
              | Ir_interp.Vi idx ->
                raise (Fault (Printf.sprintf "index %d out of bounds" idx))
              | Ir_interp.Vf _ -> raise (Fault "float array index"))
            | Ir.Store (a, i, v) -> (
              let arr = array_of frame a in
              match read_operand i with
              | Ir_interp.Vi idx when idx >= 0 && idx < Array.length arr ->
                stores := (arr, idx, read_operand v) :: !stores
              | Ir_interp.Vi idx ->
                raise (Fault (Printf.sprintf "index %d out of bounds" idx))
              | Ir_interp.Vf _ -> raise (Fault "float array index"))
            | Ir.Send (c, v) ->
              if not (cell.ports.send c (read_operand v)) then sent_ok := false
            | Ir.Recv (c, d) -> (
              match List.find_opt (fun (c', d', _) -> c = c' && d = d') recv_values with
              | Some (_, _, Some v) -> writes := (cell.cycle + lat, d, v) :: !writes
              | Some (_, _, None) | None -> assert false)
            | Ir.Call _ -> raise (Fault "call inside a wide instruction"))
          ops;
        if not !sent_ok then begin
          (* A full output queue: the send has been lost by the port, so
             ports must only refuse when nothing was consumed.  The
             arraysim's ports never refuse mid-instruction. *)
          cell.cycle <- cell.cycle + 1;
          cell.status <- Blocked;
          Blocked
        end
        else begin
          List.iter (fun (arr, i, v) -> arr.(i) <- v) !stores;
          frame.pending <- !writes @ frame.pending;
          frame.wide_idx <- frame.wide_idx + 1;
          cell.cycle <- cell.cycle + 1;
          cell.status <- Running;
          Running
        end
      end
    end
    else begin
      (* Terminator cycle: all writes have landed by schedule
         construction; flush defensively. *)
      flush_writes frame;
      (match block.Mcode.mterm with
      | Mcode.Tjump l ->
        frame.block <- l;
        frame.wide_idx <- 0
      | Mcode.Tbranch (c, t, e) ->
        frame.block <- (if truthy (operand_value frame c) then t else e);
        frame.wide_idx <- 0
      | Mcode.Tret v ->
        let result = Option.map (operand_value frame) v in
        cell.stack <- rest;
        (match cell.stack with
        | [] ->
          cell.result <- result;
          cell.status <- Halted
        | caller :: _ -> (
          caller.block <- frame.ret_block;
          caller.wide_idx <- 0;
          match (frame.ret_dst, result) with
          | Some d, Some v -> caller.regs.(d) <- v
          | Some _, None -> raise (Fault "void return into a register")
          | None, _ -> ()))
      | Mcode.Tcall { callee; args; dst; cont } -> (
        match Mcode.find_func cell.image callee with
        | None -> raise (Fault ("undefined function " ^ callee))
        | Some func ->
          let arg_values = List.map (operand_value frame) args in
          let callee_frame = new_frame func ~ret_dst:dst ~ret_block:cont in
          (if List.length arg_values <> List.length func.Mcode.param_locs then
             raise (Fault ("arity mismatch calling " ^ callee)));
          List.iter2
            (fun loc v -> callee_frame.regs.(loc) <- v)
            func.Mcode.param_locs arg_values;
          cell.stack <- callee_frame :: cell.stack));
      cell.cycle <- cell.cycle + 1;
      if cell.status <> Halted then cell.status <- Running;
      cell.status
    end)

(* Run to completion with scripted ports. *)
let run ?(fuel = 10_000_000) ?ports (image : Mcode.image) ~name ~args :
    value option * int =
  let cell = create ?ports image ~name ~args in
  let budget = ref fuel in
  let rec loop () =
    if !budget <= 0 then raise (Fault "out of fuel")
    else begin
      decr budget;
      match step cell with
      | Halted -> (cell.result, cell.cycle)
      | Blocked -> raise (Fault "deadlock: cell blocked on a queue")
      | Running -> loop ()
    end
  in
  loop ()
