(* Real multicore execution of the master / section-master /
   function-master hierarchy using OCaml domains.

   The discrete-event simulation reproduces the paper's measurements on
   a period-accurate host; this driver demonstrates that the same
   orchestration runs the *actual* compiler in parallel on today's
   hardware: one domain per function master, FCFS over a bounded pool,
   sections independent, phase 1 and phase 4 sequential — exactly the
   structure of figure 2.

   Wall-clock speedups obviously depend on available cores; the driver
   reports them but the tests only check functional equivalence. *)

type result = {
  images : (string * Warp.Mcode.image) list; (* per section *)
  functions_compiled : int;
  wall_seconds : float;
}

(* Monotonic wall-clock seconds.  [Sys.time] would be process CPU time,
   summed over every domain. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* A bounded pool of worker domains processing thunks FCFS — the analog
   of the workstation pool.  A task that raises does not take its worker
   down: the pool keeps the first exception for the master to re-raise. *)
module Pool = struct
  type task = Task of (unit -> unit) | Stop

  type t = {
    queue : task Queue.t;
    mutex : Mutex.t;
    nonempty : Condition.t;
    mutable failure : (exn * Printexc.raw_backtrace) option; (* the first *)
    mutable domains : unit Domain.t list;
  }

  let record_failure pool e bt =
    Mutex.lock pool.mutex;
    if pool.failure = None then pool.failure <- Some (e, bt);
    Mutex.unlock pool.mutex

  let worker pool () =
    let rec loop () =
      Mutex.lock pool.mutex;
      let rec take () =
        match Queue.take_opt pool.queue with
        | Some task -> task
        | None ->
          Condition.wait pool.nonempty pool.mutex;
          take ()
      in
      let task = take () in
      Mutex.unlock pool.mutex;
      match task with
      | Stop -> ()
      | Task f ->
        (try f () with e -> record_failure pool e (Printexc.get_raw_backtrace ()));
        loop ()
    in
    loop ()

  let create n =
    let pool =
      {
        queue = Queue.create ();
        mutex = Mutex.create ();
        nonempty = Condition.create ();
        failure = None;
        domains = [];
      }
    in
    (* The workers share this very record: its mutable fields must not
       be copied. *)
    pool.domains <- List.init (max n 1) (fun _ -> Domain.spawn (worker pool));
    pool

  let submit pool f =
    Mutex.lock pool.mutex;
    Queue.push (Task f) pool.queue;
    Condition.signal pool.nonempty;
    Mutex.unlock pool.mutex

  (* The stop markers queue behind every submitted task, so this blocks
     until all of them have finished, then joins the workers. *)
  let shutdown pool =
    Mutex.lock pool.mutex;
    List.iter (fun _ -> Queue.push Stop pool.queue) pool.domains;
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.mutex;
    List.iter Domain.join pool.domains
end

(* Compile [m] with up to [workers] function masters running as domains.
   Raises [Driver.Compile.Compile_error] on phase-1 failure, like the
   sequential master, and re-raises the first exception of any function
   master once every worker has stopped. *)
let compile_parallel ?(workers = 4) ?(level = 2) (m : W2.Ast.modul) : result =
  let t0 = now () in
  (* Phase 1: sequential master. *)
  (match W2.Semcheck.check_module m with
  | [] -> ()
  | errors ->
    raise
      (Driver.Compile.Compile_error
         (String.concat "\n" (List.map W2.Semcheck.error_to_string errors))));
  let pool = Pool.create workers in
  (* Section masters fork function masters; results are collected in
     per-function slots (no ordering dependence). *)
  let sections =
    List.map
      (fun (sec : W2.Ast.section) ->
        let funcs = Array.of_list sec.W2.Ast.funcs in
        let slots = Array.make (Array.length funcs) None in
        let func_rets = Driver.Compile.func_rets_of sec in
        Array.iteri
          (fun i f ->
            Pool.submit pool (fun () ->
                let _work, mfunc, _ir =
                  Driver.Compile.compile_function ~level
                    ~globals:sec.W2.Ast.globals ~func_rets
                    ~section:sec.W2.Ast.sname f
                in
                slots.(i) <- Some mfunc))
          funcs;
        (sec, slots))
      m.W2.Ast.sections
  in
  (* The master blocks until all section masters are done. *)
  Pool.shutdown pool;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) pool.Pool.failure;
  (* Phase 4: sequential assembly and linking. *)
  let images =
    List.map
      (fun ((sec : W2.Ast.section), slots) ->
        let mfuncs = Array.to_list slots |> List.map Option.get in
        ( sec.W2.Ast.sname,
          Warp.Link.link ~section:sec.W2.Ast.sname ~cells:sec.W2.Ast.cells mfuncs ))
      sections
  in
  {
    images;
    functions_compiled = W2.Ast.func_count m;
    wall_seconds = now () -. t0;
  }
