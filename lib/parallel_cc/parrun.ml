(* The parallel compiler on the simulated host (section 3.2).

   Process hierarchy:
     master        one C process + a Lisp process for phase 1 and the
                   setup parse; spawns the section masters; performs
                   phase 4 after they finish.
     section       one C process per section, running on the master's
     masters       workstation; start one function master per task,
                   drawing workstations from the pool FCFS; combine
                   results and diagnostics when their functions finish.
     function      one Lisp process per task on its own workstation:
     masters       core-image download, initialization, re-parse of its
                   share of the source, then phases 2+3 for each of its
                   functions, then output write-back.

   The only communication is parent<->child messages (modelled by join
   counters and mailboxes), as in the paper.

   Every task runs one state machine — claim → fetch → compute → stage
   → commit | abort → publish — whose steps are the functions below:
   [station_stage], [function_master], the execution [stage],
   [write_back], the commit protocol of [run_attempt], and [complete],
   the one durable completion (winning attempt, speculative commit or
   [fallback]).  What varies is a value the machine consumes: the stage
   (coarse grain, or the fine grain the paper's section 5 anticipates)
   and the supervisor.  Without one — no fault plan, no speculation —
   the single attempt runs inline in the task's process, the fault-free
   event schedule.  With one, the section master adds deadlines, crash
   and timeout detection, re-dispatch with exponential backoff up to
   [Config.retry_budget], and the sequential fallback in the master's
   own Lisp, so every compilation terminates with the same output —
   only slower. *)

type outcome = {
  run : Timings.run;
  station_of_task : (string * int) list; (* task head function -> station *)
}

(* A function-master attempt lost its station.  Raised and caught
   within the same simulated process — it never escapes the DES. *)
exception Lost of Netsim.Fault.failure

(* Supervision messages; attempt-numbered so a supervisor can ignore
   verdicts about attempts it has already given up on.  [Msg_aborted]
   is the commit oracle's verdict on a speculative attempt: the staged
   output read stale state and was quarantined. *)
type sup_msg =
  | Msg_completed
  | Msg_failed of int
  | Msg_timed_out of int
  | Msg_aborted of int

(* Bytes of the version-pointer flip that commits a staged artifact
   (or quarantines an aborted one) on the file server: metadata only,
   the staged payload itself was already charged at staging time. *)
let spec_meta_bytes = 256.0

(* Fetches identify the client station and a file label so the
   Ethernet keeps a transfer history ([Net.cached]); recording is
   bookkeeping only, but the locality-aware re-dispatch reads it back
   on retries. *)
let core_file = "core"

(* What every task of one master process shares. *)
type master = {
  cfg : Config.t;
  cost : Driver.Cost.model;
  sim : Netsim.Des.t;
  cluster : Netsim.Host.cluster;
  noise : int -> float;
  salt : int;
  stats : Timings.stats;
  policy : Sched.policy;
  ws_m : Netsim.Host.workstation;
  src_file : string;
  stage : task -> attempt -> Netsim.Host.workstation -> Netsim.Host.workstation;
      (* the execution stage: computes on the function master's station
         and returns the station that writes the output back *)
}

(* One task: quantities shared by every attempt, and the lifecycle
   state the attempts race on. *)
and task = {
  m : master;
  ti : int;
  t : Plan.task;
  label : string;
  head : string option;
  tokens : int;
  output_bytes : float;
  completion : Netsim.Sync.event array; (* of every task in the section *)
  spec_deps : int list;
  hot_deps : int list;
  sup : supervisor option;
  cache : Cache.site;
  mutable completed : bool; (* the completion token *)
  mutable attempts : int;
  mutable spec_fails : int;
  mutable hardened : bool; (* past [Config.spec_budget]: no speculation *)
}

and supervisor = { deadline : float; mailbox : sup_msg Netsim.Sync.mailbox }

(* One attempt: the placements it noted, the CPU it burned (wasted if
   its output is lost), the speculative predecessors still incomplete
   when it claimed its station (non-empty: it stages and the commit
   protocol rules), and whether it has staged — a staged attempt is
   off-station awaiting the oracle's verdict, not the watchdog's. *)
and attempt = {
  n : int;
  mutable noted : (string * int) list;
  mutable spent : float;
  mutable t_claim : float;
  mutable pending : int list;
  mutable staged : bool;
}

let now m = Netsim.Des.now m.sim

let fetch m ?client ?file bytes =
  Netsim.Net.fetch ?client ?file m.sim m.cluster.Netsim.Host.fs
    m.cluster.Netsim.Host.ether ~bytes

let store m bytes =
  Netsim.Net.store m.sim m.cluster.Netsim.Host.fs m.cluster.Netsim.Host.ether
    ~bytes

let has m w file =
  Netsim.Net.cached m.cluster.Netsim.Host.ether ~client:w.Netsim.Host.ws_id ~file

(* CPU work on [ws]; returns the (noisy) seconds charged.  Pool
   stations are held exclusively, so for an [attempt] the busy-seconds
   delta is exactly its CPU (partial work of a crashed slice included).
   The master's workstation is never faulted (Host wires station 0 out
   of the plan); a failure there is a simulation bug. *)
let compute m ?attempt ws ~tag seconds salt' =
  let seconds = seconds *. m.noise (m.salt + salt') in
  let before = ws.Netsim.Host.busy_seconds in
  let factor = Config.cluster_slowdown m.cfg m.cluster in
  (match (attempt, Netsim.Host.compute m.sim ws ~factor ~tag ~seconds) with
  | Some a, r -> (
    a.spent <- a.spent +. (ws.Netsim.Host.busy_seconds -. before);
    match r with
    | Netsim.Fault.Completed -> ()
    | Netsim.Fault.Station_failed f -> raise (Lost f))
  | None, Netsim.Fault.Completed -> ()
  | None, Netsim.Fault.Station_failed f ->
    failwith
      (Printf.sprintf "Parrun: master workstation %d failed at %.1fs"
         f.Netsim.Fault.failed_station f.Netsim.Fault.failed_at));
  seconds

(* Task-lifecycle span: recorded on the executing station's track so
   Gantt/Chrome views show the claim → write-back chain per attempt. *)
let lspan k ~attempt_n ws ~name ~t0 =
  let tr = k.m.cfg.Config.trace in
  if Trace.enabled tr then
    Trace.span tr ~track:ws.Netsim.Host.ws_id ~cat:"task" ~name
      ~args:[ ("task", k.label); ("attempt", string_of_int attempt_n) ]
      ~t0 ~t1:(now k.m) ()

let linstant k ~attempt_n ?(extra = []) name =
  let tr = k.m.cfg.Config.trace in
  if Trace.enabled tr then
    Trace.instant tr ~track:k.m.ws_m.Netsim.Host.ws_id ~cat:"task" ~name
      ~args:(("task", k.label) :: ("attempt", string_of_int attempt_n) :: extra)
      ~at:(now k.m) ()

(* A crash is detected by [compute] during CPU work and by [alive]
   after network operations, which do not touch the station's CPU.  On
   the fault-free path every check is a no-op. *)
let alive m ws =
  match Netsim.Host.crashed ws ~now:(now m) with
  | Some f -> raise (Lost f)
  | None -> ()

(* Locality-aware re-dispatch: on a retry under a non-FCFS policy,
   prefer a pool station that already holds the bytes the stage needs
   (then one holding the core image), and skip the re-download of
   whatever the granted station has.  First attempts and the FCFS
   policy never reach these branches, so their schedule is
   untouched. *)
let locality k a = a.n > 1 && k.m.policy <> Sched.Fcfs

let held k a ws file =
  let hit = locality k a && has k.m ws file in
  if hit then
    linstant k ~attempt_n:a.n "cache-hit"
      ~extra:[ ("file", file); ("station", string_of_int ws.Netsim.Host.ws_id) ];
  hit

let fetch_to k ws ~file ~held bytes =
  if not held then fetch k.m ~client:ws.Netsim.Host.ws_id ~file bytes;
  alive k.m ws

(* The station stage of a function master and of a fine-grain phase-3
   master: claim a pool station (on a locality retry, preferably one
   holding [file]), note the placement [head ^ suffix], run [granted],
   then start a Lisp: download the core image (a warm station maps the
   image it already holds: same resident set, no wire) and
   initialize. *)
let station_stage k a ~file ~suffix ~init_salt ~granted =
  let m = k.m in
  let t_claim = now m in
  let ws =
    if locality k a then
      Netsim.Host.claim_prefer m.sim m.cluster ~rank:(fun w ->
          (if has m w file then 2 else 0) + if has m w core_file then 1 else 0)
    else Netsim.Host.claim m.sim m.cluster
  in
  lspan k ~attempt_n:a.n ws ~name:"claim" ~t0:t_claim;
  Option.iter
    (fun h -> a.noted <- (h ^ suffix, ws.Netsim.Host.ws_id) :: a.noted)
    k.head;
  granted ();
  (if m.cfg.Config.core_download && not (held k a ws core_file) then begin
     let t0 = now m in
     fetch m ~client:ws.Netsim.Host.ws_id ~file:core_file
       m.cost.Driver.Cost.lisp_core_bytes;
     lspan k ~attempt_n:a.n ws ~name:"transfer" ~t0
   end);
  alive m ws;
  Netsim.Host.set_resident ws m.cost.Driver.Cost.lisp_core_mb;
  ignore
    (compute m ~attempt:a ws ~tag:"lisp-init"
       m.cost.Driver.Cost.lisp_init_seconds init_salt);
  ws

(* One phase over the task's functions on [ws], under a span named
   after it; [skip] lets the compile cache stand in for a function. *)
let compute_phase k a ws ~phase ~seconds ~salt0 ?(skip = fun _ -> false) () =
  let t0 = now k.m in
  List.iteri
    (fun fi (fw : Driver.Compile.func_work) ->
      if not (skip fw) then begin
        Netsim.Host.set_resident ws (Driver.Cost.function_master_mb k.m.cost fw);
        ignore
          (compute k.m ~attempt:a ws ~tag:phase (seconds k.m.cost fw)
             (salt0 + (31 * k.ti) + fi))
      end)
    k.t.Plan.t_funcs;
  lspan k ~attempt_n:a.n ws ~name:phase ~t0

(* Ship [bytes] from [ws] to the file server, close the station's
   span(s) from the shipping start, and hand the station back. *)
let hand_off k ws ~bytes ~spans =
  let t0 = now k.m in
  store k.m bytes;
  alive k.m ws;
  spans t0;
  Netsim.Host.set_resident ws 0.0;
  Netsim.Host.release_station k.m.sim k.m.cluster ws

(* The write-back/stage tail.  A speculative attempt stages into a
   versioned buffer and releases the station immediately: the commit
   verdict is awaited off-station, so speculation never holds a pool
   slot hostage. *)
let write_back k a ws =
  let lspan = lspan k ~attempt_n:a.n ws in
  hand_off k ws ~bytes:k.output_bytes ~spans:(fun t0 ->
      if a.pending = [] then lspan ~name:"write-back" ~t0
      else begin
        lspan ~name:"stage" ~t0;
        a.staged <- true;
        lspan ~name:"spec-attempt" ~t0:a.t_claim
      end)

(* Coarse grain: each function is first looked up in the compile
   cache; a hit transfers the memoized artifact — free when this
   station's byte cache still holds it — instead of computing. *)
let coarse_stage k a ws =
  let fetch ~file = fetch_to k ws ~file ~held:(has k.m ws file) in
  compute_phase k a ws ~phase:"phase23" ~seconds:Driver.Cost.phase23_seconds
    ~salt0:300 ~skip:(Cache.lookup k.cache ~fetch) ();
  ws

(* Fine grain: phase 2 here, then hand the IR to a phase-3 master on a
   (possibly different) pool station — on a locality retry, preferably
   one that held this task's IR. *)
let fine_stage k a ws =
  compute_phase k a ws ~phase:"phase2" ~seconds:Driver.Cost.phase2_seconds
    ~salt0:300 ();
  let ir_bytes =
    List.fold_left
      (fun acc fw -> acc +. Driver.Cost.ir_bytes fw)
      0.0 k.t.Plan.t_funcs
  in
  hand_off k ws ~bytes:ir_bytes ~spans:(fun t0 ->
      lspan k ~attempt_n:a.n ws ~name:"write-ir" ~t0);
  let file = "ir:" ^ k.label in
  let ws3 =
    station_stage k a ~file ~suffix:"#p3" ~init_salt:(400 + k.ti) ~granted:ignore
  in
  let t_fir = now k.m in
  fetch_to k ws3 ~file ~held:(held k a ws3 file) ir_bytes;
  lspan k ~attempt_n:a.n ws3 ~name:"fetch-ir" ~t0:t_fir;
  compute_phase k a ws3 ~phase:"phase3" ~seconds:Driver.Cost.phase3_seconds
    ~salt0:500 ();
  ws3

(* The function master proper.  The speculation decision is made once
   the station is granted: any speculative predecessor not yet durably
   complete makes this attempt speculative — its output will be staged,
   not written back, and the commit oracle rules at predecessor
   write-back time.  Off dag+spec [spec_deps] is empty, so no attempt
   ever speculates. *)
let function_master k a ~hardened =
  let m = k.m in
  let speculate () =
    if m.policy = Sched.Dag_spec && not hardened then
      a.pending <-
        List.filter
          (fun d -> not (Netsim.Sync.is_set k.completion.(d)))
          k.spec_deps;
    if a.pending <> [] then begin
      m.stats.spec_dispatched <- m.stats.spec_dispatched + 1;
      linstant k ~attempt_n:a.n "spec-dispatch"
    end
  in
  a.t_claim <- now m;
  let ws =
    station_stage k a ~file:m.src_file ~suffix:"" ~init_salt:(100 + k.ti)
      ~granted:speculate
  in
  let t_parse = now m in
  fetch_to k ws ~file:m.src_file ~held:(held k a ws m.src_file)
    (Driver.Cost.source_bytes m.cost (Plan.task_loc k.t));
  let reparse =
    compute m ~attempt:a ws ~tag:"reparse"
      (m.cost.Driver.Cost.sec_per_token *. float_of_int k.tokens)
      (200 + k.ti)
  in
  lspan k ~attempt_n:a.n ws ~name:"parse" ~t0:t_parse;
  m.stats.extra_parse_cpu <- m.stats.extra_parse_cpu +. reparse;
  write_back k a (m.stage k a ws)

(* Durable completion, shared by the winning attempt, the speculative
   commit and the fallback: take the completion token first (so any
   straggler counts as wasted), finish making the output durable,
   publish the task's artifacts into the compile cache, and record the
   placements.  Never reached by a superseded straggler or a
   quarantined speculative artifact, so each cache key is stored at
   most once. *)
let complete k ~placed ?(durable = ignore) ?(after = ignore) () =
  k.completed <- true;
  durable ();
  Cache.publish k.cache k.t.Plan.t_funcs;
  after ();
  k.m.stats.placements <- placed @ k.m.stats.placements

let wasted k a =
  k.m.stats.wasted_cpu <- k.m.stats.wasted_cpu +. a.spent;
  linstant k ~attempt_n:a.n "wasted" ~extra:[ ("cpu", Trace.farg a.spent) ]

(* The version-pointer flip that commits or quarantines a staged
   artifact, traced on the master's track. *)
let flip k a ~name =
  let t0 = now k.m in
  store k.m spec_meta_bytes;
  lspan k ~attempt_n:a.n k.m.ws_m ~name ~t0

(* One attempt from claim to verdict ([None]: a straggler whose output
   a re-dispatch already superseded).  A speculative attempt runs the
   commit protocol off-station.  The online race check is per involved
   edge: a pending predecessor the attempt overlapped is a race exactly
   when the pair really shares state (hot); cold edges are conservative
   artifacts and commit without waiting.  On a conflict the oracle
   rules at the predecessor's write-back time, quarantines the stale
   staged artifact and surrenders the attempt's CPU to the wasted
   account.  A commit takes the completion token before the pointer
   flip yields, so the staged artifact becomes durable exactly once. *)
let run_attempt k a =
  let stats = k.m.stats in
  match function_master k a ~hardened:k.hardened with
  | exception Lost _ ->
    linstant k ~attempt_n:a.n "attempt-lost";
    wasted k a;
    Some (Msg_failed a.n)
  | () ->
    let conflict = List.find_opt (fun d -> List.mem d k.hot_deps) a.pending in
    Option.iter (fun d -> Netsim.Sync.await k.completion.(d)) conflict;
    if k.completed then begin
      wasted k a;
      None
    end
    else if conflict <> None then begin
      stats.spec_rolled_back <- stats.spec_rolled_back + 1;
      flip k a ~name:"spec-abort";
      wasted k a;
      Some (Msg_aborted a.n)
    end
    else begin
      complete k ~placed:a.noted
        ~durable:(fun () ->
          if a.pending <> [] then begin
            stats.spec_committed <- stats.spec_committed + 1;
            flip k a ~name:"spec-commit"
          end)
        ();
      Some Msg_completed
    end

(* Start the task's next attempt.  Unsupervised, it runs inline in the
   task's own process: an extra spawn would reorder events at equal
   times.  Supervised, it is a process of its own, under a watchdog
   that presumes it lost if it has not reported by the deadline. *)
let launch k =
  k.attempts <- k.attempts + 1;
  let a =
    {
      n = k.attempts;
      noted = [];
      spent = 0.0;
      t_claim = 0.0;
      pending = [];
      staged = false;
    }
  in
  match k.sup with
  | None -> ignore (run_attempt k a)
  | Some s ->
    Netsim.Des.spawn k.m.sim (fun () ->
        Netsim.Des.delay s.deadline;
        if (not k.completed) && not a.staged then begin
          linstant k ~attempt_n:a.n "timeout";
          Netsim.Sync.send s.mailbox (Msg_timed_out a.n)
        end);
    Netsim.Des.spawn k.m.sim (fun () ->
        Option.iter (Netsim.Sync.send s.mailbox) (run_attempt k a))

(* Budget exhausted: compile the task in the master's Lisp, which
   already holds the parsed module — the sequential degradation
   rung. *)
let fallback k =
  let m = k.m in
  let t_fb = now m in
  complete k
    ~placed:(List.map (fun h -> (h, m.ws_m.Netsim.Host.ws_id)) (Option.to_list k.head))
    ~durable:(fun () ->
      m.stats.fallback_tasks <- m.stats.fallback_tasks + 1;
      List.iteri
        (fun fi (fw : Driver.Compile.func_work) ->
          let mb =
            m.cost.Driver.Cost.data_mb_per_loc
            *. float_of_int fw.Driver.Compile.fw_loc
          in
          Netsim.Host.add_resident m.ws_m mb;
          ignore
            (compute m m.ws_m ~tag:"fallback-phase23"
               (Driver.Cost.phase23_seconds m.cost fw)
               (600 + (31 * k.ti) + fi));
          Netsim.Host.remove_resident m.ws_m mb)
        k.t.Plan.t_funcs;
      store m k.output_bytes)
    ~after:(fun () ->
      lspan k ~attempt_n:(k.attempts + 1) m.ws_m ~name:"fallback" ~t0:t_fb)
    ()

(* The section master's supervision of one task; returns once the
   task's output is durable. *)
let supervise k s =
  let cfg = k.m.cfg in
  let rec await budget =
    match Netsim.Sync.recv s.mailbox with
    | Msg_completed -> ()
    | (Msg_failed n | Msg_timed_out n) when n = k.attempts && not k.completed ->
      if budget > 0 then begin
        let step = cfg.Config.retry_budget - budget in
        Netsim.Des.delay (Config.backoff_delay cfg ~step);
        (* A straggler may have finished during the backoff; its
           Msg_completed is queued. *)
        if not k.completed then begin
          k.m.stats.retries <- k.m.stats.retries + 1;
          linstant k ~attempt_n:(k.attempts + 1) "retry";
          launch k;
          await (budget - 1)
        end
      end
      else fallback k
    | Msg_aborted n when n = k.attempts && not k.completed ->
      (* Misspeculation.  The conflicting predecessor just wrote back
         durably, so an immediate relaunch cannot re-conflict on it: no
         backoff, and the retry budget (which pays for faults, not
         oracle verdicts) is untouched.  Past the speculation budget
         the task hardens: further launches gate on every erstwhile
         speculative edge, which is the dag+lpt discipline for this
         task. *)
      k.spec_fails <- k.spec_fails + 1;
      if k.spec_fails >= cfg.Config.spec_budget then begin
        k.hardened <- true;
        List.iter (fun d -> Netsim.Sync.await k.completion.(d)) k.spec_deps
      end;
      launch k;
      await budget
    | Msg_failed _ | Msg_timed_out _ | Msg_aborted _ ->
      (* Stale attempt, or the task completed since this verdict was
         posted. *)
      await budget
  in
  await cfg.Config.retry_budget

let make_task m mw ~ti (t : Plan.task) ~completion ~spec_deps ~hot_deps =
  let cost = m.cost in
  let cfg = m.cfg in
  let sum f = List.fold_left (fun acc fw -> acc + f fw) 0 t.Plan.t_funcs in
  let head = Plan.task_head t in
  let label = Option.value head ~default:"<empty>" in
  let tokens = sum (fun fw -> fw.Driver.Compile.fw_tokens) in
  (* Speculation needs the supervisor even on a fault-free host:
     aborted attempts re-dispatch through it. *)
  let sup =
    if Netsim.Fault.is_none cfg.Config.faults && m.policy <> Sched.Dag_spec
    then None
    else
      let work_estimate =
        cost.Driver.Cost.lisp_init_seconds
        +. (cost.Driver.Cost.sec_per_token *. float_of_int tokens)
        +. Driver.Cost.task_phase23_seconds cost t.Plan.t_funcs
        +. (if cfg.Config.fine_grained then cost.Driver.Cost.lisp_init_seconds
            else 0.0)
        +. 60.0 (* grace for downloads and queueing *)
      in
      Some
        {
          deadline = cfg.Config.deadline_factor *. work_estimate;
          mailbox = Netsim.Sync.mailbox ();
        }
  in
  {
    m;
    ti;
    t;
    label;
    head;
    tokens;
    (* Write-back: code, fixed framing, and the rendered diagnostics the
       section master will combine. *)
    output_bytes =
      (16.0 *. float_of_int (sum (fun fw -> fw.Driver.Compile.fw_wides)))
      +. cost.Driver.Cost.diagnostic_bytes
      +. Driver.Cost.task_diag_bytes t.Plan.t_funcs;
    completion;
    spec_deps;
    hot_deps;
    sup;
    cache =
      {
        Cache.store = Config.compile_cache cfg;
        sim = m.sim;
        cluster = m.cluster;
        stats = m.stats;
        trace = cfg.Config.trace;
        track = m.ws_m.Netsim.Host.ws_id;
        task = label;
        modul = mw.Driver.Compile.mw_name;
      };
    completed = false;
    attempts = 0;
    spec_fails = 0;
    hardened = false;
  }

(* One section master: interpret the placement directives, fork one
   task per plan entry, and combine the results once all are
   durable. *)
let section_master m mw (plan : Plan.t) si (section_name, tasks) ~sections_done () =
  let cost = m.cost in
  let n_tasks = List.length tasks in
  (* Section masters are C processes on the master's host. *)
  Netsim.Des.delay cost.Driver.Cost.c_process_seconds;
  let interpret =
    compute m m.ws_m ~tag:"sect-interpret" (0.05 *. float_of_int n_tasks) (20 + si)
  in
  m.stats.section_cpu <- m.stats.section_cpu +. interpret;
  let tasks_done = Netsim.Sync.join n_tasks in
  (* Under a DAG policy each task gets a one-shot completion event;
     dependent tasks await their predecessors' events before claiming
     a station.  Everything is a no-op for edge-free sections (and for
     the non-DAG policies, whose dependence lists are empty): awaiting
     an already-set event never suspends and setting an event nobody
     awaits schedules nothing, so the event schedule is untouched.

     [deps] gates dispatch.  Under [Dag_spec] only the proven edges
     gate; the speculative remainder ([spec_deps]) is checked by the
     commit protocol instead, and its hot subset ([hot_deps]) — pairs
     the uncapped analysis proves really share state — is what forces
     an abort. *)
  let spec_mode = m.policy = Sched.Dag_spec in
  let task_deps func_deps =
    Sched.task_deps ~func_deps ~section:section_name tasks
  in
  let none = Array.make n_tasks [] in
  let deps =
    if Sched.dag_gated m.policy then
      task_deps (if spec_mode then Plan.proven_deps plan else plan.Plan.func_deps)
    else none
  in
  let spec_deps, hot_deps =
    if spec_mode then
      ( Array.mapi
          (fun i full -> List.filter (fun d -> not (List.mem d deps.(i))) full)
          (task_deps plan.Plan.func_deps),
        task_deps plan.Plan.hot_edges )
    else (none, none)
  in
  let completion = Array.init n_tasks (fun _ -> Netsim.Sync.event ()) in
  List.iteri
    (fun ti task ->
      (* Remote process creation is serialized in the forking parent
         (rsh-style), a real cost of UNIX process hierarchies the paper
         complains about. *)
      Netsim.Des.delay cost.Driver.Cost.fm_fork_seconds;
      let k =
        make_task m mw ~ti task ~completion ~spec_deps:spec_deps.(ti)
          ~hot_deps:hot_deps.(ti)
      in
      Netsim.Des.spawn m.sim (fun () ->
          (* Dependence gating happens inside the spawned process, so
             the section master keeps forking the rest of its queue
             while a gated task parks. *)
          List.iter (fun d -> Netsim.Sync.await completion.(d)) deps.(ti);
          launch k;
          Option.iter (supervise k) k.sup;
          (* The task's output is durable only here, so the completion
             event fires exactly once per task, after the write that
             dependents are allowed to read. *)
          Netsim.Sync.set completion.(ti);
          Netsim.Sync.signal tasks_done))
    tasks;
  Netsim.Sync.wait tasks_done;
  (* Combine per-function results and diagnostics. *)
  let sections = mw.Driver.Compile.mw_sections in
  let sw =
    match
      List.find_opt
        (fun (s : Driver.Compile.section_work) ->
          s.Driver.Compile.sw_name = section_name)
        sections
    with
    | Some sw -> sw
    | None ->
      failwith
        (Printf.sprintf "Parrun: plan names section %S, but module %s only has: %s"
           section_name mw.Driver.Compile.mw_name
           (String.concat ", "
              (List.map
                 (fun (s : Driver.Compile.section_work) -> s.Driver.Compile.sw_name)
                 sections)))
  in
  let combine =
    compute m m.ws_m ~tag:"combine" (Driver.Cost.combine_seconds sw) (40 + si)
  in
  m.stats.section_cpu <- m.stats.section_cpu +. combine;
  Netsim.Sync.signal sections_done

(* Apply the dispatch policy.  A pure plan-to-plan transformation:
   [Sched.Fcfs] (the default) returns the plan physically unchanged, so
   the event schedule is bit-identical to the unscheduled compiler.
   Applied in [master_process] rather than in [run] so the parallel-make
   study (which spawns master processes directly) is scheduled too; and
   deterministic, so [run]'s race oracles re-derive exactly the task
   queues the master dispatched. *)
let scheduled (cfg : Config.t) plan =
  Sched.schedule ~static:cfg.Config.static_cost
    ~policy:(Config.effective_policy cfg) ~cost:cfg.Config.cost
    ~threshold:cfg.Config.batch_threshold ~stations:cfg.Config.stations plan

(* The master process body; spawnable so that several modules can be
   compiled concurrently on one cluster (the parallel-make study). *)
let master_process (cfg : Config.t) sim (cluster : Netsim.Host.cluster) ~noise
    ~salt (mw : Driver.Compile.module_work) (plan : Plan.t)
    ~(stats : Timings.stats) ~on_finish () =
  let cost = cfg.Config.cost in
  let plan = scheduled cfg plan in
  stats.Timings.dispatch_units <-
    stats.Timings.dispatch_units + Plan.task_count plan;
  let ws_m = Netsim.Host.claim sim cluster in
  let ws_id = ws_m.Netsim.Host.ws_id in
  let policy = Config.effective_policy cfg in
  let stage = if cfg.Config.fine_grained then fine_stage else coarse_stage in
  let src_file = "src:" ^ mw.Driver.Compile.mw_name in
  let m =
    { cfg; cost; sim; cluster; noise; salt; stats; policy; ws_m; src_file; stage }
  in
  (* C master: cheap startup, then read the source. *)
  Netsim.Des.delay cost.Driver.Cost.c_process_seconds;
  fetch m ~client:ws_id ~file:src_file
    (Driver.Cost.source_bytes cost mw.Driver.Compile.mw_loc);
  (* The master's Lisp process: phase 1 proper plus the extra
     structure-discovering parse (the latter is implementation
     overhead). *)
  (if cfg.Config.core_download then
     fetch m ~client:ws_id ~file:core_file cost.Driver.Cost.lisp_core_bytes);
  let ast_mb =
    cost.Driver.Cost.ast_mb_per_loc *. float_of_int mw.Driver.Compile.mw_loc
  in
  Netsim.Host.set_resident ws_m (cost.Driver.Cost.lisp_core_mb +. ast_mb);
  ignore (compute m ws_m ~tag:"lisp-init" cost.Driver.Cost.lisp_init_seconds 11);
  ignore (compute m ws_m ~tag:"phase1" (Driver.Cost.phase1_seconds cost mw) 12);
  let setup =
    compute m ws_m ~tag:"setup-parse" (Driver.Cost.setup_parse_seconds cost mw) 13
  in
  stats.Timings.master_cpu <- stats.Timings.master_cpu +. setup;
  (* Scheduling: derive the task placement directives. *)
  let sched =
    compute m ws_m ~tag:"sched" (0.1 *. float_of_int (Plan.task_count plan)) 14
  in
  stats.Timings.master_cpu <- stats.Timings.master_cpu +. sched;
  let sections_done = Netsim.Sync.join (List.length plan.Plan.tasks_per_section) in
  List.iteri
    (fun si section ->
      Netsim.Des.spawn sim (section_master m mw plan si section ~sections_done))
    plan.Plan.tasks_per_section;
  Netsim.Sync.wait sections_done;
  (* Phase 4 back in the master's Lisp process. *)
  Netsim.Host.set_resident ws_m
    (cost.Driver.Cost.lisp_core_mb +. ast_mb
    +. cost.Driver.Cost.retained_mb_per_loc
       *. float_of_int mw.Driver.Compile.mw_loc);
  ignore (compute m ws_m ~tag:"phase4" (Driver.Cost.phase4_seconds cost mw) 50);
  store m (float_of_int (Driver.Compile.total_image_bytes mw));
  Netsim.Host.set_resident ws_m 0.0;
  Netsim.Host.release_station sim cluster ws_m;
  on_finish (Netsim.Des.now sim)

let run (cfg : Config.t) (mw : Driver.Compile.module_work) (plan : Plan.t) :
    outcome =
  let sim = Netsim.Des.create () in
  (* When this run starts on an empty trace, the recorded spans must
     reproduce the mutable-counter bookkeeping exactly — checked below
     (the check is skipped for traces shared across runs, e.g. the
     parallel-make study). *)
  let tr = cfg.Config.trace in
  let fresh_trace =
    Trace.enabled tr && Trace.span_count tr = 0 && Trace.instant_count tr = 0
  in
  let cluster = Config.cluster cfg in
  let finish = ref None in
  let stats = Timings.fresh_stats () in
  Netsim.Des.spawn sim
    (master_process cfg sim cluster ~noise:(Config.noise cfg) ~salt:0 mw plan ~stats
       ~on_finish:(fun t -> finish := Some t));
  ignore (Netsim.Des.run sim);
  let elapsed =
    match !finish with
    | Some t -> t
    | None ->
      (* The event queue drained with the master still waiting: some
         task awaits a completion that can never come. *)
      let placed = List.map fst stats.Timings.placements in
      let waiting =
        (scheduled cfg plan).Plan.tasks_per_section
        |> List.concat_map (fun (_, tasks) -> List.filter_map Plan.task_head tasks)
        |> List.filter (fun h -> not (List.mem h placed))
      in
      failwith
        ("Parrun.run: deadlock, tasks never completed: " ^ String.concat ", " waiting)
  in
  let run = Timings.of_stats stats cluster ~elapsed in
  if fresh_trace then begin
    Traceview.assert_matches_run tr run;
    (* Under a DAG policy the schedule promises dependence order; let
       the trace prove it kept that promise.  dag+spec makes a weaker
       promise — proven edges ordered, speculative edges ordered only
       for the winning attempt of genuinely conflicting pairs — checked
       by the speculation-aware oracle. *)
    let policy = Config.effective_policy cfg in
    if policy = Sched.Dag_spec then
      Traceview.assert_race_free_spec tr ~plan:(scheduled cfg plan)
    else if Sched.dag_gated policy then
      Traceview.assert_race_free tr ~plan:(scheduled cfg plan)
  end;
  (* Placements report in (task, station) order rather than completion
     order, which under supervision depends on the racing attempts —
     sorted output is stable across fault plans. *)
  { run; station_of_task = List.sort compare stats.Timings.placements }
