(* Golden matrix over the parallel runner's task lifecycle.

   Every cell runs one shipped example through [Parrun.run] and pins
   what the run produced bit for bit: each [Timings.run] field (floats
   as [%h]), the sorted task placements, and the MD5 of the Chrome
   trace export (span and instant names, tracks, args and order).  The
   matrix crosses every dispatch policy with coarse/fine grain, a
   fault-free and a crashing fault plan, and three cache states (no
   cache, a cold store, the warm second run on that store), so the
   claim → fetch → compute → stage → commit | abort → publish machine
   is pinned through retries, locality-aware re-dispatch, fallback,
   speculation and cache hits at once.  A [Seqrun] row per program and
   cache state pins the sequential runner's share of the cache code.

   The expected lines live in [lifecycle.golden], one
   [label<TAB>value] line per cell. *)

open Parallel_cc

(* fir and coupled are the shipped examples the critpath goldens pin;
   racy speculates under dag+spec, so its cells reach the commit
   oracle's abort path. *)
let programs = [ "fir.w2"; "coupled.w2"; "racy.w2" ]
let pool = 3

(* Three of the pool's stations crash or are reclaimed within the first
   150 simulated seconds: some cells recover by re-dispatch alone, the
   rest exhaust the retry budget and fall back to the master. *)
let fault_plan =
  Netsim.Fault.random ~seed:1 ~stations:(pool + 1) ~rate:0.7 ~horizon:150.0 ()

let cfg ~policy ~fine ~faults ~cache =
  {
    Config.default with
    Config.stations = pool + 1;
    noise_seed = 5;
    sched_policy = policy;
    fine_grained = fine;
    faults;
    cache;
    trace = Trace.create ();
  }

let render_run (r : Timings.run) =
  let h = Printf.sprintf "%h" in
  String.concat " "
    [
      h r.Timings.elapsed;
      "[" ^ String.concat "," (List.map h r.Timings.cpu_per_station) ^ "]";
      h r.Timings.master_cpu;
      h r.Timings.section_cpu;
      h r.Timings.extra_parse_cpu;
      string_of_int r.Timings.stations_used;
      string_of_int r.Timings.dispatch_units;
      string_of_int r.Timings.retries;
      string_of_int r.Timings.stations_lost;
      string_of_int r.Timings.fallback_tasks;
      h r.Timings.wasted_cpu;
      string_of_int r.Timings.spec_dispatched;
      string_of_int r.Timings.spec_committed;
      string_of_int r.Timings.spec_rolled_back;
      string_of_int r.Timings.cache_hits;
      string_of_int r.Timings.cache_misses;
      string_of_int r.Timings.cache_invalidated;
    ]

let render ~run ~placements (c : Config.t) =
  Printf.sprintf "%s {%s} %s" (render_run run)
    (String.concat ","
       (List.map (fun (n, s) -> Printf.sprintf "%s@%d" n s) placements))
    (Digest.to_hex (Digest.string (Trace.to_chrome_json c.Config.trace)))

(* The three cache states of one configuration: no store, then a cold
   and a warm run against one fresh store. *)
let with_caches f =
  let store = Cache.create () in
  let nocache = f None in
  let cold = f (Some store) in
  let warm = f (Some store) in
  [ ("nocache", nocache); ("cold", cold); ("warm", warm) ]

(* Every (label, rendered line) cell of one program, in a fixed
   order. *)
let cells name =
  let mw = Tutil.example name in
  let plan = Plan.one_per_station mw in
  let grains = [ ("coarse", false); ("fine", true) ] in
  let par =
    List.concat_map
      (fun policy ->
        List.concat_map
          (fun (grain, fine) ->
            List.concat_map
              (fun (fault, faults) ->
                List.map
                  (fun (cache, line) ->
                    ( String.concat " "
                        [ name; Sched.policy_name policy; grain; fault; cache ],
                      line ))
                  (with_caches (fun cache ->
                       let c = cfg ~policy ~fine ~faults ~cache in
                       let o = Parrun.run c mw plan in
                       render ~run:o.Parrun.run
                         ~placements:o.Parrun.station_of_task c)))
              [ ("ff", Netsim.Fault.none); ("faults", fault_plan) ])
          grains)
      Sched.all_policies
  in
  let seq =
    List.concat_map
      (fun (grain, fine) ->
        List.map
          (fun (cache, line) ->
            (String.concat " " [ name; "seq"; grain; cache ], line))
          (with_caches (fun cache ->
               let c =
                 cfg ~policy:Sched.Fcfs ~fine ~faults:Netsim.Fault.none ~cache
               in
               render ~run:(Seqrun.run c mw) ~placements:[] c)))
      grains
  in
  par @ seq

let golden =
  lazy
    (let path =
       List.find Sys.file_exists
         [ "lifecycle.golden"; Filename.concat "test" "lifecycle.golden" ]
     in
     let ic = open_in_bin path in
     let rec lines acc =
       match input_line ic with
       | l -> (
         match String.index_opt l '\t' with
         | Some i ->
           lines
             ((String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
             :: acc)
         | None -> lines acc)
       | exception End_of_file ->
         close_in ic;
         List.rev acc
     in
     lines [])

let test_program name () =
  let got = cells name in
  let expect =
    List.filter
      (fun (label, _) -> String.starts_with ~prefix:(name ^ " ") label)
      (Lazy.force golden)
  in
  Alcotest.(check (list string))
    (name ^ ": cell labels") (List.map fst expect) (List.map fst got);
  List.iter2
    (fun (label, e) (_, g) -> Alcotest.(check string) label e g)
    expect got

(* The matrix is only an oracle for the branches it reaches: faulty
   cells must retry at both grains, some recovering by re-dispatch and
   some by fallback; dag+spec must speculate and roll back; and the
   warm runs must hit. *)
let test_coverage () =
  let lines = Lazy.force golden in
  let count pred = List.length (List.filter pred lines) in
  let field i (_, v) = List.nth (String.split_on_char ' ' v) i in
  let pos i cell = int_of_string (field i cell) > 0 in
  let has sub (label, _) = Tutil.contains label sub in
  let zero i cell = not (pos i cell) in
  Alcotest.(check bool) "retry without fallback" true
    (count (fun c -> pos 7 c && zero 9 c) > 0);
  Alcotest.(check bool) "fallback" true (count (pos 9) > 0);
  Alcotest.(check bool) "stations lost" true (count (pos 8) > 0);
  Alcotest.(check bool) "speculation rolled back" true (count (pos 13) > 0);
  Alcotest.(check bool) "warm hits" true
    (count (fun c -> has " warm" c && pos 14 c) > 0);
  Alcotest.(check bool) "fine-grained faulty retries" true
    (count (fun c -> has " fine faults" c && pos 7 c) > 0)

let suites =
  [
    ( "parrun.lifecycle",
      List.map
        (fun name -> Alcotest.test_case name `Quick (test_program name))
        programs
      @ [ Alcotest.test_case "matrix coverage" `Quick test_coverage ] );
  ]
