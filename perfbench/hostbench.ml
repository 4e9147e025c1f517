(* Host-clock benchmark harness: the in-process half of the benchmark
   driven by perfbench/run.py.

     hostbench gen-compile DIR VARIANT      write the compile inputs
     hostbench gen-project DIR VARIANT      write the clustered projects
     hostbench cells DIR                    run each entry call compiled in out/
     hostbench sim-setup FILE               precompile the simulate inputs
     hostbench simulate FILE SEED [--trace-out F] [--zero-elapsed]
                                            one pass of the simulate workload
     hostbench calibrate                    time a fixed stdlib workload
     hostbench replay-compile DIR TRACE     traced replay of `warpcc compile`
     hostbench replay-project DIR TRACE     traced replay of `warpcc analyze`

   Every command prints one JSON object on stdout.  Host spans are
   recorded with [Trace.span] on the host monotonic clock (seconds since
   the harness started), one track per layer, with the span id and its
   parent's id in [args]; the traced commands export them with
   [Trace.to_chrome_json] so they open in Perfetto like DES traces. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let origin = now ()

(* --- JSON output --- *)

let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let jnum f = if Float.is_integer f then Printf.sprintf "%.0f" f else Printf.sprintf "%.17g" f
let jint = string_of_int
let jbool = string_of_bool
let jobj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) fields) ^ "}"
let jlist items = "[" ^ String.concat ", " items ^ "]"

(* --- files --- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let md5 s = Digest.to_hex (Digest.string s)

(* --- host spans --- *)

(* Per-layer accumulators.  A layer's [self_s] is the duration of its
   spans minus the part their child spans cover; [alloc_w] likewise
   counts the words allocated outside child spans. *)
type layer = {
  mutable calls : int;
  mutable self_s : float;
  mutable alloc_w : float;
  counts : (string, float) Hashtbl.t;
}

let layers : (string, layer) Hashtbl.t = Hashtbl.create 32
let layer_order = ref []
let tracer = ref Trace.none

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
    let l = { calls = 0; self_s = 0.0; alloc_w = 0.0; counts = Hashtbl.create 4 } in
    Hashtbl.replace layers name l;
    layer_order := name :: !layer_order;
    l

(* One Perfetto track per layer, numbered in first-use order clear of
   the DES workstation and infrastructure tracks. *)
let track_of name =
  let rec index i = function
    | [] -> 0
    | n :: rest -> if n = name then i else index (i + 1) rest
  in
  2000 + index 0 (List.rev !layer_order)

let count name key v =
  if Trace.enabled !tracer then begin
    let l = layer name in
    Hashtbl.replace l.counts key
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt l.counts key))
  end

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type frame = { f_id : int; mutable f_child_s : float; mutable f_child_w : float }

let stack : frame list ref = ref []
let next_id = ref 0
let last_dur = ref 0.0

(* [span name f] runs [f ()]; with tracing on it records a host span
   for layer [name] and leaves the span's duration in [last_dur]. *)
let span name f =
  if not (Trace.enabled !tracer) then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with p :: _ -> p.f_id | [] -> 0 in
    let fr = { f_id = id; f_child_s = 0.0; f_child_w = 0.0 } in
    stack := fr :: !stack;
    let w0 = alloc_words () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let w1 = alloc_words () in
      stack := List.tl !stack;
      let dur = t1 -. t0 and words = w1 -. w0 in
      (match !stack with
      | p :: _ ->
        p.f_child_s <- p.f_child_s +. dur;
        p.f_child_w <- p.f_child_w +. words
      | [] -> ());
      let l = layer name in
      l.calls <- l.calls + 1;
      l.self_s <- l.self_s +. (dur -. fr.f_child_s);
      l.alloc_w <- l.alloc_w +. (words -. fr.f_child_w);
      last_dur := dur;
      Trace.span !tracer ~track:(track_of name) ~cat:"host" ~name
        ~args:[ ("id", string_of_int id); ("parent", string_of_int parent) ]
        ~t0:(t0 -. origin) ~t1:(t1 -. origin) ()
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let layers_json () =
  jobj
    (List.rev_map
       (fun name ->
         let l = Hashtbl.find layers name in
         ( name,
           jobj
             ([ ("calls", jint l.calls); ("s", jnum l.self_s); ("alloc_w", jnum l.alloc_w) ]
             @ Hashtbl.fold (fun k v acc -> (k, jnum v) :: acc) l.counts []) ))
       !layer_order)

let write_trace path = write_file path (Trace.to_chrome_json ~counters:false !tracer)

(* --- inputs --- *)

(* run.py maps --seed onto one of four input variants, each pinned.  A
   variant picks the function-length ladder's generator draw and the
   projects' generator seed.  The draws are the four of the first ten
   whose ladders cost nearly the same to compile, so the seed varies the
   inputs without varying the workload's size. *)
let ladder_draws = [| 2; 3; 4; 8 |]
let ladder_lines = [ 250; 500; 750 ]
let project_sizes = [ 400; 800; 1600 ]

let short_size size =
  let n = W2.Gen.size_name size in
  String.sub n 2 (String.length n - 2)

(* The paper's S_8 at every size, the section-4.3 user program, the
   section-5.1 helper program, and a function-length ladder whose
   function names (and so the generator's draw) depend on the
   variant. *)
let compile_inputs variant =
  List.map
    (fun size -> ("s8_" ^ short_size size, W2.Gen.s_program ~size ~count:8 ()))
    W2.Gen.all_sizes
  @ [ ("user", W2.Gen.user_program ()); ("helper", W2.Gen.helper_program ()) ]
  @ List.map
      (fun lines ->
        ( Printf.sprintf "ladder_%d" lines,
          W2.Gen.module_of_function
            (W2.Gen.benchmark_function
               ~name:(Printf.sprintf "rung%d_v%d" lines ladder_draws.(variant))
               ~lines) ))
      ladder_lines

let arg_ints = [| 9; 2; 3; 4; 5; 6 |]

let args_of (f : W2.Ast.func) =
  let rec go i = function
    | [] -> Some []
    | (p : W2.Ast.param) :: rest -> (
      let v =
        match p.W2.Ast.pty with
        | W2.Ast.Tint -> Some (W2.Interp.Vint arg_ints.(i mod Array.length arg_ints))
        | W2.Ast.Tfloat -> Some (W2.Interp.Vfloat 1.5)
        | W2.Ast.Tbool -> Some (W2.Interp.Vbool true)
        | W2.Ast.Tarray _ -> None
      in
      match (v, go (i + 1) rest) with
      | Some v, Some vs -> Some (v :: vs)
      | _ -> None)
  in
  go 0 f.W2.Ast.params

let fuel = 5_000_000

(* The fixed entry call of a module: the first function of its first
   section that takes scalar arguments and returns a value under the
   reference interpreter. *)
let pick_entry (m : W2.Ast.modul) =
  let sec = List.hd m.W2.Ast.sections in
  List.find_map
    (fun (f : W2.Ast.func) ->
      match args_of f with
      | None -> None
      | Some args -> (
        match W2.Interp.run_function ~fuel sec ~name:f.W2.Ast.fname ~args with
        | Some _ -> Some (sec.W2.Ast.sname, f.W2.Ast.fname, args)
        | None -> None
        | exception _ -> None))
    sec.W2.Ast.funcs

let arg_to_string = function
  | W2.Interp.Vint n -> Printf.sprintf "i%d" n
  | W2.Interp.Vfloat x -> Printf.sprintf "f%h" x
  | W2.Interp.Vbool b -> if b then "b1" else "b0"
  | W2.Interp.Varray _ -> invalid_arg "array argument"

let arg_of_string s =
  let body = String.sub s 1 (String.length s - 1) in
  match s.[0] with
  | 'i' -> W2.Interp.Vint (int_of_string body)
  | 'f' -> W2.Interp.Vfloat (float_of_string body)
  | 'b' -> W2.Interp.Vbool (body = "1")
  | _ -> invalid_arg ("bad argument " ^ s)

(* Writes DIR/<name>.w2 for every input and DIR/manifest.tsv, one row
   per input: name, module, entry section, entry function, entry
   arguments (space-separated) and source lines. *)
let gen_compile dir variant =
  mkdir_p dir;
  let rows =
    List.map
      (fun (name, m) ->
        write_file (Filename.concat dir (name ^ ".w2")) (W2.Pretty.module_to_string m);
        let sec, entry, args =
          match pick_entry m with
          | Some e -> e
          | None -> failwith (name ^ ": no entry call")
        in
        String.concat "\t"
          [
            name;
            m.W2.Ast.mname;
            sec;
            entry;
            String.concat " " (List.map arg_to_string args);
            string_of_int (W2.Pretty.module_loc m);
          ])
      (compile_inputs variant)
  in
  write_file (Filename.concat dir "manifest.tsv") (String.concat "\n" rows ^ "\n");
  print_endline (jobj [ ("inputs", jint (List.length rows)) ])

(* Clustered projects of [project_sizes] modules, one .w2 file per
   module, the way tools/emit_project writes them. *)
let gen_project dir variant =
  List.iter
    (fun n ->
      let pdir = Filename.concat dir (Printf.sprintf "p%d" n) in
      mkdir_p pdir;
      List.iter
        (fun (m : W2.Ast.modul) ->
          write_file
            (Filename.concat pdir (m.W2.Ast.mname ^ ".w2"))
            (W2.Pretty.module_to_string m))
        (W2.Gen.project_program ~modules:n ~seed:(variant + 1) ~shape:W2.Gen.Clustered ()))
    project_sizes;
  print_endline (jobj [ ("inputs", jint (List.length project_sizes)) ])

type entry = {
  e_name : string;
  e_module : string;
  e_section : string;
  e_entry : string;
  e_args : string list;
}

let read_manifest dir =
  read_file (Filename.concat dir "manifest.tsv")
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.split_on_char '\t' l with
         | [ e_name; e_module; e_section; e_entry; args; _lines ] ->
           {
             e_name;
             e_module;
             e_section;
             e_entry;
             e_args = List.filter (fun a -> a <> "") (String.split_on_char ' ' args);
           }
         | _ -> failwith ("bad manifest row: " ^ l))

(* --- cells: generated-code run time and the reference check --- *)

let ir_value = function
  | W2.Interp.Vint n -> Midend.Ir_interp.Vi n
  | W2.Interp.Vfloat x -> Midend.Ir_interp.Vf x
  | W2.Interp.Vbool b -> Midend.Ir_interp.Vi (if b then 1 else 0)
  | W2.Interp.Varray _ -> invalid_arg "array value"

let values_close a b =
  match (a, b) with
  | Midend.Ir_interp.Vi x, Midend.Ir_interp.Vi y -> x = y
  | Midend.Ir_interp.Vf x, Midend.Ir_interp.Vf y ->
    (Float.is_nan x && Float.is_nan y)
    || abs_float (x -. y) <= 1e-9 *. (1.0 +. abs_float x +. abs_float y)
  | _ -> false

(* For each input of DIR compiled into out/<name>/, decode the emitted
   .wobj, run the entry call on the cycle simulator, and compare with
   the reference interpreter on the source. *)
let cells dir =
  let rows =
    List.map
      (fun e ->
        let args = List.map arg_of_string e.e_args in
        let m = W2.Parser.module_of_string (read_file (Filename.concat dir (e.e_name ^ ".w2"))) in
        let sec = List.find (fun s -> s.W2.Ast.sname = e.e_section) m.W2.Ast.sections in
        let expected = W2.Interp.run_function ~fuel sec ~name:e.e_entry ~args in
        let wobj =
          List.fold_left Filename.concat "out"
            [ e.e_name; e.e_module ^ "." ^ e.e_section ^ ".wobj" ]
        in
        let ok, cycles, why =
          match
            Warp.Cellsim.run ~fuel:50_000_000
              (Warp.Asm.decode (read_file wobj))
              ~name:e.e_entry ~args:(List.map ir_value args)
          with
          | Some v, cycles -> (
            match expected with
            | Some ev when values_close v (ir_value ev) -> (true, cycles, "")
            | _ -> (false, cycles, "result differs from the reference interpreter"))
          | None, cycles -> (false, cycles, "no result")
          | exception ex -> (false, 0, Printexc.to_string ex)
        in
        jobj
          [ ("name", jstr e.e_name); ("ok", jbool ok); ("cycles", jint cycles); ("why", jstr why) ])
      (read_manifest dir)
  in
  print_endline (jobj [ ("cells", jlist rows) ])

(* --- traced replay of `warpcc compile` --- *)

(* Block contents as Codegen schedules them: every block is cut at its
   calls (each call becomes a block terminator), so list scheduling
   sees the call-free runs between calls. *)
let call_free_runs (instrs : Midend.Ir.instr list) =
  let rec go acc cur = function
    | [] -> List.rev (Array.of_list (List.rev cur) :: acc)
    | Midend.Ir.Call _ :: rest -> go (Array.of_list (List.rev cur) :: acc) [] rest
    | i :: rest -> go acc (i :: cur) rest
  in
  go [] [] instrs

(* Replay Codegen's sub-layers through their public entry points on the
   optimized IR [ir]; returns the placement attempts, which must equal
   the compiled function's [sched_work]. *)
let replay_codegen_layers (ir : Midend.Ir.func) =
  let candidates = Warp.Codegen.pipeline_candidates ir in
  let alloc = span "warp.regalloc" (fun () -> Warp.Regalloc.run ir) in
  count "warp.regalloc" "spilled" (float alloc.Warp.Regalloc.spilled);
  let f = alloc.Warp.Regalloc.func in
  let attempts = ref 0 in
  let pipelined = Hashtbl.create 4 in
  List.iter
    (fun ((c : Midend.Counted.t), _trip) ->
      let bb = c.Midend.Counted.body_block in
      count "warp.modsched" "candidates" 1.0;
      let ops =
        span "warp.modsched" (fun () ->
            Warp.Rename_locals.run f bb;
            Array.of_list f.Midend.Ir.blocks.(bb).Midend.Ir.instrs)
      in
      let ddg = span "warp.ddg" (fun () -> Warp.Ddg.build ~loop:true ops) in
      count "warp.ddg" "edges" (float (List.length ddg.Warp.Ddg.edges));
      match span "warp.modsched" (fun () -> Warp.Modsched.run ops) with
      | r ->
        attempts := !attempts + r.Warp.Modsched.attempts;
        count "warp.modsched" "attempts" (float r.Warp.Modsched.attempts);
        count "warp.modsched" "pipelined" 1.0;
        Hashtbl.replace pipelined bb c.Midend.Counted.header
      | exception Warp.Modsched.No_schedule w ->
        attempts := !attempts + w;
        count "warp.modsched" "attempts" (float w))
    candidates;
  let headers = Hashtbl.fold (fun _ h acc -> h :: acc) pipelined [] in
  Array.iteri
    (fun i (b : Midend.Ir.block) ->
      if not (Hashtbl.mem pipelined i || List.mem i headers) then
        List.iter
          (fun ops ->
            let ddg = span "warp.ddg" (fun () -> Warp.Ddg.build ops) in
            count "warp.ddg" "edges" (float (List.length ddg.Warp.Ddg.edges));
            let s = span "warp.listsched" (fun () -> Warp.Listsched.run ops) in
            attempts := !attempts + s.Warp.Listsched.attempts;
            count "warp.listsched" "attempts" (float s.Warp.Listsched.attempts);
            if Trace.enabled !tracer then begin
              let l = layer "warp.listsched" in
              let n = float (Array.length ops) in
              if n > Option.value ~default:0.0 (Hashtbl.find_opt l.counts "max_block_ops")
              then Hashtbl.replace l.counts "max_block_ops" n
            end)
          (call_free_runs b.Midend.Ir.instrs))
    f.Midend.Ir.blocks;
  !attempts

(* The public-call sequence of Driver.Compile.compile_source followed
   by the CLI's encode/driver/verify steps, one span per layer. *)
let replay_compile_one ~level ~file source =
  let tokens = span "w2.lexer" (fun () -> Driver.Compile.count_tokens source) in
  count "w2.lexer" "tokens" (float tokens);
  let m = span "w2.parser" (fun () -> W2.Parser.module_of_string ~file source) in
  (match span "w2.semcheck" (fun () -> W2.Semcheck.check_module m) with
  | [] -> ()
  | _ -> failwith (file ^ ": semantic errors"));
  let analysis = span "analysis.depan" (fun () -> Analysis.Depan.analyze m) in
  let funcs = ref [] in
  let outputs =
    List.map2
      (fun depan (sec : W2.Ast.section) ->
        let func_rets = Driver.Compile.func_rets_of sec in
        let lints = ref [] in
        span "w2.lint" (fun () -> W2.Lint.lint_section (fun d -> lints := d :: !lints) sec);
        let coupling = span "analysis.depan" (fun () -> Analysis.Depan.lint_section depan) in
        let lints = W2.Diag.sort (coupling @ !lints) in
        let keys =
          span "analysis.depan" (fun () ->
              Analysis.Depan.cache_keys
                ~salt:(Analysis.Depan.cache_salt ~opt_level:level ~verify_each:false)
                depan)
        in
        (* computed for their cost, as compile_section does; the CLI
           prints neither *)
        ignore (lints, keys);
        let results =
          List.map
            (fun (f : W2.Ast.func) ->
              let ftokens =
                span "w2.lexer" (fun () ->
                    Driver.Compile.count_tokens (W2.Pretty.func_to_string f))
              in
              count "w2.lexer" "tokens" (float ftokens);
              let ir =
                span "midend.lower" (fun () ->
                    Midend.Lower.lower_function ~func_rets ~globals:sec.W2.Ast.globals f)
              in
              count "midend.lower" "ir_instrs" (float (Midend.Ir.instr_count ir));
              let stats = span "midend.opt" (fun () -> Midend.Opt.optimize ~level ir) in
              let opt_s = !last_dur in
              count "midend.opt" "work" (float stats.Midend.Opt.work);
              (match span "midend.irverify" (fun () -> Midend.Irverify.check_func ir) with
              | [] -> ()
              | _ -> failwith (f.W2.Ast.fname ^ ": IR verification failed"));
              let compiled = span "warp.codegen" (fun () -> Warp.Codegen.compile_function ir) in
              let codegen_s = !last_dur in
              count "warp.codegen" "sched_work" (float compiled.Warp.Codegen.sched_work);
              count "warp.codegen" "wides" (float compiled.Warp.Codegen.wide_count);
              let attempts = replay_codegen_layers ir in
              if attempts <> compiled.Warp.Codegen.sched_work then
                failwith
                  (Printf.sprintf "%s: codegen sub-layer replay made %d attempts, codegen %d"
                     f.W2.Ast.fname attempts compiled.Warp.Codegen.sched_work);
              funcs :=
                jobj
                  [
                    ("name", jstr f.W2.Ast.fname);
                    ("opt_work", jint stats.Midend.Opt.work);
                    ("sched_work", jint compiled.Warp.Codegen.sched_work);
                    ("wides", jint compiled.Warp.Codegen.wide_count);
                    ("opt_s", jnum opt_s);
                    ("codegen_s", jnum codegen_s);
                  ]
                :: !funcs;
              (compiled.Warp.Codegen.mfunc, ir))
            sec.W2.Ast.funcs
        in
        let ir_section =
          {
            Midend.Ir.sec_name = sec.W2.Ast.sname;
            cells = sec.W2.Ast.cells;
            funcs = List.map snd results;
          }
        in
        if span "midend.irverify" (fun () -> Midend.Irverify.check_calls ir_section) <> []
        then failwith "call verification failed";
        if span "analysis.depan" (fun () -> Analysis.Depan.check_ir_calls depan ir_section) <> []
        then failwith "analyzer call cross-check failed";
        let image =
          span "warp.link" (fun () ->
              Warp.Link.link ~section:sec.W2.Ast.sname ~cells:sec.W2.Ast.cells
                (List.map fst results))
        in
        let driver = span "warp.iodriver" (fun () -> Warp.Iodriver.generate image) in
        ignore (span "warp.asm" (fun () -> Warp.Asm.encoded_size image));
        let wobj = span "warp.asm" (fun () -> Warp.Asm.encode image) in
        let drv = span "warp.iodriver" (fun () -> Warp.Iodriver.to_string driver) in
        if span "warp.verify" (fun () -> Warp.Verify.image image) <> [] then
          failwith "generated code failed verification";
        let base = m.W2.Ast.mname ^ "." ^ sec.W2.Ast.sname in
        [ (base ^ ".wobj", md5 wobj); (base ^ ".drv", md5 drv) ])
      analysis.Analysis.Depan.dp_sections m.W2.Ast.sections
  in
  (List.concat outputs, List.rev !funcs)

(* The time of one run of the pass [f] with tracing off, so that [span]
   and [count] are no-ops, from a compacted heap.  Each replay runs it
   before its traced pass: traced minus untraced is what tracing costs.
   A first, untimed run pays the one-off costs of the process's first
   pass, which would otherwise fall on the untraced side. *)
let untraced_time f =
  tracer := Trace.none;
  ignore (f ());
  Gc.compact ();
  let t0 = now () in
  ignore (f ());
  now () -. t0

let start_trace () =
  tracer := Trace.create ();
  Gc.compact ()

let replay_compile dir trace_out =
  let pass () =
    span "bench.pass" (fun () ->
        List.map
          (fun e ->
            let file = Filename.concat dir (e.e_name ^ ".w2") in
            let source = read_file file in
            let files, funcs =
              span "bench.input" (fun () -> replay_compile_one ~level:2 ~file source)
            in
            jobj
              [
                ("name", jstr e.e_name);
                ("files", jobj (List.map (fun (f, d) -> (f, jstr d)) files));
                ("funcs", jlist funcs);
              ])
          (read_manifest dir))
  in
  let untraced_s = untraced_time pass in
  start_trace ();
  let t0 = now () in
  let rows = pass () in
  let pass_s = now () -. t0 in
  write_trace trace_out;
  print_endline
    (jobj
       [
         ("pass_s", jnum pass_s);
         ("untraced_s", jnum untraced_s);
         ("inputs", jlist rows);
         ("layers", layers_json ());
       ])

(* --- traced replay of `warpcc analyze --project DIR --json OUT` --- *)

(* bin/warpcc.ml's project order: files sorted by name, then repeated
   sweeps emitting every module whose present imports are all emitted,
   in input order; an import cycle's leftovers go last. *)
let project_order heads =
  let present = Hashtbl.create 64 in
  List.iter (fun (_, m, _) -> Hashtbl.replace present m ()) heads;
  let emitted = Hashtbl.create 64 in
  let rec sweep acc remaining =
    let ready, rest =
      List.partition
        (fun (_, _, imports) ->
          List.for_all (fun p -> (not (Hashtbl.mem present p)) || Hashtbl.mem emitted p) imports)
        remaining
    in
    if ready = [] then List.rev_append acc rest
    else begin
      List.iter (fun (_, m, _) -> Hashtbl.replace emitted m ()) ready;
      let acc = List.rev_append ready acc in
      if rest = [] then List.rev acc else sweep acc rest
    end
  in
  sweep [] heads

let replay_project_one pdir =
  let files =
    Sys.readdir pdir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".w2")
    |> List.sort compare |> List.map (Filename.concat pdir)
  in
  let heads =
    List.map
      (fun path ->
        let m = span "w2.parser" (fun () -> W2.Parser.module_of_string ~file:path (read_file path)) in
        (path, m.W2.Ast.mname, List.map (fun (im : W2.Ast.import_decl) -> im.W2.Ast.im_module) m.W2.Ast.imports))
      files
  in
  let summarize_s = ref 0.0 in
  let summaries =
    List.fold_left
      (fun acc (path, _, _) ->
        let source = read_file path in
        (* The CLI never tokenizes separately; this call measures the
           lexing the parser below repeats internally. *)
        let toks = span "w2.lexer" (fun () -> List.length (W2.Lexer.tokenize ~file:path source)) in
        count "w2.lexer" "tokens" (float toks);
        let m = span "w2.parser" (fun () -> W2.Parser.module_of_string ~file:path source) in
        if span "w2.semcheck" (fun () -> W2.Semcheck.check_module m) <> [] then
          failwith (path ^ ": semantic errors");
        let s =
          span "analysis.modan.summarize" (fun () ->
              Analysis.Modan.summarize ~deps:(List.rev acc) ~sound:true ~max_tracked:64
                ~absint:true ~absint_max_intervals:Analysis.Absint.default_max_intervals
                ~file:path m)
        in
        summarize_s := !summarize_s +. !last_dur;
        span "w2.lint" (fun () ->
            let local =
              List.filter
                (fun (d : W2.Diag.t) ->
                  not
                    (d.W2.Diag.d_code = "W007"
                    &&
                    match d.W2.Diag.d_func with
                    | Some f -> W2.Ast.exports_function m f
                    | None -> false))
                (W2.Lint.lint_module m)
            in
            let couplings =
              Array.to_list s.Analysis.Modan.ms_funcs
              |> List.map (fun (w : Analysis.Modan.func_summary) ->
                     {
                       W2.Lint.c_func = w.Analysis.Modan.ws_name;
                       c_loc = w.Analysis.Modan.ws_loc;
                       c_greads = w.Analysis.Modan.ws_direct.Analysis.Depan.greads;
                       c_gwrites = w.Analysis.Modan.ws_direct.Analysis.Depan.gwrites;
                       c_sends = w.Analysis.Modan.ws_direct.Analysis.Depan.sends;
                       c_recvs = w.Analysis.Modan.ws_direct.Analysis.Depan.recvs;
                     })
            in
            ignore
              (local
              @ W2.Lint.coupling_warnings ~section:s.Analysis.Modan.ms_section
                  ~cells:s.Analysis.Modan.ms_cells ~disjoint:s.Analysis.Modan.ms_disjoint
                  couplings));
        s :: acc)
      [] (project_order heads)
  in
  let link = span "analysis.modan.compose" (fun () -> Analysis.Modan.compose (List.rev summaries)) in
  count "analysis.modan.compose" "edges" (float (List.length link.Analysis.Modan.lk_edges));
  let json = span "analysis.modan.to_json" (fun () -> Analysis.Modan.to_json link) in
  (md5 json, List.length files, !summarize_s)

let replay_project dir trace_out =
  let pass () =
    span "bench.pass" (fun () ->
        List.map
          (fun n ->
            let name = Printf.sprintf "p%d" n in
            let digest, modules, summarize_s =
              span "bench.input" (fun () -> replay_project_one (Filename.concat dir name))
            in
            jobj
              [
                ("name", jstr name);
                ("json", jstr digest);
                ("modules", jint modules);
                ("summarize_s", jnum summarize_s);
              ])
          project_sizes)
  in
  let untraced_s = untraced_time pass in
  start_trace ();
  let t0 = now () in
  let rows = pass () in
  let pass_s = now () -. t0 in
  write_trace trace_out;
  print_endline
    (jobj
       [
         ("pass_s", jnum pass_s);
         ("untraced_s", jnum untraced_s);
         ("inputs", jlist rows);
         ("layers", layers_json ());
       ])

(* --- simulate --- *)

open Parallel_cc

type sim_input = {
  s_name : string;
  s_mw : Driver.Compile.module_work;
  s_plan : Plan.t;
  s_modules : int; (* module count of a project input, 0 otherwise *)
}

type cache_input = {
  k_name : string;
  k_mw : Driver.Compile.module_work;
  k_edit : Driver.Compile.module_work;
}

type setup = { inputs : sim_input list; caches : cache_input list }

let pools = [ 2; 4; 8 ]
let fault_rates = [ 0.0; 0.5 ]
let fault_seed = 1
let cache_pool = 4

let plain name mw =
  { s_name = name; s_mw = mw; s_plan = Plan.one_per_station mw; s_modules = 0 }

(* Everything [warpcc simulate] compiles before it simulates, done
   once here: the paper's programs, the speculation and compile-cache
   sweep programs, and generated projects linked from separately
   composed summaries (Experiment.link_program_work, uncached). *)
let sim_setup out =
  (* the compile-cache sweep reuses programs compiled for the other inputs *)
  let memo = Hashtbl.create 16 in
  let compile ?max_tracked ?(absint = true) m =
    let key = (W2.Pretty.module_to_string m, max_tracked, absint) in
    match Hashtbl.find_opt memo key with
    | Some mw -> mw
    | None ->
      let mw = Driver.Compile.compile_module ~level:2 ?max_tracked ~absint m in
      Hashtbl.replace memo key mw;
      mw
  in
  let spec name ?max_tracked ~absint m = plain name (compile ?max_tracked ~absint m) in
  let project shape modules =
    let mods = W2.Gen.project_program ~modules ~seed:1 ~shape () in
    let link = Analysis.Modan.compose (Experiment.link_summaries mods) in
    let mw =
      Driver.Compile.compile_source ~level:2
        (W2.Pretty.module_to_string (Analysis.Modan.inline_project mods))
    in
    {
      s_name = Printf.sprintf "%s%d" (W2.Gen.shape_name shape) modules;
      s_mw = mw;
      s_plan = Experiment.link_plan mw link;
      s_modules = modules;
    }
  in
  let inputs =
    List.map
      (fun size ->
        plain ("s8_" ^ short_size size) (compile (W2.Gen.s_program ~size ~count:8 ())))
      [ W2.Gen.Tiny; W2.Gen.Small; W2.Gen.Medium; W2.Gen.Large ]
    @ [
        plain "user" (compile (W2.Gen.user_program ()));
        plain "helper" (compile (W2.Gen.helper_program ()));
        spec "blinded4" ~max_tracked:8 ~absint:false
          (W2.Gen.speculative_program ~workers:4 ~fanout:24 ());
        spec "blinded8" ~max_tracked:8 ~absint:false
          (W2.Gen.speculative_program ~workers:8 ~fanout:24 ());
        spec "racy3" ~absint:true (W2.Gen.racy_program ~scatters:3 ());
      ]
    @ List.concat_map
        (fun shape -> List.map (project shape) [ 48; 96 ])
        [ W2.Gen.Clustered; W2.Gen.Layered ]
  in
  let caches =
    List.map
      (fun (name, make, _pool) ->
        let mw = compile (make ()) in
        let edited = Experiment.widest_edit mw in
        { k_name = name; k_mw = mw; k_edit = compile (W2.Gen.touch_in (make ()) edited) })
      (Experiment.cache_series ())
  in
  let oc = open_out_bin out in
  Marshal.to_channel oc { inputs; caches } [];
  close_out oc;
  print_endline
    (jobj [ ("inputs", jint (List.length inputs)); ("caches", jint (List.length caches)) ])

let load_setup file : setup =
  let ic = open_in_bin file in
  let s = (Marshal.from_channel ic : setup) in
  close_in ic;
  s

type sim = {
  key : string;
  modules : int;
  ms : float;
  ok : bool;
  digest : string;
  why : string;
}

let hex = Printf.sprintf "%h"

(* Every simulated number a sim produces, in one string: its digest is
   what the pins compare. *)
let run_digest (r : Timings.run) extra =
  md5
    (String.concat "|"
       ([
          hex r.Timings.elapsed;
          String.concat "," (List.map hex r.Timings.cpu_per_station);
          hex r.Timings.master_cpu;
          hex r.Timings.section_cpu;
          hex r.Timings.extra_parse_cpu;
          string_of_int r.Timings.stations_used;
          string_of_int r.Timings.dispatch_units;
          string_of_int r.Timings.retries;
          string_of_int r.Timings.stations_lost;
          string_of_int r.Timings.fallback_tasks;
          hex r.Timings.wasted_cpu;
          string_of_int r.Timings.spec_dispatched;
          string_of_int r.Timings.spec_committed;
          string_of_int r.Timings.spec_rolled_back;
          string_of_int r.Timings.cache_hits;
          string_of_int r.Timings.cache_misses;
          string_of_int r.Timings.cache_invalidated;
        ]
       @ extra))

let zero_elapsed = ref false

(* One traced parallel compilation plus the profiler and the oracles —
   the `warpcc simulate --sched P --trace-out F` / `warpcc profile`
   path.  A run fails when it ends at elapsed 0, when an oracle or the
   critical-path reconciliation rejects it, or when it raises. *)
let play inp ~policy ~pool ~rate ~horizon =
  let key =
    Printf.sprintf "%s|%s|p%d|f%g" inp.s_name (Sched.policy_name policy) pool rate
  in
  let t0 = now () in
  let tr = Trace.create () in
  let outcome =
    match
      let faults =
        if rate = 0.0 then Netsim.Fault.none
        else Netsim.Fault.random ~seed:fault_seed ~stations:(pool + 1) ~rate ~horizon ()
      in
      let cfg =
        {
          Config.default with
          Config.stations = pool + 1;
          noise_seed = 3;
          sched_policy = policy;
          faults;
          trace = tr;
        }
      in
      let scheduled =
        span "parallel_cc.sched" (fun () ->
            Sched.schedule ~policy ~cost:cfg.Config.cost ~threshold:cfg.Config.batch_threshold
              ~stations:cfg.Config.stations inp.s_plan)
      in
      let r = span "parallel_cc.parrun" (fun () -> (Parrun.run cfg inp.s_mw inp.s_plan).Parrun.run) in
      let r = if !zero_elapsed then { r with Timings.elapsed = 0.0 } else r in
      count "parallel_cc.parrun" "dispatch_units" (float r.Timings.dispatch_units);
      count "parallel_cc.parrun" "trace_spans" (float (Trace.span_count tr));
      count "parallel_cc.parrun" "retries" (float r.Timings.retries);
      count "parallel_cc.parrun" "spec_dispatched" (float r.Timings.spec_dispatched);
      count "parallel_cc.parrun" "spec_committed" (float r.Timings.spec_committed);
      if r.Timings.elapsed <= 0.0 then
        Error
          (Printf.sprintf "elapsed %g (spec dispatched %d, committed %d, rolled back %d)"
             r.Timings.elapsed r.Timings.spec_dispatched r.Timings.spec_committed
             r.Timings.spec_rolled_back, r.Timings.elapsed)
      else begin
        span "parallel_cc.traceview" (fun () ->
            Traceview.assert_matches_run tr r;
            if Sched.dag_gated policy then begin
              let violations =
                if policy = Sched.Dag_spec then Traceview.race_check_spec tr ~plan:scheduled
                else Traceview.race_check tr ~plan:scheduled
              in
              if violations <> [] then
                failwith
                  (Printf.sprintf "%d dependence-order violations" (List.length violations))
            end);
        let p =
          span "parallel_cc.critpath" (fun () ->
              let p = Critpath.of_trace ~plan:scheduled ~elapsed:r.Timings.elapsed tr in
              Critpath.assert_exact p;
              p)
        in
        let chrome = span "trace.chrome_json" (fun () -> Trace.to_chrome_json tr) in
        Ok
          ( run_digest r
              (List.map (fun (b, v) -> b ^ "=" ^ hex v) p.Critpath.p_buckets @ [ md5 chrome ]),
            r.Timings.elapsed )
      end
    with
    | v -> v
    | exception ex -> Error (Printexc.to_string ex, 0.0)
  in
  let ms = (now () -. t0) *. 1000.0 in
  match outcome with
  | Ok (digest, elapsed) ->
    ({ key; modules = inp.s_modules; ms; ok = true; digest; why = "" }, elapsed)
  | Error (why, elapsed) ->
    ({ key; modules = inp.s_modules; ms; ok = false; digest = ""; why }, elapsed)

let seqrun inp =
  let key = inp.s_name ^ "|seq" in
  let t0 = now () in
  let outcome =
    match
      span "parallel_cc.seqrun" (fun () ->
          Seqrun.run { Config.default with Config.noise_seed = 3 } inp.s_mw)
    with
    | r when r.Timings.elapsed > 0.0 -> Ok (run_digest r [])
    | r -> Error (Printf.sprintf "elapsed %g" r.Timings.elapsed)
    | exception ex -> Error (Printexc.to_string ex)
  in
  let ms = (now () -. t0) *. 1000.0 in
  match outcome with
  | Ok digest -> { key; modules = inp.s_modules; ms; ok = true; digest; why = "" }
  | Error why -> { key; modules = inp.s_modules; ms; ok = false; digest = ""; why }

(* Cold, warm and one-edit dag+lpt runs against one compile cache. *)
let cache_trio k =
  let store = Cache.create () in
  let cfg =
    {
      Config.default with
      Config.stations = cache_pool + 1;
      noise_seed = 3;
      sched_policy = Sched.Dag_lpt;
      cache = Some store;
    }
  in
  let funcs = List.length (Driver.Compile.all_funcs k.k_mw) in
  List.map
    (fun (phase, mw) ->
      let key = Printf.sprintf "%s|cache-%s" k.k_name phase in
      let t0 = now () in
      let outcome =
        match
          span "parallel_cc.cache" (fun () ->
              (Parrun.run cfg mw (Plan.one_per_station mw)).Parrun.run)
        with
        | r ->
          count "parallel_cc.cache" "hits" (float r.Timings.cache_hits);
          count "parallel_cc.cache" "lookups" (float (r.Timings.cache_hits + r.Timings.cache_misses));
          if r.Timings.elapsed <= 0.0 then Error "elapsed 0"
          else if phase = "warm" && r.Timings.cache_hits <> funcs then
            Error (Printf.sprintf "warm run hit %d of %d functions" r.Timings.cache_hits funcs)
          else Ok (run_digest r [])
        | exception ex -> Error (Printexc.to_string ex)
      in
      let ms = (now () -. t0) *. 1000.0 in
      match outcome with
      | Ok digest -> { key; modules = 0; ms; ok = true; digest; why = "" }
      | Error why -> { key; modules = 0; ms; ok = false; digest = ""; why })
    [ ("cold", k.k_mw); ("warm", k.k_mw); ("edit", k.k_edit) ]

(* Deterministic shuffle (the play order is the seed's only effect on
   this workload: every simulated input is fixed). *)
let shuffle seed items =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list items in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

type job =
  | Group of sim_input * Sched.policy * int
  | Seq of sim_input
  | Trio of cache_input

let sim_pass setup seed =
  let jobs =
    List.concat_map
      (fun inp ->
        Seq inp
        :: List.concat_map
             (fun policy -> List.map (fun pool -> Group (inp, policy, pool)) pools)
             Sched.all_policies)
      setup.inputs
    @ List.map (fun k -> Trio k) setup.caches
  in
  List.concat_map
    (function
      | Seq inp -> [ seqrun inp ]
      | Trio k -> cache_trio k
      | Group (inp, policy, pool) ->
        (* the fault-free run sizes the fault plan's horizon, as in
           `warpcc simulate --fault-rate` *)
        let horizon = ref 0.0 in
        List.map
          (fun rate ->
            let s, elapsed = play inp ~policy ~pool ~rate ~horizon:(!horizon *. 1.5) in
            if rate = 0.0 then horizon := elapsed;
            s)
          fault_rates)
    (shuffle seed jobs)

let sim_json (s : sim) =
  jobj
    [
      ("key", jstr s.key);
      ("modules", jint s.modules);
      ("ms", jnum s.ms);
      ("ok", jbool s.ok);
      ("digest", jstr s.digest);
      ("why", jstr s.why);
    ]

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* One pass over every simulation, from a compacted heap.  With
   [trace_out], the same pass first runs untraced and the traced pass
   after it is the one reported, with the untraced time beside it. *)
let simulate file seed trace_out =
  let setup = load_setup file in
  let pass () = span "bench.pass" (fun () -> sim_pass setup seed) in
  let untraced_s = Option.map (fun _ -> untraced_time pass) trace_out in
  if trace_out <> None then tracer := Trace.create ();
  Gc.compact ();
  let t0 = now () and c0 = cpu_now () and w0 = alloc_words () in
  let sims = pass () in
  let wall = now () -. t0 and cpu = cpu_now () -. c0 and words = alloc_words () -. w0 in
  Option.iter write_trace trace_out;
  print_endline
    (jobj
       ([
          ("wall_s", jnum wall);
          ("cpu_s", jnum cpu);
          ("alloc_w", jnum words);
          ("top_heap_words", jint (Gc.quick_stat ()).Gc.top_heap_words);
          ("sims", jlist (List.map sim_json sims));
        ]
       @
       match untraced_s with
       | Some u -> [ ("untraced_s", jnum u); ("layers", layers_json ()) ]
       | None -> []))

(* --- host-speed calibration --- *)

module Int_map = Map.Make (Int)

(* A fixed workload that uses only the standard library, so no change to
   the compiler can move it: map inserts, list sorting and string-keyed
   hashing, allocation-heavy like the compiler itself.  Its time tracks
   how fast the host runs this kind of code right now; run.py divides
   every measured time by it. *)
let calibrate () =
  let t0 = now () in
  let acc = ref 0 in
  for round = 1 to 4 do
    let m = ref Int_map.empty in
    for i = 0 to 99_999 do
      m := Int_map.add ((i * 7919) + round land 0x3ffff) i !m
    done;
    Int_map.iter (fun k v -> acc := !acc + (k lxor v)) !m;
    let l = List.init 100_000 (fun i -> ((i * 104_729) + round) land 0xffff) in
    acc := !acc + List.hd (List.sort compare l);
    let h = Hashtbl.create 16 in
    for i = 0 to 49_999 do
      Hashtbl.replace h (string_of_int ((i * 31) + round)) i
    done;
    acc := !acc + Hashtbl.length h
  done;
  print_endline (jobj [ ("calib_s", jnum (now () -. t0)); ("check", jint !acc) ])

(* --- command line --- *)

let usage () =
  prerr_endline
    "usage: hostbench (gen-compile DIR VARIANT | gen-project DIR VARIANT | cells DIR\n\
    \       | sim-setup FILE | simulate FILE SEED [--trace-out F] [--zero-elapsed] | calibrate\n\
    \       | replay-compile DIR TRACE | replay-project DIR TRACE)";
  exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen-compile"; dir; v ] -> gen_compile dir (int_of_string v)
  | [ "gen-project"; dir; v ] -> gen_project dir (int_of_string v)
  | [ "cells"; dir ] -> cells dir
  | [ "calibrate" ] -> calibrate ()
  | [ "sim-setup"; out ] -> sim_setup out
  | "simulate" :: file :: seed :: rest ->
    let rec opts trace = function
      | [] -> trace
      | "--trace-out" :: f :: more -> opts (Some f) more
      | "--zero-elapsed" :: more ->
        zero_elapsed := true;
        opts trace more
      | _ -> usage ()
    in
    let trace_out = opts None rest in
    simulate file (int_of_string seed) trace_out
  | [ "replay-compile"; dir; trace ] -> replay_compile dir trace
  | [ "replay-project"; dir; trace ] -> replay_project dir trace
  | _ -> usage ()
