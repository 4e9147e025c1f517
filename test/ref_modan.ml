(* Reference implementations of the project summarization path, kept
   as differential oracles for [Modan.summarize_project]:

   - [summarize]: one module against a provider list, rebuilding the
     name -> key table over every provider on each call;
   - [analyze]: the per-file loop of `warpcc analyze --project` —
     summarize, lint with W007 suppressed on exported functions, build
     W008/W009 coupling records from the summary, grow every list with
     [@], then compose and sort the diagnostics;
   - [link_summaries]: the [.wsi] fold of [Experiment.link_summaries],
     whose providers are the round-tripped summaries, newest first.

   The table rebuild and the appends make the loops quadratic in the
   module count, which is why they live here and not in the library. *)

open Analysis

let summarize ?(deps = []) ?sound ?max_tracked ?(absint = true)
    ?absint_max_intervals ?(file = "") (m : W2.Ast.modul) =
  let sec = List.hd m.W2.Ast.sections in
  let dp = Depan.analyze ?sound ?max_tracked ~absint ?absint_max_intervals m in
  let si = List.hd dp.Depan.dp_sections in
  let ai =
    if absint then Absint.analyze_section ?max_intervals:absint_max_intervals sec
    else []
  in
  let local = Hashtbl.create 16 in
  Array.iter (fun fi -> Hashtbl.replace local fi.Depan.fi_name ()) si.Depan.si_funcs;
  let dep_key = Hashtbl.create 64 in
  List.iter
    (fun d ->
      Array.iter
        (fun w -> Hashtbl.replace dep_key w.Modan.ws_name w.Modan.ws_key)
        d.Modan.ms_funcs)
    deps;
  let src_funcs = Array.of_list sec.W2.Ast.funcs in
  let funcs =
    Array.mapi
      (fun i (fi : Depan.func_info) ->
        let f = src_funcs.(i) in
        let xcalls =
          List.filter (fun c -> not (Hashtbl.mem local c)) fi.Depan.fi_summary.Depan.calls
        in
        let key =
          Digest.to_hex
            (Digest.string
               (String.concat "\n"
                  (fi.Depan.fi_hash
                  :: List.map
                       (fun x ->
                         match Hashtbl.find_opt dep_key x with
                         | Some k -> k
                         | None -> "unresolved:" ^ x)
                       xcalls)))
        in
        {
          Modan.ws_name = fi.Depan.fi_name;
          ws_loc = fi.Depan.fi_loc;
          ws_params = List.map (fun (p : W2.Ast.param) -> p.W2.Ast.pty) f.W2.Ast.params;
          ws_ret = f.W2.Ast.ret;
          ws_exported = W2.Ast.exports_function m fi.Depan.fi_name;
          ws_index = fi.Depan.fi_index;
          ws_scc = fi.Depan.fi_scc;
          ws_direct = fi.Depan.fi_direct;
          ws_effects = fi.Depan.fi_summary;
          ws_xcalls = xcalls;
          ws_hash = fi.Depan.fi_hash;
          ws_key = key;
          ws_absint = List.assoc_opt fi.Depan.fi_name ai;
        })
      si.Depan.si_funcs
  in
  {
    Modan.ms_module = m.W2.Ast.mname;
    ms_file = file;
    ms_section = sec.W2.Ast.sname;
    ms_cells = sec.W2.Ast.cells;
    ms_imports =
      List.map
        (fun (im : W2.Ast.import_decl) ->
          (im.W2.Ast.im_module, im.W2.Ast.im_loc, im.W2.Ast.im_sigs))
        m.W2.Ast.imports;
    ms_exports =
      List.map (fun (e : W2.Ast.export_decl) -> (e.W2.Ast.ex_name, e.W2.Ast.ex_loc)) m.W2.Ast.exports;
    ms_globals =
      List.sort compare (List.map (fun (d : W2.Ast.decl) -> d.W2.Ast.dname) sec.W2.Ast.globals);
    ms_disjoint = si.Depan.si_disjoint;
    ms_funcs = funcs;
    ms_edges = Depan.edges_by_name si;
  }

(* [mods] are (file, checked module) pairs in dependence order. *)
let analyze ~sound ~max_tracked ~absint ~absint_max_intervals mods =
  let summaries = ref [] in
  let module_diags = ref [] in
  List.iter
    (fun (path, m) ->
      let s =
        summarize ~deps:!summaries ~sound ~max_tracked ~absint ~absint_max_intervals
          ~file:path m
      in
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
        Array.to_list s.Modan.ms_funcs
        |> List.map (fun (w : Modan.func_summary) ->
               {
                 W2.Lint.c_func = w.Modan.ws_name;
                 c_loc = w.Modan.ws_loc;
                 c_greads = w.Modan.ws_direct.Depan.greads;
                 c_gwrites = w.Modan.ws_direct.Depan.gwrites;
                 c_sends = w.Modan.ws_direct.Depan.sends;
                 c_recvs = w.Modan.ws_direct.Depan.recvs;
               })
      in
      let coupling =
        W2.Lint.coupling_warnings ~section:s.Modan.ms_section ~cells:s.Modan.ms_cells
          ~disjoint:s.Modan.ms_disjoint couplings
      in
      module_diags := !module_diags @ local @ coupling;
      summaries := !summaries @ [ s ])
    mods;
  let link = Modan.compose !summaries in
  (!summaries, link, W2.Diag.sort (!module_diags @ link.Modan.lk_diags))

let link_summaries (mods : W2.Ast.modul list) =
  List.rev
    (List.fold_left
       (fun acc m ->
         let s = summarize ~deps:acc m in
         Modan.of_artifact (Modan.to_artifact s) :: acc)
       [] mods)
