(* Content-addressed compile cache: the store half of function-level
   memoization (ROADMAP item 1, the parasolc/ACL2 lesson that skipping
   redundant work beats adding CPUs).

   The store lives on the simulated file server and survives across
   simulated runs — that is the whole point: a cold run populates it,
   a warm re-run of the same module hits it, an edited module hits it
   everywhere except the edited function and its transitive dependents.
   The keys ([Analysis.Depan.cache_keys]) are content-addressed and
   closed over the dependence ancestry, so invalidation needs no
   bookkeeping here: a changed input produces a different key, which
   simply misses.

   The store itself is pure bookkeeping — which keys are durable, how
   many payload bytes each artifact occupies, and which key each
   function name last published.  [lookup] and [publish] are the one
   protocol both runners use to consult and populate it: they count
   the lookups, emit the "cache" trace instants, and charge the
   simulated index and artifact transfers through [Netsim.Net] at the
   simulated moment they happen.

   Population discipline (exactly-once): only a durable publication may
   populate — the winning attempt's write-back, a speculative commit,
   or the master's sequential fallback.  Superseded stragglers and
   quarantined speculative artifacts never reach [publish], so a key
   is stored at most once; [publish] additionally refuses to re-add a
   key that is already durable (a fallback republishing a task after a
   partial failure), keeping the per-key store count at exactly one. *)

type t = {
  entries : (string, float) Hashtbl.t; (* durable key -> payload bytes *)
  owners : (string, string) Hashtbl.t; (* function identity -> the key
                                          it last published (stale-miss
                                          attribution only) *)
  store_log : (string, int) Hashtbl.t; (* key -> times populated *)
}

(* Bytes of one content-index record (key, payload pointer, salt tag):
   what a hit fetches in addition to the artifact payload, and what a
   population writes in addition to the payload copy. *)
let meta_bytes = 160.0

let create () =
  {
    entries = Hashtbl.create 64;
    owners = Hashtbl.create 64;
    store_log = Hashtbl.create 64;
  }

let size (t : t) = Hashtbl.length t.entries

let store_count (t : t) key =
  Option.value ~default:0 (Hashtbl.find_opt t.store_log key)

let entries (t : t) : (string * float) list =
  Hashtbl.fold (fun key bytes acc -> (key, bytes) :: acc) t.entries []
  |> List.sort compare

type site = {
  store : t option;
  sim : Netsim.Des.t;
  cluster : Netsim.Host.cluster;
  stats : Timings.stats;
  trace : Trace.t;
  track : int;
  task : string;
  modul : string;
}

(* Index events live in their own "cache" category (the "cache-hit"
   instant under "task" is the unrelated byte-level locality cache) and
   are emitted 1:1 with the counter increments, so the trace recovery
   stays exact. *)
let instant s ~name (fw : Driver.Compile.func_work) ~key extra =
  if Trace.enabled s.trace then
    Trace.instant s.trace ~track:s.track ~cat:"cache" ~name
      ~args:
        (("task", s.task)
        :: ("func", fw.Driver.Compile.fw_name)
        :: ("key", key) :: extra)
      ~at:(Netsim.Des.now s.sim) ()

(* The stable identity of a function across edits — what attributes a
   miss to invalidation rather than cold start. *)
let owner s (fw : Driver.Compile.func_work) =
  String.concat "/"
    [ s.modul; fw.Driver.Compile.fw_section; fw.Driver.Compile.fw_name ]

let lookup s ~fetch (fw : Driver.Compile.func_work) =
  let stats = s.stats in
  match (s.store, fw.Driver.Compile.fw_key) with
  | Some c, Some key -> (
    match Hashtbl.find_opt c.entries key with
    | Some bytes ->
      stats.cache_hits <- stats.cache_hits + 1;
      instant s ~name:"cache-hit" fw ~key [];
      fetch ~file:("art:" ^ key) (meta_bytes +. bytes);
      true
    | None ->
      (* [stale]: the same function previously published a different
         key — a dependency-aware invalidation, counted apart from
         cold misses. *)
      let stale =
        match Hashtbl.find_opt c.owners (owner s fw) with
        | Some previous -> previous <> key
        | None -> false
      in
      stats.cache_misses <- stats.cache_misses + 1;
      if stale then stats.cache_invalidated <- stats.cache_invalidated + 1;
      instant s ~name:"cache-miss" fw ~key
        [ ("invalidated", if stale then "1" else "0") ];
      false)
  | _ -> false

(* Only newly stored artifacts cost anything: one store of
   payload+index bytes, alongside the durable copy already written.
   The payload is the function's code, 16 bytes per wide instruction —
   the same accounting the runners use for output write-back. *)
let publish s funcs =
  match s.store with
  | None -> ()
  | Some c ->
    let stored =
      List.fold_left
        (fun acc (fw : Driver.Compile.func_work) ->
          match fw.Driver.Compile.fw_key with
          | None -> acc
          | Some key ->
            Hashtbl.replace c.owners (owner s fw) key;
            if Hashtbl.mem c.entries key then acc
            else begin
              let bytes = 16.0 *. float_of_int fw.Driver.Compile.fw_wides in
              Hashtbl.replace c.entries key bytes;
              Hashtbl.replace c.store_log key (1 + store_count c key);
              instant s ~name:"cache-store" fw ~key [];
              acc +. bytes +. meta_bytes
            end)
        0.0 funcs
    in
    if stored > 0.0 then
      Netsim.Net.store s.sim s.cluster.Netsim.Host.fs
        s.cluster.Netsim.Host.ether ~bytes:stored
