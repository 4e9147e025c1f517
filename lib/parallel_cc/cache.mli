(** Content-addressed compile cache on the simulated file server:
    function-level memoization of phase-2/3 artifacts.

    One {!t} persists across simulated runs (that is the point: a cold
    run populates it, a warm run hits it).  Keys come from
    {!Analysis.Depan.cache_keys} — salted with the optimization
    configuration and closed over the dependence ancestry — so
    invalidation is purely content-addressed: an edit changes the keys
    of exactly the edited function and its transitive [func_deps]
    dependents, and changed keys simply miss.

    The store itself is bookkeeping only.  {!lookup} and {!publish}
    are the protocol {!Parrun} and {!Seqrun} share to consult and
    populate it: they charge the simulated index and artifact transfers
    through {!Netsim.Net} at the simulated moment they occur, and with
    no store they charge nothing, so a configuration whose
    {!Config.t.cache} is [None] is bit-identical to a build without the
    cache. *)

type t

val create : unit -> t
(** An empty store. *)

val size : t -> int
(** Durable artifacts currently stored. *)

val store_count : t -> string -> int
(** How many times {!publish} actually stored the key — the
    exactly-once discipline makes this 0 or 1; the chaos tests assert
    it. *)

val entries : t -> (string * float) list
(** (key, payload bytes) of every durable artifact, sorted by key —
    lets tests compare cold-run and warm-run artifact bytes for
    identity. *)

(** {1 The runners' protocol} *)

type site = {
  store : t option;  (** [None]: every lookup misses silently, at no cost *)
  sim : Netsim.Des.t;
  cluster : Netsim.Host.cluster;
  stats : Timings.stats;  (** receives the hit/miss/invalidated tallies *)
  trace : Trace.t;
  track : int;  (** trace track of the ["cache"] instants *)
  task : string;  (** their ["task"] argument *)
  modul : string;  (** module name: with the section and function
                      names, a function's identity across edits *)
}
(** Where a runner consults the store: one per task (or per sequential
    compilation). *)

val lookup :
  site -> fetch:(file:string -> float -> unit) -> Driver.Compile.func_work -> bool
(** Look a function up by its key and count the outcome: a hit, or a
    miss — flagged as an invalidation when the same function previously
    published a {e different} key (it or an ancestor was edited).  On a
    hit, [fetch ~file bytes] transfers the artifact (index record plus
    payload, file label ["art:" ^ key]) and the result is [true]: the
    caller skips the function's phase 2/3.  Functions without a key,
    or a site without a store, return [false] and touch nothing. *)

val publish : site -> Driver.Compile.func_work list -> unit
(** Durable publication: store every keyed function not yet durable,
    then charge one file-server store of the newly stored payload and
    index bytes.  Call only where the functions' output became durable
    (a winning write-back, a speculative commit, the sequential
    fallback) — never for a superseded straggler or a quarantined
    speculative artifact — so each key is stored at most once. *)
