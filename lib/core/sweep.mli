(** Parameter sweeps over (protocol, n, f), runnable on one core or many.

    One sweep {e point} is an independent deterministic simulation: it
    builds its own PKI, RNG, meter and trace from a seed that is a pure
    function of the point, so points can run in any order — or in parallel
    on OCaml 5 domains via {!Mewc_prelude.Pool} — and produce identical
    {!row}s. [mewc bench], [mewc perf] and the perf tests all run through
    this module, and the byte-identical-under-parallelism property is
    enforced by tests and by {!run_perf} itself on every invocation. The
    perf-regression ledger ({!Ledger}) is the one artifact that records a
    sweep.

    Timing lives {e outside} the row identity: a row's deterministic facts
    (words, latency, signatures, crypto-cache counters …) are what the
    "parallel output ≡ sequential output" byte-level comparisons see. The
    one advisory exception is {!row.wall_s} — the point's own wall clock,
    stored so scheduler-ratio figures can be derived from ledger rows — and
    it is excluded from {!row_to_line} and {!row_core_line}. *)

type point = {
  protocol : string;  (** "bb" | "weak-ba" | "strong-ba" | "fallback" *)
  n : int;
  f_spec : string;  (** "0" | "1" | "t/2" | "t" — resolved against t at run time *)
}

type row = {
  point : point;
  t : int;
  f : int;  (** realized corruptions *)
  words : int;
  messages : int;
  signatures : int;
  latency : int;
  slots : int;
  fallback_runs : int;
  crypto : Mewc_crypto.Pki.cache_stats;
  wall_s : float;
      (** this point's own wall clock — advisory, never part of an identity
          line; parses back as [0.0] from pre-wall_s ledger files *)
}

val pp_point : Format.formatter -> point -> unit

val standard_grid : point list
(** The perf-baseline grid: n ∈ \{21, 101, 201, 401\}. All four f-specs at
    n = 21; at larger n the f = t/2 and f = t points are kept only for
    weak BA (they exercise the quadratic fallback, the crypto-cache hot
    spot) and the other protocols run failure-free — keeping a full
    sequential pass in the tens of seconds, not minutes. The standalone
    A_fallback (Θ(n²) words over Θ(t) rounds, ~n³ work) is capped at
    n = 201 for the same reason. *)

val smoke_grid : point list
(** A seconds-scale grid (n ∈ \{9, 13\}, all protocols and f-specs) for CI:
    big enough to cross the fallback threshold, small enough to gate every
    build. *)

val fallback_cap : Mewc_sim.Engine.scheduler -> int
(** The largest n at which the standalone A_fallback is kept on a grid:
    201 under the [`Legacy] policy (every process steps every slot), 401
    under [`Event_driven]. Dropped points are returned by {!frontier_grid}
    (and printed by [mewc bench]) rather than silently truncated; being a
    pure function of the scheduler, they are not recorded in the ledger. *)

val frontier_ns : int list
(** n ∈ \{21, 101, 201, 401, 1001, 2001\} — the words-vs-n frontier. *)

val frontier_grid : Mewc_sim.Engine.scheduler -> point list * point list
(** [(points, capped)] over {!frontier_ns}: the runnable frontier under the
    given scheduler plus the standalone-fallback points its cap dropped.
    Weak BA keeps all four f-specs at every n — at n = 2001 its f = t point
    is the paper's adaptive showcase — while the other protocols run
    failure-free beyond n = 21, as on {!standard_grid}. *)

val run_point : ?options:'m Instances.options -> point -> row
(** Run one point (crash-first adversary). The point owns its seed —
    [options.seed] is overridden by the point's derived seed, and the
    [monitors] override is dropped ({!Instances.retarget}): each protocol
    branch installs its own standard suite. The honored knobs are the
    engine's: [profile] charges the run's phases, crypto hot paths and
    serialization to the given profiler (rows are unaffected — timing never
    leaks into the deterministic facts); [scheduler] (default [`Legacy])
    changes wall-clock only, rows are byte-identical across schedulers (the
    engine-diff suite's invariant); [shards] (default 1) shards the run
    itself across domains ({!Mewc_sim.Engine.options.shards}), with every
    row field except the crypto-cache split invariant under it. *)

val run_all :
  ?jobs:int ->
  ?options:'m Instances.options ->
  ?progress:(unit -> unit) ->
  point list ->
  row list
(** All points, order-preserving, each through {!run_point} with the same
    [options]. [jobs] > 1 fans the points across that many domains with
    {!Mewc_prelude.Pool}'s deterministic chunking; default 1 (sequential,
    no domains spawned). [progress] is called once per completed point —
    sequential passes only; a parallel pass never interleaves heartbeat
    writes across domains. Raises [Invalid_argument] if [options.profile]
    is combined with [jobs] > 1: a {!Mewc_sim.Profile.t} is not
    domain-safe. *)

val ratio_ns : int list
(** n ∈ \{21, 101, 201, 401, 1001\} — the scheduler-ratio baseline axis. *)

val ratio_grid : point list
(** The failure-free column (f_spec = "0") of every protocol over
    {!ratio_ns}, with the standalone fallback capped at n = 201 under both
    schedulers — so a legacy and an event-driven baseline cover the same
    point set and per-point wall-clock ratios are always well-defined. *)

val run_baseline :
  ?progress:(unit -> unit) ->
  scheduler:Mewc_sim.Engine.scheduler ->
  unit ->
  row list * float
(** One sequential timed pass over {!ratio_grid} under the given scheduler:
    [(rows, total_wall_s)], each row carrying its own {!row.wall_s}. The
    ratio figure in [mewc report] divides event-driven by legacy row
    timings from two such ledger entries. *)

val row_to_json : row -> Mewc_prelude.Jsonx.t
val row_to_line : row -> string
(** Canonical one-line rendering; the parallel-equals-sequential checks
    compare these byte for byte. *)

val row_core_line : row -> string
(** {!row_to_line} minus the crypto-cache counters. Shard-identity gates
    compare this line: sharded runs keep one memo table per domain, so the
    cache hit/miss {e split} legitimately varies with the shard count
    while every protocol-observable field must not. *)

val row_of_json : Mewc_prelude.Jsonx.t -> (row, string) result
(** Inverse of {!row_to_json} (the derived hit-rate fields are ignored).
    The perf-regression ledger stores rows as JSON and diffs them after
    parsing back through this. *)

type report = {
  rows : row list;  (** from the sequential pass *)
  sequential_s : float;
  parallel_s : float;
  jobs : int;
  cores : int;  (** [Pool.default_jobs ()] on this machine *)
  speedup : float;  (** sequential_s /. parallel_s *)
  identical : bool;  (** parallel rows ≡ sequential rows, byte for byte *)
  scheduler : Mewc_sim.Engine.scheduler;  (** which engine ran the grid *)
  shard_wall_s : (int * float) list;
      (** wall clock of one sequential-across-points pass per shard count
          (the intra-run sharding curve); shard count 1 is the baseline *)
  shards_identical : bool;
      (** every shard pass's {!row_core_line}s ≡ the sequential pass's *)
  parallelism : string;
      (** ["degraded (1 core)"] when the host offers a single core —
          speedup quotients are then noise, not measurements — otherwise
          ["ok (N cores)"] *)
}

val run_perf :
  ?jobs:int ->
  ?profile:Mewc_sim.Profile.t ->
  ?scheduler:Mewc_sim.Engine.scheduler ->
  ?shard_counts:int list ->
  ?progress:(unit -> unit) ->
  point list ->
  report
(** Runs the grid sequentially, then with [jobs] domains across points
    (default {!Mewc_prelude.Pool.default_jobs}), then once per entry of
    [shard_counts] (default [[1; 2; 4; 8]]) with the {e run itself}
    sharded across that many domains ([jobs = 1] for those passes, so the
    two parallelism axes never confound). Every pass is timed; the
    across-points pass must match the sequential rows byte for byte
    ({!row_to_line}), the shard passes on {!row_core_line}. [profile]
    instruments the {e sequential} pass only (profilers are not
    domain-safe); [progress] likewise ticks once per point of the
    sequential pass only — heartbeats never interleave across domains.
    {!Ledger.of_report} is how a report is recorded. *)
