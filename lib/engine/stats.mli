(** Instrumentation record of a batched SVC {!Engine} run.

    Counters:
    - [compilations]: lineage compilations performed (the engine's whole
      point is that this stays at [1] per (query, database));
    - [conditionings]: size-polynomial evaluations against the engine's
      caches ([0] under the circuit backend; [n + 1] for a full
      [svc_all] under conditioning: the unconditioned polynomial once,
      then [φ[μ:=1]] once per fact — [φ[μ:=0]] comes from the splitting
      identity without a count);
    - [cache_*]: the engine's own {!Compile.Memo} counters (hits, misses,
      retained entries, capacity, results dropped at capacity);
    - [poly_ops]: polynomial ring operations charged to the engine's own
      cache;
    - [compile_s] / [eval_s]: wall-clock seconds per phase (lineage
      compilation vs per-fact evaluation);
    - [backend]: ["circuit"], ["conditioning"] or ["sample"] — which
      evaluation strategy the engine resolved to;
    - [circuit_*]: the knowledge-compilation backend's metrics (all zero
      under the other backends): live d-DNNF node/edge counts, nodes
      spent on smoothing gadgets, the formula→node memo cache counters,
      and the compile vs traverse wall clock.

    Determinism: for a given (query, database, capacity, backend), every
    field is deterministic {e except} the four wall-clock fields and the
    span durations.  {!normalize} zeroes exactly those, so two runs of
    the same workload must satisfy [normalize s1 = normalize s2]. *)

type t = {
  players : int;
  compilations : int;
  conditionings : int;
  cache_hits : int;
  cache_misses : int;
  cache_size : int;
  cache_capacity : int;
  cache_drops : int;
  poly_ops : int;
  compile_s : float;
  eval_s : float;
  backend : string;
  circuit_nodes : int;
  circuit_edges : int;
  circuit_smoothing : int;
  circuit_cache_hits : int;
  circuit_cache_misses : int;
  circuit_cache_drops : int;
  circuit_compile_s : float;
  circuit_traverse_s : float;
  sample_strategy : string;
      (** ["mc"] / ["stratified"] / ["hybrid"] under the sample backend,
          [""] otherwise (the [sample_*] fields are only meaningful when
          [backend = "sample"]) *)
  sample_seed : int;
  sample_draws : int;  (** {!Sample.report.total_draws} of the last run *)
  sample_exact_strata : int;
      (** strata enumerated exactly, summed over facts *)
  sample_sampled_strata : int;
  sample_max_hw : string;
      (** exact rational string of the largest reported CI half-width *)
  sample_epsilon : string;  (** the configured target, exact rational *)
  sample_confidence : string;
  sample_converged : bool;
      (** every fact's half-width hit the [epsilon] target in budget *)
  span_s : (string * int * float) array;
      (** telemetry span rollup: (span name, completions, total seconds),
          sorted by name — [Telemetry.aggregate] of the run's tracer.
          Empty when the engine ran without an enabled tracer.  Not part
          of {!to_json} (the pinned JSON shape predates telemetry). *)
}

val zero : t

val normalize : t -> t
(** The deterministic projection: wall-clock fields ([compile_s],
    [eval_s], [circuit_compile_s], [circuit_traverse_s]) and the
    durations inside [span_s] zeroed (span {e counts} are deterministic
    and kept), everything else untouched.  Two runs of the same (query,
    database, capacity, backend) produce structurally equal normalized
    records. *)

val to_string : t -> string
(** Multi-line human-readable block (the [svc eval --stats] output).
    Under the circuit backend, [backend]/[circuit]/[circuit cache] lines
    and the circuit wall-clock lines are appended (every wall-clock line
    ends in [time  : …ms] so one mask covers them all).  When [span_s]
    is non-empty a [spans:] block is appended, one [time  : …ms] line
    per span name. *)

val to_json : t -> string
(** One-line JSON object with stable field names ([players],
    [compilations], [conditionings], [cache_hits], [cache_misses],
    [cache_size], [cache_capacity] (JSON [null] when unbounded),
    [cache_drops], [poly_ops], [compile_ms], [eval_ms],
    [backend], [circuit_nodes], [circuit_edges], [circuit_smoothing],
    [circuit_cache_hits], [circuit_cache_misses], [circuit_cache_drops],
    [circuit_compile_ms], [circuit_traverse_ms], [sample_strategy],
    [sample_seed], [sample_draws], [sample_exact_strata],
    [sample_sampled_strata], [sample_max_hw], [sample_epsilon],
    [sample_confidence], [sample_converged]).  The [circuit_*] fields
    are all [0] unless [backend = "circuit"]; the
    [sample_*] fields are at their {!zero} defaults unless
    [backend = "sample"] — all deterministic given the seed, so none is
    masked by {!normalize}. *)

val pp : Format.formatter -> t -> unit
