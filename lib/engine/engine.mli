(** Batched, memoizing SVC evaluation engine.

    Computing all Shapley values of a database with per-fact {!Svc.svc}
    does [2n] full lineage compilations of the same query.  This engine
    compiles the lineage {e once} per (query, database) and derives each
    fact's two FGMC generating polynomials from the shared compiled form:
    [φ[μ:=1]] read off one compiled d-DNNF circuit ({!Circuit}: one
    bottom-up and one top-down traversal answer every fact), and
    [φ[μ:=0]] for free from the splitting identity
    [C(φ) = z·C(φ[μ:=1]) + C(φ[μ:=0])] against the full count [C(φ)]
    computed once.  The Shapley coefficients [j!(n-j-1)!/n!] are read
    off a factorial table ({!Bigint.factorial_table}) built once, by the
    first exact Shapley value, under an [engine.factorials] span; the
    sample backend never builds it.

    Every call is instrumented; see {!Stats}. *)

type t
(** A compiled engine for one (query, database) pair.  Mutable only in its
    instrumentation and cache; all answers are deterministic. *)

type backend = [ `Auto | `Conditioning | `Circuit | `Sample of Sample.config ]
(** The evaluation strategy for batched answers:

    - [`Auto] (the default) and [`Circuit]: compile the lineage once
      into a smoothed deterministic decomposable NNF circuit
      ({!Circuit}), its branch order steered by the compilation planner
      ({!Plan.analyze}), and read {e every} fact's polynomial off it
      with one bottom-up + one top-down traversal — no per-fact
      conditioning at all.  [`Auto] resolves to [`Circuit] for every
      instance;
    - [`Conditioning]: the serial reference backend, only when asked
      for — one conditioned size-polynomial count per fact against the
      shared memo cache ({!Compile.Memo});
    - [`Sample cfg]: the anytime sampling estimator ({!Sample}) — the
      only {e approximate} backend, and therefore never auto-selected:
      every answer carries a seeded-deterministic estimate whose
      confidence interval is reported through {!stats}
      ([sample_*] fields) and {!Sample.report}.  [svc]/[svc_all] and
      [banzhaf]/[banzhaf_all] run (and cache) one estimation pass each;
      {!fgmc_polynomial} stays exact via the conditioning path.

    The exact backends return bit-identical values in the same order. *)

val create :
  ?tel:Telemetry.t -> ?cache_capacity:int -> ?backend:backend ->
  Query.t -> Database.t -> t
(** Compiles the lineage (the single compilation of the engine's life).
    [cache_capacity] bounds the number of memoized sub-formulas (default
    [2{^20}]; results past the bound are recomputed, never wrong) — under
    the circuit backend the same bound applies to the circuit compiler's
    formula→node cache.  [backend] selects the evaluation strategy
    (default [`Auto]).

    [tel] (default: a private disabled tracer, making every span a free
    no-op) hosts the engine's whole instrumentation: the
    [engine.compilations]/[engine.conditionings] counters live in its
    registry — {!stats} is a projection of it, not a separate record —
    and, when enabled, the run is recorded as spans: [engine.lineage]
    (the one compilation), [engine.eval] per batched entry point,
    [engine.full] (the unconditioned polynomial under conditioning),
    and [engine.fact] per fact; the circuit backend adds {!Plan}'s
    [plan.*] and {!Circuit}'s [circuit.*] spans, counters and gauges. *)

type change = [ `Insert of [ `Endo | `Exo ] * Fact.t | `Delete of Fact.t ]
(** A single-fact delta against the engine's database: insert a fresh
    fact into the endogenous or exogenous part, or delete a present
    fact from whichever part holds it. *)

val update : t -> change -> t
(** Incremental recompilation after a delta.  Returns a {e new} engine
    over the changed database whose answers are rationally equal to
    [create]-ing from scratch — the differential identity the test
    suite pins — but which reuses everything the change does not
    invalidate:

    - the shared {!Compile.Memo} (sound across formulas: a cached
      polynomial counts over exactly its formula's variables);
    - the circuit compilation session, so a later circuit compile
      resolves every hash-consed sub-circuit untouched by the change to
      its existing arena node ({!Circuit.reused_nodes});
    - the compilation plan, replayed component-locally through
      {!Plan.replan} — only components the change touched are
      re-ordered.

    The original engine stays fully usable (its answers still describe
    the old database).  Per-answer caches (full polynomial, circuit
    evaluation, sample reports) start cold in the new engine, which
    keeps the resolved backend.
    Runs in an [engine.update] span and bumps the [engine.updates]
    counter (registered on first use).
    @raise Invalid_argument on inserting a present fact or deleting an
    absent one. *)

val backend : t -> [ `Conditioning | `Circuit | `Sample of Sample.config ]
(** The resolved backend. *)

val circuit_reused_nodes : t -> int
(** {!Circuit.reused_nodes} of the engine's compiled circuit: nodes
    inherited from pre-update compiles through the shared session.  [0]
    if no circuit was compiled or the engine never went through
    {!update}. *)

val sample_report : t -> Sample.report option
(** The cached report of the last sampled batched run ([None] unless the
    engine is a [`Sample] backend and an entry point has run; prefers
    the Shapley report when both Shapley and Banzhaf passes ran).
    Carries per-fact confidence intervals, draw counts and convergence
    flags — the data behind the [sample_*] fields of {!stats}. *)

val plan : t -> Plan.t option
(** The compilation plan computed at {!create} time to steer the
    circuit compilation: present exactly when the resolved backend is
    [`Circuit]. *)

val query : t -> Query.t
val database : t -> Database.t

val lineage : t -> Bform.t
(** The shared compiled lineage [φ]. *)

val svc : t -> Fact.t -> Rational.t
(** Shapley value (Claim A.1) from the resolved backend's polynomials of
    the shared lineage.
    @raise Invalid_argument if the fact is not endogenous. *)

val svc_all : t -> (Fact.t * Rational.t) list
(** Shapley values of all endogenous facts, in endogenous-fact order,
    from the resolved backend — one lineage compilation total; under
    the circuit backend one compiled circuit and one traversal pair
    answer every fact, under conditioning [n + 1] conditioned counts
    (the full polynomial once, then one per fact). *)

val banzhaf : t -> Fact.t -> Rational.t
(** Banzhaf value from the same polynomials (two GMC totals).
    @raise Invalid_argument if the fact is not endogenous. *)

val banzhaf_all : t -> (Fact.t * Rational.t) list

val fgmc_polynomial : t -> Poly.Z.t
(** The FGMC generating polynomial of the unconditioned lineage, from
    the resolved backend (the conditioning path for [`Sample]). *)

val stats : t -> Stats.t
(** Projection of the engine's telemetry registry (plus the engine's own
    wall clocks) into the pinned {!Stats.t} shape; [span_s] carries
    {!Telemetry.aggregate} of the engine's tracer. *)

val telemetry : t -> Telemetry.t
(** The tracer given to (or created by) {!create}. *)

val shapley_of_polynomials :
  factorials:Bigint.t array ->
  with_mu_exo:Poly.Z.t ->
  without_mu:Poly.Z.t ->
  n:int ->
  Rational.t
(** The Claim A.1 arithmetic alone, against a caller-supplied factorial
    table ([factorials.(i) = i!], length [> n]).
    @raise Invalid_argument if the table is too small. *)
