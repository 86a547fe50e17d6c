(** Anytime sampling SVC estimator.

    Every exact backend (conditioning, circuit, planned circuit) is
    limited to ~100 endogenous facts by the #P-hardness wall.  This
    module trades exactness for scale: it estimates Shapley (and
    Banzhaf) values of a compiled lineage by randomized sampling, with
    {e rational-arithmetic} confidence intervals — no floats anywhere in
    the estimate or the bound, so a run is a pure function of
    [(lineage, universe, config)] and in particular of the [seed]:
    bit-identical on every host.

    {2 Strategies}

    - {!Monte_carlo}: ApproShapley permutation sampling.  One uniform
      random permutation of the universe yields a marginal contribution
      for {e every} fact at once (for monotone lineages exactly one fact
      per permutation flips the query — found by binary search over
      prefix lengths in [O(log n)] evaluations); the estimate for each
      fact is the mean of its contributions.  One "draw" = one
      permutation, shared by all facts.  The strategy of choice at
      [n >= 10³].
    - {!Stratified}: per fact, the Shapley value is averaged over
      coalition-size strata — [Sh(μ) = (1/n) Σ_k E_k] where [E_k] is the
      expected marginal contribution over uniform size-[k] coalitions of
      [U∖{μ}] (the same stratification the splitting identity
      [C = z·C₁ + C₀] gives the exact engines coefficient-by-
      coefficient).  Each stratum is sampled independently and the
      per-stratum intervals are combined by a union bound.
    - {!Hybrid}: as {!Stratified}, but every stratum whose coalition
      count [C(n-1,k)] is at most [exact_cap] is {e enumerated} instead
      of sampled, contributing zero interval width.  When every stratum
      is exact (always the case on small instances) the result is
      {b rationally equal} to the exact engines — the identity
      [(1/n)/C(n-1,k) = k!(n-1-k)!/n!] is Claim A.1 term by term — and
      the report says [draws = 0], [half_width = 0], [converged].

    {2 Confidence intervals}

    Per fact, the reported [half_width] is a valid
    [confidence]-level bound on [|value - Sh(μ)|] (per-fact, not
    familywise): Hoeffding by default, or the Maurer–Pontil empirical
    Bernstein bound under [`Bernstein] (tighter when the observed
    variance is small).  All bound arithmetic uses
    {!Rational.sqrt_upper} / {!Rational.ln_upper}, so the intervals are
    conservative rational over-approximations — the stopping rule can
    only stop {e later} than an ideal real-valued rule, never report a
    half-width below what the inequality certifies.

    {2 Anytime stopping}

    Draws proceed in batches of [batch]; after each batch the rule stops
    as soon as the half-width is [<= epsilon] ([converged = true]) or
    the [max_draws] budget is exhausted ([converged] reports whether the
    target was still met).  Under {!Monte_carlo} the budget counts
    shared permutations; under the stratified strategies it is a
    per-fact budget across that fact's sampled strata. *)

type strategy = Monte_carlo | Stratified | Hybrid

val strategy_to_string : strategy -> string

val strategy_of_string : string -> strategy option
(** Accepts ["mc"] / ["monte-carlo"], ["stratified"], ["hybrid"]. *)

type bound = Hoeffding | Bernstein

val bound_to_string : bound -> string
val bound_of_string : string -> bound option

type config = {
  strategy : strategy;
  seed : int;  (** master seed; every substream is derived from it *)
  epsilon : Rational.t;  (** target CI half-width, [> 0] *)
  confidence : Rational.t;  (** CI level in [(0, 1)], e.g. [19/20] *)
  max_draws : int;  (** draw budget, [>= 1] (see the stopping-rule note) *)
  batch : int;  (** draws between stopping-rule checks, [>= 1] *)
  exact_cap : int;
      (** {!Hybrid} only: strata with [C(n-1,k) <= exact_cap] coalitions
          are enumerated exactly ([>= 0]) *)
  bound : bound;
}

val default : config
(** [Hybrid], seed [0], [epsilon = 1/20], [confidence = 19/20],
    [max_draws = 4096], [batch = 64], [exact_cap = 512], [Hoeffding]. *)

val config :
  ?strategy:strategy -> ?seed:int -> ?epsilon:Rational.t ->
  ?confidence:Rational.t -> ?max_draws:int -> ?batch:int ->
  ?exact_cap:int -> ?bound:bound -> unit -> config
(** {!default} with overrides, validated.
    @raise Invalid_argument as {!validate}. *)

val validate : config -> unit
(** @raise Invalid_argument if [epsilon <= 0], [confidence] outside
    [(0, 1)], [max_draws < 1], [batch < 1] or [exact_cap < 0]. *)

type estimate = {
  fact : Fact.t;
  value : Rational.t;  (** point estimate of the Shapley/Banzhaf value *)
  half_width : Rational.t;
      (** CI half-width at [confidence]; [0] iff the value is exact *)
  draws : int;  (** draws charged to this fact *)
  exact_strata : int;  (** strata enumerated exactly (stratified only) *)
  sampled_strata : int;
  converged : bool;  (** [half_width <= epsilon] *)
}

type report = {
  estimates : estimate array;  (** in universe order *)
  total_draws : int;
      (** {!Monte_carlo}: shared permutations, counted once; otherwise
          the sum of per-fact draws *)
  total_evals : int;  (** lineage evaluations performed *)
  max_half_width : Rational.t;
  all_converged : bool;
}

val shapley :
  ?tel:Telemetry.t -> config -> universe:Fact.t list -> Bform.t -> report
(** Estimate the Shapley value of every fact of [universe] (the
    endogenous facts, in engine order) for the lineage [phi].  The
    result is a deterministic function of [(config, universe, phi)].
    When [tel] is given, the run is a [sample.eval] span (with one
    [sample.fact] span per fact under the stratified strategies and one
    [sample.round] span per batch round under {!Monte_carlo}), and the
    [sample.draws] / [sample.evals] / [sample.exact_strata] /
    [sample.sampled_strata] counters and the [sample.max_hw_ppm] gauge
    (half-width in parts per million, rounded up) are updated.
    @raise Invalid_argument if the config is invalid ({!validate}) or
    [phi] mentions a fact outside [universe]. *)

val banzhaf :
  ?tel:Telemetry.t -> config -> universe:Fact.t list -> Bform.t -> report
(** Banzhaf estimates by uniform coalition sampling (one shared subset
    per draw serves every fact).  [strategy] and [exact_cap] are ignored
    — the Banzhaf value has no permutation/stratum structure — while
    seed, epsilon, confidence, budget, batch and bound apply as in
    {!shapley}. *)

(** The confidence-interval arithmetic, exposed for the statistical test
    layer.  Draw values live in an interval of width [range]
    ([{0,1}] for monotone lineages, [{-1,0,1}] otherwise). *)
module Bound : sig
  val log_term : confidence:Rational.t -> intervals:int -> Rational.t
  (** [ln_upper (2/δ')] with [δ' = (1 - confidence)/intervals] — the
      per-interval log term after a union bound over [intervals]
      simultaneous intervals. *)

  val hoeffding : range:Rational.t -> log_term:Rational.t -> m:int -> Rational.t
  (** [range · √(log_term/(2m))]: with probability [>= 1 - δ'] the
      sample mean of [m] i.i.d. draws is within this of the true mean. *)

  val bernstein :
    range:Rational.t -> log_term:Rational.t -> m:int -> sum:int ->
    sumsq:int -> Rational.t
  (** The Maurer–Pontil empirical Bernstein bound
      [√(2·V·log_term/m) + 7·range·log_term/(3(m-1))] where [V] is the
      unbiased sample variance reconstructed from the integer draw sums
      [sum = Σxᵢ], [sumsq = Σxᵢ²].  Falls back to {!hoeffding} at
      [m < 2]. *)
end

(** Deterministic seeded PRNG (a splitmix64-mixed xorshift64-star
    stream), exposed for the statistical test layer.  Substreams derived via {!of_path}
    from distinct paths are independent for all practical purposes,
    which is what makes every strategy's draw sequence a function of the
    master seed alone — independent of evaluation order. *)
module Rng : sig
  type t

  val create : int -> t
  val of_path : int -> int list -> t
  val int : t -> int -> int
  (** [int t bound] is uniform in [[0, bound)].
      @raise Invalid_argument if [bound <= 0]. *)

  val bool : t -> bool
end
