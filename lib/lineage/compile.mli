(** Model counting on lineage formulas by memoized Shannon expansion.

    The central routine computes the {e size-generating polynomial} of a
    formula over a variable universe: the coefficient of [z^j] counts the
    satisfying assignments with exactly [j] variables set to true.  This
    single polynomial answers the whole family of problems of Section 3:

    - [FGMC_j] is coefficient [j] (over universe [Dₙ]);
    - [GMC] is the total [p(1)];
    - [SPPQE] at probability [p] is [p(z)/(1+z)^n] for [z = p/(1-p)]
      (Claim A.2);
    - arbitrary tuple-independent [PQE] is the weighted variant below.

    The expansion conditions on one variable at a time, memoizes on the
    simplified sub-formula, and multiplies variable-disjoint conjuncts
    (the d-DNNF-style decomposition rule). *)

type stats = { cache_hits : int; cache_misses : int }

(** A shareable, bounded memo cache for {!size_polynomial_with}.

    Keys are the conditioned sub-formulas themselves, hashed structurally
    ({!Bform.hash}); a cached polynomial counts over exactly [vars phi],
    which makes one cache sound across any number of calls — in particular
    across the per-fact conditionings of a batched SVC run.  At capacity,
    new results are still computed and returned but not retained (counted
    as [drops]), so a bound can never change an answer.  [poly_ops] counts
    the polynomial ring operations performed by the counter. *)
module Memo : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Default capacity: unbounded.
      @raise Invalid_argument on negative capacity. *)

  val length : t -> int
  val capacity : t -> int
  val hits : t -> int
  val misses : t -> int
  val drops : t -> int
  val poly_ops : t -> int
  val clear : t -> unit
end

val conjunct_components : Bform.t list -> (Bform.t * Fact.Set.t) list
(** Split the juncts of a conjunction into variable-disjoint groups (the
    d-DNNF decomposition rule), each rebuilt as one conjunct and tagged
    with its variable set.  Exposed for the {!Circuit} knowledge compiler,
    which applies the same rule when building decomposable ∧-nodes. *)

val branch_variable : Bform.t -> Fact.t option
(** The Shannon branching heuristic (most frequently occurring variable);
    [None] iff the formula is constant.  Exposed so {!Circuit} expands in
    the same order as the counter, keeping the two backends' structures —
    and their cache behaviours — comparable. *)

val one_plus_z_pow : int -> Poly.Z.t
(** [(1 + z)^k], the size polynomial of the always-true function over [k]
    variables — the padding factor for variables a sub-formula does not
    mention.  Memoized and referentially transparent: every call returns
    a polynomial equal to
    [Poly.Z.of_coeffs (Array.to_list (Bigint.binomial_row k))].
    @raise Invalid_argument on negative [k]. *)

val size_polynomial_with :
  memo:Memo.t -> universe:Fact.t list -> Bform.t -> Poly.Z.t
(** As {!size_polynomial}, but looking sub-results up in — and charging
    instrumentation to — the given shared cache.
    @raise Invalid_argument if the formula mentions a fact outside the
    universe. *)

val size_polynomial : universe:Fact.t list -> Bform.t -> Poly.Z.t
(** @raise Invalid_argument if the formula mentions a fact outside the
    universe. *)

val size_polynomial_stats : universe:Fact.t list -> Bform.t -> Poly.Z.t * stats

val size_polynomial_naive : universe:Fact.t list -> Bform.t -> Poly.Z.t
(** No memoization, no decomposition: Shannon expansion only (ablation
    baseline). *)

val count_models : universe:Fact.t list -> Bform.t -> Bigint.t
(** Total number of satisfying assignments over the universe. *)

val probability : prob:(Fact.t -> Rational.t) -> Bform.t -> Rational.t
(** Probability that the formula is true when each fact variable [f] is
    independently true with probability [prob f]. *)

val probability_naive : prob:(Fact.t -> Rational.t) -> Bform.t -> Rational.t
