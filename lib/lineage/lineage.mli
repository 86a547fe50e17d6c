(** Lineage computation: from a query and a partitioned database to a
    Boolean function of the endogenous facts.

    For every [S ⊆ Dₙ]:  [Bform.eval (lineage q db) S  ⇔  S ∪ Dₓ ⊨ q].

    Monotone queries yield the disjunction of their minimal supports
    (restricted to endogenous facts); CQ¬ queries yield a non-monotone
    formula with negated fact variables. *)

val lineage : Query.t -> Database.t -> Bform.t

val rpq_minimal_supports : Rpq.t -> Fact.Set.t -> Fact.Set.t list
(** Scalable minimal-support enumeration for RPQs by product-automaton walk
    search (the generic subset enumeration of {!Query.minimal_supports_in}
    is exponential in the database size).  The supports the walk reaches
    go through one {!Homomorphism.minimal_sets} pass; they are listed
    latest-first, by the first time the walk reaches each. *)

module For_tests : sig
  val rpq_minimal_supports : Rpq.t -> Fact.Set.t -> Fact.Set.t list
  (** The replaced reference: the same walk, with a list dedup and an
      all-pairs minimality filter. *)
end
