(** (C-)homomorphism search.

    The satisfaction relation for CQs, hom-closure checks, minimal-support
    enumeration and the paper's q-leak test (Section 4.1) all reduce to
    finding maps that send a set of atoms into a set of facts:

    - a {e valuation} maps the variables of an atom set to constants so that
      every instantiated atom is a fact of the target set (constants are
      rigid) — this is the [C-hom] of CQ semantics with [C = const(q)];
    - a {e C-homomorphism between fact sets} maps constants to constants,
      fixing a set [C] pointwise.

    The search is backtracking with a fail-first atom ordering (the atom
    with the fewest candidate facts is matched first).  Candidates come
    from an argument index built once per search and keyed on (relation,
    position, constant): an atom probes the smallest bucket among its
    pinned positions instead of scanning its whole relation. *)

type subst = string Term.Smap.t
(** Finite map from variable names to constant names. *)

type ordering =
  | Fail_first  (** match the atom with the fewest candidates first (default) *)
  | Syntactic   (** match atoms in the given order (ablation baseline) *)

val iter_valuations :
  ?ordering:ordering ->
  into:Fact.Set.t -> ?binding:subst -> Atom.t list -> (subst -> unit) -> unit
(** Enumerate every total valuation of the atoms' variables (extending
    [binding]) whose image lies inside [into]. *)

val find_valuation :
  into:Fact.Set.t -> ?binding:subst -> Atom.t list -> subst option

val exists_valuation :
  into:Fact.Set.t -> ?binding:subst -> Atom.t list -> bool

val image : subst -> Atom.t list -> Fact.Set.t
(** The set of facts obtained by applying a total valuation.
    @raise Invalid_argument if some variable is unbound. *)

val all_images : into:Fact.Set.t -> Atom.t list -> Fact.Set.t list
(** All distinct images of valuations into [into], in the order of their
    first valuation.  Duplicates are dropped through a hash table keyed
    on the images themselves, in expected O(1) per valuation. *)

val minimal_sets : Fact.Set.t list -> Fact.Set.t list
(** The first occurrence of each distinct set, in order, minus every set
    that strictly contains another one.

    Each set is filed under its {e rarest} fact: the one occurring in the
    fewest of the sets, ties broken by [Fact.compare].  A strict subset
    [o ⊊ s] has its rarest fact inside [s], so [s] needs comparing only
    with the smaller sets filed under one of its own facts.  The cost is
    linear in the total size of the sets plus the subset tests between a
    set and the smaller sets filed under its facts; a fact common to
    many sets (a star's hub) is never the rarest while rarer facts exist,
    so it does not gather them into one bucket. *)

val minimal_images : into:Fact.Set.t -> Atom.t list -> Fact.Set.t list
(** The ⊆-minimal elements of {!all_images}, in the same order — for a CQ
    [q], these are the minimal supports of [q] inside [into].  Equal to
    [minimal_sets (all_images ~into atoms)], in time close to linear in
    the number of valuations (see {!minimal_sets}). *)

(** {1 Homomorphisms between fact sets} *)

val iter_fact_homs :
  fixed:Term.Sset.t -> Fact.Set.t -> into:Fact.Set.t -> (string Term.Smap.t -> unit) -> unit
(** Enumerate constant renamings [h] fixing [fixed] pointwise with
    [h(src) ⊆ into].  The map is defined on every constant of the source
    (including fixed ones, mapped to themselves). *)

val exists_fact_hom : fixed:Term.Sset.t -> Fact.Set.t -> into:Fact.Set.t -> bool

val find_fact_hom :
  fixed:Term.Sset.t -> Fact.Set.t -> into:Fact.Set.t -> string Term.Smap.t option

(** {1 Reference implementations}

    The quadratic versions this module replaced: a relation scan per
    candidate, list-based image dedup and an all-pairs minimality filter.
    Differential tests pin the functions above to these, list for list. *)

module For_tests : sig
  val iter_valuations :
    ?ordering:ordering ->
    into:Fact.Set.t -> ?binding:subst -> Atom.t list -> (subst -> unit) -> unit

  val all_images : into:Fact.Set.t -> Atom.t list -> Fact.Set.t list
  val minimal_images : into:Fact.Set.t -> Atom.t list -> Fact.Set.t list
end
