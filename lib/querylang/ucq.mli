(** Unions of conjunctive queries (Section 2). *)

type t

val of_cqs : Cq.t list -> t
(** @raise Invalid_argument on an empty list. *)

val disjuncts : t -> Cq.t list
val of_cq : Cq.t -> t

val vars : t -> Term.Sset.t
val consts : t -> Term.Sset.t
val rels : t -> Term.Sset.t

val eval : t -> Fact.Set.t -> bool

val is_constant_free : t -> bool

val is_connected : t -> bool
(** Every disjunct of the reduced form is connected; for constant-free
    UCQs this matches "every minimal support is connected" (connected
    hom-closed queries, Section 4.1). *)

val reduce : t -> t
(** Remove redundant disjuncts (those implied by another disjunct) and
    replace each disjunct by its core.  The minimal supports of the result
    are exactly the C-hom images of its disjuncts' canonical databases. *)

val minimal_supports_in : t -> Fact.Set.t -> Fact.Set.t list
(** The minimal supports of the union inside a fact set: one
    {!Homomorphism.minimal_sets} pass over the images of every disjunct.
    Listed latest-first: by the first image of each, last to first. *)

val canonical_supports : t -> Fact.Set.t list
(** One canonical (fresh-constant) minimal support per disjunct of the
    reduced form. *)

val implies : t -> t -> bool
(** [implies q q'] iff every database satisfying [q] satisfies [q']. *)

val equivalent : t -> t -> bool

val parse : string -> t
(** Disjuncts separated by ["|"], each in {!Cq.parse} syntax. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

module For_tests : sig
  val minimal_supports_in : t -> Fact.Set.t -> Fact.Set.t list
  (** The replaced reference: per-disjunct minimal images, then a list
      dedup and an all-pairs filter. *)
end
