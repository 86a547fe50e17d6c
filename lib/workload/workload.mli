(** Workloads and deterministic instance generators.

    A {e workload} is a named list of (query, database) cases — the unit
    the static analyzer ({!module:Analyze} in [lib/analysis]) vets before
    batch execution.  The rest of the module provides random (seeded) and
    structured databases for the query classes studied in the paper; used
    by the property tests and by the benchmark harness that regenerates
    the figures.  All generators are pure functions of their seed. *)

(** {1 Workloads} *)

type case = {
  cname : string;
  query_src : string;  (** the query's source text, for reporting *)
  query : Query.t;
  db : Database.t;
}

type t = {
  wname : string;
  cases : case list;
}

val make : name:string -> cases:case list -> t
val name : t -> string
val cases : t -> case list

val case : name:string -> query_src:string -> db:Database.t -> case
(** @raise Invalid_argument if the query source does not parse. *)

val parse_result : string -> (t, string * int) result
(** Parse the self-contained text format ([workload NAME] header, then
    [case NAME] blocks with one [query ...] line and [endo]/[exo] fact
    lines; ['#'] comments).  On error, the message and its 1-based line. *)

val parse : string -> t
(** @raise Invalid_argument on malformed input, with the line number. *)

val load : string -> t
(** Read a workload from a file path. *)

val to_string : t -> string
(** Round-trips through {!parse} (facts are printed sorted). *)

(** {1 Evaluation}

    Batch execution of a workload: every case runs through its own
    {!Engine} (one lineage compilation per case, conditioned per fact),
    and carries its instrumentation record home. *)

type case_result = {
  rcase : case;
  values : (Fact.t * Rational.t) list;  (** Shapley value per endogenous fact *)
  stats : Stats.t;
}

val eval_case :
  ?tel:Telemetry.t -> ?cache_capacity:int -> ?backend:Engine.backend ->
  case -> case_result
val eval :
  ?tel:Telemetry.t -> ?cache_capacity:int -> ?backend:Engine.backend ->
  t -> case_result list
(** [cache_capacity] and [backend] (default [`Auto]) are handed to every
    case's {!Engine.create}.  Values are identical for every exact
    backend.  With [tel], each case runs in a
    [workload.case] span (attribute [case] = its name) and every case's
    engine records into the same tracer. *)

(** {1 Random generation} *)

type rng

val rng : int -> rng
val int : rng -> int -> int
(** [int r bound] is uniform in [0, bound). *)

val bool : rng -> bool
val pick : rng -> 'a list -> 'a

(** {1 Random databases} *)

val random_database :
  rng ->
  rels:(string * int) list ->
  consts:string list ->
  n_endo:int ->
  n_exo:int ->
  Database.t
(** Random facts over the given schema and constant pool; endogenous and
    exogenous parts are disjoint by construction. *)

val random_graph :
  rng ->
  labels:string list ->
  nodes:string list ->
  n_endo:int ->
  n_exo:int ->
  Database.t
(** Random labelled graph (binary facts). *)

(** {1 Structured families} *)

val rst_gadget : ?complete:bool -> rows:int -> extra_exo:bool -> unit -> Database.t
(** Instances for [q_RST = R(x) ∧ S(x,y) ∧ T(y)]: a bipartite block with
    [rows] left and right nodes, all [R]/[T] facts endogenous and the [S]
    facts endogenous too; with [extra_exo], some [S] facts are exogenous.
    By default roughly half of the [S] grid is present; [complete] keeps
    the full grid (the classic hard-lineage family). *)

val path_graph : label_word:string list -> n_paths:int -> Database.t
(** [n_paths] parallel fresh paths from ["s"] to ["t"], each labelled by
    [label_word]; all edges endogenous. *)

val bibliography : n_authors:int -> n_papers:int -> seed:int -> Fact.Set.t
(** The Section 6.4 Publication/Keyword schema with a random
    author-paper incidence and a 'shapley' keyword on roughly half the
    papers. *)

val star_join : spokes:int -> Database.t
(** Hierarchical instance for [R(x) ∧ S(x,y)]: one hub with [spokes]
    S-facts. *)

(** {1 Generator registry}

    A {e family} is a named, seeded, size-parameterized generator of
    (query, database) cases spanning the paper's variant frontier: safe
    CQs, the hard bipartite gadget, RPQ/CRPQ graphs, CQ¬, purely
    endogenous databases, and the §6.3/§6.4 max-SVC / constant-SVC
    settings.  Every generator is a pure function of [(seed, size)] —
    a triple always reproduces a byte-identical workload text
    serialization — and at [seed = 0] the [star] and [bipartite]
    families coincide with the historical bench instances
    ({!star_join}, complete {!rst_gadget}).

    The registry feeds three consumers: the [svc workload] CLI
    subcommand, the bench harness, and the universal cross-backend
    conformance suite ([test/test_conformance.ml]), so every engine is
    exercised on every family automatically. *)

module Family : sig
  type tractability = [ `Fp | `Hard | `Mixed ]
  (** Expected complexity of exact SVC on the family's instances per the
      paper's dichotomies ([`Mixed] when it depends on the variant
      viewpoint, e.g. max-SVC's tractable maximum on a hard query). *)

  val tractability_to_string : tractability -> string

  type t = {
    name : string;  (** unique registry key, e.g. ["star"] *)
    description : string;  (** one line, shown by [svc workload list] *)
    tractability : tractability;
    generate : seed:int -> size:int -> case;
  }
end

val register_family : Family.t -> unit
(** @raise Invalid_argument on a duplicate or empty name. *)

val families : unit -> Family.t list
(** All registered families, in registration order; the eight built-ins
    ([star], [bipartite], [rpq-road], [crpq], [cqneg], [endogenous],
    [max-svc], [const-svc]) are registered at module initialization. *)

val find_family : string -> Family.t option

val generate : family:string -> seed:int -> size:int -> case
(** Run a registered family's generator.
    @raise Invalid_argument on an unknown family, [seed < 0] or
    [size < 1]. *)

val case_name : family:string -> seed:int -> size:int -> string
(** The canonical case name ["FAMILY-sSEED-nSIZE"] used by the built-in
    generators. *)

val to_workload : case -> t
(** A single-case workload named after the case — the unit [svc workload
    gen] serializes with {!to_string}. *)
