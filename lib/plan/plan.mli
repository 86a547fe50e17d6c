(** Certified compilation planner: static analysis of a lineage formula
    before any backend work.

    The d-DNNF compiler ({!Circuit}) expands the lineage by Shannon
    branching; the order in which variables are decided controls the
    circuit size exponentially.  The planner looks at the lineage's
    {e variable co-occurrence graph} and derives, per independent
    AND-component, a variable elimination order whose {e induced width}
    (the treewidth-style quantity of Kara–Olteanu–Suciu's variable-order
    trees) bounds the conditioning blow-up along the reverse order.

    {2 The co-occurrence graph}

    One vertex per fact variable of the formula; edges come from a
    clique per syntactic {e constraint}:

    - [True]/[False] contribute nothing;
    - a literal [Fv f] contributes the singleton clique [{f}];
    - [Not p] contributes the cliques of [p];
    - [And ps] contributes the union of the children's cliques (a
      conjunction couples nothing by itself);
    - [Or ps] contributes one clique [vars p] {e per disjunct} [p] —
      within a disjunct every variable interacts, across disjuncts they
      do not.

    On DNF-style lineages (an ∨ of minimal-support conjunctions) this is
    exactly the primal graph of the support hypergraph.

    {2 The certificate}

    {!analyze} returns a transparent {!t}: the AND-component partition
    of the variables (from grouping the root conjuncts by shared
    variables), one elimination order and induced width per component,
    and a size prediction.  Nothing in it needs to be taken on trust —
    {!Plancheck.check} re-derives the partition and the graph
    independently and replays the order, in the style of {!Certcheck}. *)

type heuristic =
  | Min_degree  (** eliminate a vertex of minimum current degree *)
  | Min_fill    (** eliminate a vertex adding the fewest fill edges *)
  | Best        (** run both, keep the order of smaller induced width
                    (ties go to min-fill) *)

val heuristic_name : heuristic -> string
(** ["min-degree"], ["min-fill"] or ["best"]. *)

val heuristic_of_string : string -> heuristic option

type component = {
  cvars : Fact.t list;
      (** the component's variables, sorted by {!Fact.compare} *)
  order : Fact.t list;
      (** elimination order: a permutation of [cvars].  Its induced
          width is what [width] claims and what {!Plancheck} replays. *)
  branch : Fact.t list;
      (** decision order for the compiler: the preorder of the
          pseudo-tree the elimination order induces on the filled graph
          (a vertex's parent is its earliest-eliminated-after-it
          neighbour; subtrees visited later-eliminated-child first).
          Branching down one tree path at a time keeps each decision's
          live cut within the claimed width — a plain reversed
          elimination order decides across sibling subtrees and loses
          that locality.  A permutation of [cvars]; only its quality,
          never correctness, depends on the construction. *)
  width : int;
      (** induced width of [order] on the component's co-occurrence
          graph: the maximum degree of a vertex at its elimination,
          counting fill edges. *)
  picked : heuristic;
      (** which heuristic produced [order] ([Min_degree] or [Min_fill]) *)
}

type t = {
  n_vars : int;  (** variables of the analyzed formula *)
  components : component list;
      (** the separator-free AND-component partition, sorted by smallest
          variable; empty iff the formula is constant *)
  max_width : int;  (** maximum component width (0 for constants) *)
  predicted_nodes : int;
      (** estimated circuit size
          [Σ_c (|cvars_c| + 1) · 2^min(width_c + 1, 24)], saturated at
          {!huge_nodes}.  An estimate, not a bound: real circuits can
          exceed it, or fall far below it when the lineage is simpler
          than its induced width suggests. *)
  requested : heuristic;  (** the heuristic {!analyze} was asked for *)
}

val huge_nodes : int
(** Saturation value of [predicted_nodes] ([10^9]). *)

val analyze : ?tel:Telemetry.t -> ?heuristic:heuristic -> Bform.t -> t
(** Run the full pass: split into AND-components (grouping the root
    conjuncts by shared variables; a non-conjunctive root is one
    component), build each component's co-occurrence graph, derive its
    elimination order and induced width, and predict the circuit size.
    Deterministic: ties everywhere break by {!Fact.compare} / vertex
    index.  [heuristic] defaults to [Best].

    With [tel], the pass runs in a [plan.analyze] span with the
    order derivation in a nested [plan.order] span (its time is the
    "order time" of the plan), and sets the [plan.components] and
    [plan.max_width] gauges. *)

val replan :
  ?tel:Telemetry.t -> ?heuristic:heuristic -> previous:t -> Bform.t -> t * int
(** Component-local replan after a delta update.  Re-derives the
    AND-component partition of the new formula, then for every component
    whose variable set matches a component of [previous] {e replays} the
    previous elimination order on the new co-occurrence graph instead of
    re-running the greedy heuristic.  The reported width is always the
    induced width of the replayed order on the {e actual} graph — never
    the stale claim — so a replanned certificate still passes
    {!Plancheck.check} unchanged.  If the replayed width exceeds the
    previous claim (the component's structure changed under it, e.g. by
    a fact flipping between exogenous truth values), that component
    falls back to the fresh heuristic.  Components with no variable-set
    match (the ones an insert/delete actually touched) are ordered from
    scratch.

    Returns the new plan and the number of components whose previous
    order was reused verbatim.  With [tel], runs in a [plan.replan] span
    and sets the [plan.reused_components] gauge (plus the same
    [plan.components]/[plan.max_width] gauges as {!analyze}). *)

val branch_order : t -> Fact.t list
(** The decision order the compiler should follow: each component's
    [branch] (pseudo-tree preorder), components concatenated in their
    listed order. *)

val component_count : t -> int
val component_index : t -> (Fact.t, int) Hashtbl.t
(** Variable → index of its component in [components]. *)

val recommend : t -> n_facts:int -> [ `Circuit | `Conditioning ]
(** The backend an [`Auto] engine resolves to: [`Circuit], for every
    plan and every fact count.  Kept, with its signature, for the
    benchmark's layer-by-layer replay ([perfbench/replay.ml]), which
    checks its replayed choice against {!Engine.backend}. *)

val to_string : t -> string
(** Multi-line human-readable dump (components, orders, widths,
    prediction); deterministic. *)

val to_json : t -> string
(** One JSON line: [{"n_vars":…,"max_width":…,"predicted_nodes":…,
    "components":[{"vars":[…],"order":[…],"branch":[…],"width":…,
    "heuristic":…}…]}]. *)

(** {2 Raw graph access}

    Exposed for {!Plancheck}-independent callers (tests, benchmarks)
    that want the co-occurrence structure itself. *)

val cliques : Bform.t -> Fact.Set.t list
(** The clique decomposition of the formula per the rules above, in
    deterministic traversal order. *)
