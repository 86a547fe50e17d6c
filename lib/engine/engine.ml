(* Batched, memoizing SVC evaluation engine.

   [Svc.svc] (Claim A.1) recompiles the FGMC generating polynomial from
   scratch twice per fact: once for (Dₙ∖μ, Dₓ∪μ) and once for (Dₙ∖μ, Dₓ).
   But both databases have the same lineage as D up to the single variable
   μ: over S ⊆ Dₙ∖{μ},

     lineage(q, (Dₙ∖μ, Dₓ∪μ)) ≡ φ[μ := 1]
     lineage(q, (Dₙ∖μ, Dₓ))   ≡ φ[μ := 0]      where φ = lineage(q, D),

   and the size-generating polynomial depends only on the Boolean function.
   The engine therefore compiles φ once per (query, database) and reads
   every fact's φ[μ:=1] polynomial off one d-DNNF circuit (one bottom-up
   and one top-down traversal); the φ[μ:=0] polynomial is recovered from
   the full count by the splitting identity, and the Shapley coefficients
   are read off a factorial table built on first use.  The explicitly
   requested conditioning backend instead conditions φ once per fact,
   with all conditioned sub-formulas memoized in one shared bounded
   cache — the serial reference the circuit is checked against. *)

let now = Unix.gettimeofday

type backend = [ `Auto | `Conditioning | `Circuit | `Sample of Sample.config ]

type t = {
  query : Query.t;
  db : Database.t;
  players : Fact.t array;
  n : int;
  cache_capacity : int;
  backend : [ `Conditioning | `Circuit | `Sample of Sample.config ];
  (* resolved *)
  plan : Plan.t option; (* steers the circuit compilation *)
  session : Circuit.Session.t option;
  (* shared compilation arena across delta updates; [None] until the
     first [update] (so one-shot engines keep their exporter output) *)
  phi : Bform.t;
  memo : Compile.Memo.t;
  factorials : Bigint.t array Lazy.t; (* 0! .. n!, built by the first Claim A.1 use *)
  tel : Telemetry.t;
  compilations : Telemetry.Counter.t;
  conditionings : Telemetry.Counter.t;
  mutable full : Poly.Z.t option; (* count of phi over all n players *)
  mutable compile_s : float;
  mutable eval_s : float;
  mutable circuit : Circuit.t option; (* compiled on first circuit answer *)
  mutable circuit_eval : (Poly.Z.t * (Fact.t, Poly.Z.t) Hashtbl.t) option;
  mutable circuit_compile_s : float;
  mutable circuit_traverse_s : float;
  mutable sample_shapley : Sample.report option; (* first sampled svc_all *)
  mutable sample_banzhaf : Sample.report option;
}

let default_cache_capacity = 1 lsl 20

let make ~tel ~cache_capacity ~backend ~memo ~session ~prev_plan query db =
  let backend =
    match backend with
    | `Auto | `Circuit -> `Circuit
    | `Conditioning -> `Conditioning
    | `Sample cfg -> Sample.validate cfg; `Sample cfg
  in
  (* registered here, in this order: record-field evaluation order is
     unspecified, and the registry's registration order is user-visible
     in exporter output *)
  let compilations = Telemetry.counter tel "engine.compilations" in
  let conditionings = Telemetry.counter tel "engine.conditionings" in
  Telemetry.Counter.incr compilations;
  let t0 = now () in
  let phi = Telemetry.span tel "engine.lineage" (fun () -> Lineage.lineage query db) in
  let compile_s = now () -. t0 in
  let players = Array.of_list (Database.endo_list db) in
  let n = Array.length players in
  (* The plan steers the circuit compilation's branch order.  After a
     delta update the previous plan seeds a component-local replan
     instead of a fresh analysis. *)
  let plan =
    match backend with
    | `Circuit ->
      Some
        (match prev_plan with
         | Some previous -> fst (Plan.replan ~tel ~previous phi)
         | None -> Plan.analyze ~tel phi)
    | `Conditioning | `Sample _ -> None
  in
  {
    query;
    db;
    players;
    n;
    cache_capacity;
    backend;
    plan;
    session;
    phi;
    memo =
      (match memo with
       | Some m -> m
       | None -> Compile.Memo.create ~capacity:cache_capacity ());
    factorials = lazy (Bigint.factorial_table n);
    tel;
    compilations;
    conditionings;
    full = None;
    compile_s;
    eval_s = 0.;
    circuit = None;
    circuit_eval = None;
    circuit_compile_s = 0.;
    circuit_traverse_s = 0.;
    sample_shapley = None;
    sample_banzhaf = None;
  }

let create ?(tel = Telemetry.disabled ()) ?(cache_capacity = default_cache_capacity)
    ?(backend = `Auto) query db =
  make ~tel ~cache_capacity ~backend ~memo:None ~session:None ~prev_plan:None
    query db

type change = [ `Insert of [ `Endo | `Exo ] * Fact.t | `Delete of Fact.t ]

(* A delta update recompiles the lineage (cheap — the quadratic work is
   downstream) but carries over every reusable artifact: the shared memo
   (sound across formulas — a cached polynomial counts over exactly its
   formula's variables), the circuit session (hash-consed sub-circuits
   untouched by the change come back as the same nodes), and the plan
   (components the change did not touch replay their elimination
   orders).  The per-answer caches (full polynomial, circuit evaluation,
   sample reports) are invalidated wholesale by building a fresh [t]. *)
let update t change =
  Telemetry.span t.tel "engine.update" @@ fun () ->
  Telemetry.Counter.incr (Telemetry.counter t.tel "engine.updates");
  let db =
    match change with
    | `Insert (part, f) ->
      if Database.mem f t.db then
        invalid_arg "Engine.update: inserted fact is already present";
      (match part with
       | `Endo -> Database.add_endo f t.db
       | `Exo -> Database.add_exo f t.db)
    | `Delete f ->
      if not (Database.mem f t.db) then
        invalid_arg "Engine.update: deleted fact is not present";
      Database.remove f t.db
  in
  let session =
    match t.session with
    | Some s -> s
    | None ->
      let s = Circuit.Session.create () in
      (* a circuit compiled before the first update joins the arena so
         the very next compile already reuses its nodes *)
      (match t.circuit with
       | Some c -> Circuit.session_adopt s c
       | None -> ());
      s
  in
  make ~tel:t.tel ~cache_capacity:t.cache_capacity
    ~backend:(t.backend :> backend) ~memo:(Some t.memo)
    ~session:(Some session) ~prev_plan:t.plan t.query db

let query t = t.query
let database t = t.db
let lineage t = t.phi
let backend t = t.backend
let plan t = t.plan

let circuit_reused_nodes t =
  match t.circuit with Some c -> Circuit.reused_nodes c | None -> 0

(* The Claim A.1 arithmetic with the factorials shared across terms:
   Sh(μ) = Σ_j j!(n-j-1)!/n! · (FGMC_j(Dₙ∖μ, Dₓ∪μ) - FGMC_j(Dₙ∖μ, Dₓ)). *)
let shapley_of_polynomials ~factorials ~with_mu_exo ~without_mu ~n =
  if Array.length factorials <= n then
    invalid_arg "Engine.shapley_of_polynomials: factorial table too small";
  (* Every term of Claim A.1 shares the denominator n!, so accumulate one
     integer numerator and normalize a single rational at the end. *)
  let num = ref Bigint.zero in
  for j = 0 to n - 1 do
    let delta =
      Bigint.sub (Poly.Z.coeff with_mu_exo j) (Poly.Z.coeff without_mu j)
    in
    if not (Bigint.is_zero delta) then
      num :=
        Bigint.add !num
          (Bigint.mul (Bigint.mul factorials.(j) factorials.(n - j - 1)) delta)
  done;
  Rational.make !num factorials.(n)

let conditioned t mu b ~universe =
  Telemetry.Counter.incr t.conditionings;
  Compile.size_polynomial_with ~memo:t.memo ~universe
    (Bform.condition mu b t.phi)

(* The circuit backend: compile the lineage into a d-DNNF once, then one
   bottom-up + one top-down traversal reads every fact's [with_mu_exo]
   polynomial (and the full count) off the circuit — zero per-fact
   conditionings.  Both steps are lazy and cached, so every entry point
   ([svc], [svc_all], [banzhaf], [fgmc_polynomial]) shares them. *)
let circuit_of t =
  match t.circuit with
  | Some c -> c
  | None ->
    let t0 = now () in
    let c =
      Circuit.compile ~tel:t.tel ?plan:t.plan ~cache_capacity:t.cache_capacity
        ?session:t.session t.phi
    in
    t.circuit_compile_s <- t.circuit_compile_s +. (now () -. t0);
    t.circuit <- Some c;
    c

let circuit_evaluation t =
  match t.circuit_eval with
  | Some e -> e
  | None ->
    let c = circuit_of t in
    let t0 = now () in
    let ev = Circuit.evaluate ~tel:t.tel c ~universe:(Array.to_list t.players) in
    t.circuit_traverse_s <- t.circuit_traverse_s +. (now () -. t0);
    let tbl = Hashtbl.create (max 16 (Array.length ev.Circuit.by_fact)) in
    Array.iter (fun (f, p) -> Hashtbl.replace tbl f p) ev.Circuit.by_fact;
    t.full <- Some ev.Circuit.full;
    let e = (ev.Circuit.full, tbl) in
    t.circuit_eval <- Some e;
    e

(* C(φ, U), the size polynomial of the unconditioned lineage over all n
   players, computed once and reused by every per-fact query. *)
let full_polynomial t =
  match t.full with
  | Some p -> p
  | None ->
    (match t.backend with
     | `Circuit -> fst (circuit_evaluation t)
     (* the sample backend only approximates Shapley/Banzhaf values; an
        explicit ask for the FGMC polynomial stays exact via the
        conditioning path *)
     | `Conditioning | `Sample _ ->
       Telemetry.Counter.incr t.conditionings;
       let p =
         Telemetry.span t.tel "engine.full" (fun () ->
             Compile.size_polynomial_with ~memo:t.memo
               ~universe:(Array.to_list t.players) t.phi)
       in
       t.full <- Some p;
       p)

(* Splitting C(φ, U) by membership of μ gives the exact identity
     C(φ, U) = z·C(φ[μ:=1], U∖{μ}) + C(φ[μ:=0], U∖{μ}),
   so a single conditioning per fact suffices: the [without_mu] polynomial
   is recovered from the shared full count by a polynomial subtraction.
   The circuit backend reads [with_mu_exo] off the shared evaluation
   instead — the same identity then applies verbatim. *)
let polynomials t mu =
  match t.backend with
  | `Conditioning | `Sample _ ->
    let full = full_polynomial t in
    let universe =
      List.filter (fun f -> not (Fact.equal f mu)) (Array.to_list t.players)
    in
    let with_mu_exo = conditioned t mu true ~universe in
    let without_mu = Poly.Z.sub full (Poly.Z.shift 1 with_mu_exo) in
    (with_mu_exo, without_mu)
  | `Circuit ->
    let full, by_fact = circuit_evaluation t in
    let with_mu_exo = Hashtbl.find by_fact mu in
    let without_mu = Poly.Z.sub full (Poly.Z.shift 1 with_mu_exo) in
    (with_mu_exo, without_mu)

(* The sample backend: one anytime estimation pass answers every fact at
   once (Shapley and Banzhaf reports cached independently).  The run is a
   deterministic function of (lineage, universe, config). *)
let sample_run t cfg ~which =
  let cached =
    match which with
    | `Shapley -> t.sample_shapley
    | `Banzhaf -> t.sample_banzhaf
  in
  match cached with
  | Some r -> r
  | None ->
    let t0 = now () in
    let universe = Array.to_list t.players in
    let r =
      match which with
      | `Shapley -> Sample.shapley ~tel:t.tel cfg ~universe t.phi
      | `Banzhaf -> Sample.banzhaf ~tel:t.tel cfg ~universe t.phi
    in
    t.eval_s <- t.eval_s +. (now () -. t0);
    (match which with
     | `Shapley -> t.sample_shapley <- Some r
     | `Banzhaf -> t.sample_banzhaf <- Some r);
    r

(* estimates are stored in players order, so mu's slot is its index *)
let sample_estimate t cfg ~which mu =
  let r = sample_run t cfg ~which in
  let rec find i =
    if i >= t.n then invalid_arg "Engine: fact is not endogenous"
    else if Fact.equal t.players.(i) mu then r.Sample.estimates.(i)
    else find (i + 1)
  in
  find 0

let sample_values t cfg ~which =
  let r = sample_run t cfg ~which in
  Array.to_list
    (Array.map (fun e -> (e.Sample.fact, e.Sample.value)) r.Sample.estimates)

(* The factorial table, built on first use (the sample backend never
   reads it) under its own span. *)
let factorials t =
  if Lazy.is_val t.factorials then Lazy.force t.factorials
  else Telemetry.span t.tel "engine.factorials" (fun () -> Lazy.force t.factorials)

(* Per-fact span; the attribute list is only built when someone will read
   it, so the disabled-tracer path stays allocation-free. *)
let fact_span t mu f =
  if Telemetry.enabled t.tel then
    Telemetry.span t.tel ~attrs:[ ("fact", Fact.to_string mu) ] "engine.fact" f
  else f ()

let svc t mu =
  if not (Database.mem_endo mu t.db) then
    invalid_arg "Engine.svc: fact is not endogenous";
  match t.backend with
  | `Sample cfg -> (sample_estimate t cfg ~which:`Shapley mu).Sample.value
  | `Conditioning | `Circuit ->
    let t0 = now () in
    let v =
      fact_span t mu (fun () ->
          let with_mu_exo, without_mu = polynomials t mu in
          shapley_of_polynomials ~factorials:(factorials t) ~with_mu_exo
            ~without_mu ~n:t.n)
    in
    t.eval_s <- t.eval_s +. (now () -. t0);
    v

let banzhaf_value_of t ~with_mu_exo ~without_mu =
  let delta = Bigint.sub (Poly.Z.total with_mu_exo) (Poly.Z.total without_mu) in
  Rational.make delta (Bigint.pow Bigint.two (t.n - 1))

let svc_all t =
  Telemetry.span t.tel "engine.eval" @@ fun () ->
  match t.backend with
  | `Sample cfg -> sample_values t cfg ~which:`Shapley
  | `Conditioning | `Circuit ->
    Array.to_list (Array.map (fun f -> (f, svc t f)) t.players)

let banzhaf t mu =
  if not (Database.mem_endo mu t.db) then
    invalid_arg "Engine.banzhaf: fact is not endogenous";
  match t.backend with
  | `Sample cfg -> (sample_estimate t cfg ~which:`Banzhaf mu).Sample.value
  | `Conditioning | `Circuit ->
    let t0 = now () in
    let v =
      fact_span t mu (fun () ->
          let with_mu_exo, without_mu = polynomials t mu in
          banzhaf_value_of t ~with_mu_exo ~without_mu)
    in
    t.eval_s <- t.eval_s +. (now () -. t0);
    v

let banzhaf_all t =
  Telemetry.span t.tel "engine.eval" @@ fun () ->
  match t.backend with
  | `Sample cfg -> sample_values t cfg ~which:`Banzhaf
  | `Conditioning | `Circuit ->
    Array.to_list (Array.map (fun f -> (f, banzhaf t f)) t.players)

let fgmc_polynomial t = full_polynomial t

let telemetry t = t.tel

let sample_report t =
  match t.sample_shapley with Some r -> Some r | None -> t.sample_banzhaf

let stats t =
  let sample_strategy, sample_seed, sample_epsilon, sample_confidence =
    match t.backend with
    | `Sample cfg ->
      (Sample.strategy_to_string cfg.Sample.strategy, cfg.Sample.seed,
       Rational.to_string cfg.Sample.epsilon,
       Rational.to_string cfg.Sample.confidence)
    | `Conditioning | `Circuit -> ("", 0, "0", "0")
  in
  let sample_draws, sample_exact_strata, sample_sampled_strata, sample_max_hw,
      sample_converged =
    match sample_report t with
    | Some r ->
      ( r.Sample.total_draws,
        Array.fold_left
          (fun a e -> a + e.Sample.exact_strata)
          0 r.Sample.estimates,
        Array.fold_left
          (fun a e -> a + e.Sample.sampled_strata)
          0 r.Sample.estimates,
        Rational.to_string r.Sample.max_half_width,
        r.Sample.all_converged )
    | None -> (0, 0, 0, "0", false)
  in
  {
    Stats.players = t.n;
    compilations = Telemetry.Counter.value t.compilations;
    conditionings = Telemetry.Counter.value t.conditionings;
    cache_hits = Compile.Memo.hits t.memo;
    cache_misses = Compile.Memo.misses t.memo;
    cache_size = Compile.Memo.length t.memo;
    cache_capacity = Compile.Memo.capacity t.memo;
    cache_drops = Compile.Memo.drops t.memo;
    poly_ops = Compile.Memo.poly_ops t.memo;
    compile_s = t.compile_s;
    eval_s = t.eval_s;
    backend = (match t.backend with
        | `Conditioning -> "conditioning"
        | `Circuit -> "circuit"
        | `Sample _ -> "sample");
    circuit_nodes = (match t.circuit with
        | Some c -> Circuit.node_count c
        | None -> 0);
    circuit_edges = (match t.circuit with
        | Some c -> Circuit.edge_count c
        | None -> 0);
    circuit_smoothing = (match t.circuit with
        | Some c -> Circuit.smoothing_nodes c
        | None -> 0);
    circuit_cache_hits = (match t.circuit with
        | Some c -> Circuit.cache_hits c
        | None -> 0);
    circuit_cache_misses = (match t.circuit with
        | Some c -> Circuit.cache_misses c
        | None -> 0);
    circuit_cache_drops = (match t.circuit with
        | Some c -> Circuit.cache_drops c
        | None -> 0);
    circuit_compile_s = t.circuit_compile_s;
    circuit_traverse_s = t.circuit_traverse_s;
    sample_strategy;
    sample_seed;
    sample_draws;
    sample_exact_strata;
    sample_sampled_strata;
    sample_max_hw;
    sample_epsilon;
    sample_confidence;
    sample_converged;
    span_s = Telemetry.aggregate t.tel;
  }
