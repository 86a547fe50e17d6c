(* Differential and metamorphic property suite for the d-DNNF circuit
   backend.

   The circuit engine must be bit-identical to the conditioning engine and
   to the per-fact Claim A.1 path ([Svc.svc_all_naive]) on every query
   class — exact [Rational] equality, no tolerance.  On top of the
   differentials: metamorphic invariances (fact insertion order,
   endogenous→exogenous relabeling, duplicate-clause idempotence), the
   circuit invariants themselves verified by the independent
   [Circuit.Check] verifier (decomposability, smoothness, determinism,
   equivalence to the compiled formula), and the instrumentation contract
   (zero conditionings, deterministic normalized stats, stable JSON
   shape). *)

open Test_util

let qrst = Query_parse.parse "R(?x), S(?x,?y), T(?y)"

let values_equal v1 v2 =
  List.length v1 = List.length v2
  && List.for_all2
       (fun (f1, x1) (f2, x2) -> Fact.equal f1 f2 && Rational.equal x1 x2)
       v1 v2

let circuit_values q db =
  Engine.svc_all (Engine.create ~backend:`Circuit q db)

let conditioning_values q db =
  Engine.svc_all (Engine.create ~backend:`Conditioning q db)

(* circuit ≡ conditioning ≡ naive per-fact path, across the query corpus *)
let prop_circuit_vs_conditioning_vs_naive =
  qcheck ~count:300 "circuit = conditioning = naive" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let via_circuit = circuit_values q db in
       values_equal via_circuit (conditioning_values q db)
       && values_equal via_circuit (Svc.svc_all_naive q db))

let prop_circuit_graph =
  qcheck ~count:100 "circuit on rpq graph instances" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_graph_case seed in
       values_equal (circuit_values q db) (conditioning_values q db))

(* Fisher–Yates on the deterministic Workload rng, so qcheck shrinking
   stays reproducible. *)
let shuffle r l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Workload.int r (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

(* metamorphic: the order facts are listed in cannot matter — the same
   partitioned database rebuilt from shuffled lists yields the same
   values in the same (canonical) order *)
let prop_permutation_invariance =
  qcheck ~count:100 "fact-order permutation invariance" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let r = Workload.rng (seed + 1) in
       let db' =
         Database.make
           ~endo:(shuffle r (Fact.Set.elements (Database.endo db)))
           ~exo:(shuffle r (Fact.Set.elements (Database.exo db)))
       in
       values_equal (circuit_values q db) (circuit_values q db'))

(* metamorphic: relabel one endogenous fact as exogenous; the two backends
   must keep agreeing on the smaller game (exercises lineages with
   exogenous facts folded in as constants) *)
let prop_relabel_exogenous =
  qcheck ~count:60 "endogenous→exogenous relabeling" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       match Database.endo_list db with
       | [] -> true
       | mu :: _ ->
         let db' = Database.make_exogenous mu db in
         let via_circuit = circuit_values q db' in
         values_equal via_circuit (conditioning_values q db')
         && values_equal via_circuit (Svc.svc_all_naive q db'))

(* metamorphic: conjoining or disjoining a lineage with itself changes
   nothing — the circuits of φ, φ∧φ and φ∨φ evaluate identically *)
let prop_duplicate_clause_idempotence =
  qcheck ~count:60 "duplicate-clause idempotence" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let phi = Lineage.lineage q db in
       let universe = Database.endo_list db in
       let eval f = Circuit.evaluate (Circuit.compile f) ~universe in
       let same (a : Circuit.evaluation) (b : Circuit.evaluation) =
         Poly.Z.equal a.Circuit.full b.Circuit.full
         && Array.for_all2
              (fun (f1, p1) (f2, p2) -> Fact.equal f1 f2 && Poly.Z.equal p1 p2)
              a.Circuit.by_fact b.Circuit.by_fact
       in
       let reference = eval phi in
       same reference (eval (Bform.conj [ phi; phi ]))
       && same reference (eval (Bform.disj [ phi; phi ])))

(* every compiled circuit passes the independent verifier, including the
   semantic equivalence check against the formula it was compiled from *)
let prop_check_invariants =
  qcheck ~count:100 "Check: smooth + decomposable + deterministic" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let phi = Lineage.lineage q db in
       let c = Circuit.compile phi in
       match Circuit.Check.check ~formula:phi c with
       | Ok r ->
         r.Circuit.Check.nodes_checked = Circuit.node_count c
         && r.Circuit.Check.assignments
            = 1 lsl Fact.Set.cardinal (Bform.vars phi)
       | Error msg -> QCheck2.Test.fail_report msg)

let prop_banzhaf_circuit =
  qcheck ~count:50 "circuit banzhaf = conditioning banzhaf" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       values_equal
         (Engine.banzhaf_all (Engine.create ~backend:`Circuit q db))
         (Engine.banzhaf_all (Engine.create ~backend:`Conditioning q db)))

(* the tentpole contract: zero per-fact conditionings, one lineage
   compilation, a live circuit in the stats *)
let test_no_conditioning () =
  let db = Gen.star ~spokes:8 in
  let q = Query_parse.parse "R(?x), S(?x,?y)" in
  let e = Engine.create ~backend:`Circuit q db in
  Alcotest.(check bool) "resolved to circuit" true (Engine.backend e = `Circuit);
  ignore (Engine.svc_all e);
  let s = Engine.stats e in
  Alcotest.(check string) "backend" "circuit" s.Stats.backend;
  Alcotest.(check int) "one compilation" 1 s.Stats.compilations;
  Alcotest.(check int) "zero conditionings" 0 s.Stats.conditionings;
  Alcotest.(check bool) "live nodes" true (s.Stats.circuit_nodes > 0);
  Alcotest.(check bool) "live edges" true (s.Stats.circuit_edges > 0);
  (* a second pass reuses the cached evaluation wholesale *)
  ignore (Engine.svc_all e);
  let s2 = Engine.stats e in
  Alcotest.(check int) "still zero conditionings" 0 s2.Stats.conditionings;
  Alcotest.(check int) "same nodes" s.Stats.circuit_nodes s2.Stats.circuit_nodes

(* `Auto resolves to the circuit on every instance: every registered
   family below 8 endogenous facts, the rpq-road size whose width-based
   prediction is ~6x10^8 nodes, and the degenerate databases.  Values
   match the brute-force oracle wherever it is cheap. *)
let test_auto_selection () =
  let check_auto label q db =
    let e = Engine.create q db in
    Alcotest.(check bool) (label ^ ": resolves to circuit") true
      (Engine.backend e = `Circuit && Engine.plan e <> None);
    let values = Engine.svc_all e in
    if Database.size_endo db <= 10 then
      Alcotest.(check bool) (label ^ ": = svc_all_naive") true
        (values_equal values (Svc.svc_all_naive q db))
  in
  List.iter
    (fun (fam : Workload.Family.t) ->
       let rec sizes size =
         let c = fam.Workload.Family.generate ~seed:1 ~size in
         if size <= 16 && Database.size_endo c.Workload.db < 8 then begin
           check_auto c.Workload.cname c.Workload.query c.Workload.db;
           sizes (size + 1)
         end
       in
       sizes 1)
    (Workload.families ());
  let road = Workload.generate ~family:"rpq-road" ~seed:1 ~size:26 in
  check_auto road.Workload.cname road.Workload.query road.Workload.db;
  let q = Query_parse.parse "R(?x)" in
  check_auto "no endogenous facts" q
    (Database.make ~endo:[] ~exo:[ fact "R" [ "1" ] ]);
  check_auto "constant lineage" q
    (Database.make ~endo:[ fact "S" [ "1"; "2" ] ] ~exo:[ fact "R" [ "1" ] ]);
  let forced = Engine.create ~backend:`Conditioning qrst (Gen.bipartite ~rows:2) in
  Alcotest.(check bool) "explicit conditioning sticks" true
    (Engine.backend forced = `Conditioning && Engine.plan forced = None)

(* a bounded circuit compile cache changes counters, never answers *)
let test_bounded_circuit_cache () =
  let db = Gen.bipartite ~rows:3 in
  let bounded = Engine.create ~backend:`Circuit ~cache_capacity:2 qrst db in
  let unbounded = Engine.create ~backend:`Circuit qrst db in
  Alcotest.(check bool) "same values" true
    (values_equal (Engine.svc_all bounded) (Engine.svc_all unbounded));
  let s = Engine.stats bounded in
  Alcotest.(check bool) "drops happened" true (s.Stats.circuit_cache_drops > 0);
  Alcotest.(check bool) "hits still happened" true (s.Stats.circuit_cache_hits > 0)

(* smoothing gadgets exist exactly when Shannon branches forget variables *)
let test_smoothing_counted () =
  let db = Gen.bipartite ~rows:3 in
  let c = Circuit.compile (Lineage.lineage qrst db) in
  Alcotest.(check bool) "smoothing nodes counted" true
    (Circuit.smoothing_nodes c > 0);
  match Circuit.Check.check c with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "verifier rejected smoothed circuit: %s" msg

(* Stats.normalize zeroes the circuit wall-clock fields (and only those of
   the new fields), and the JSON shape is pinned *)
let test_stats_normalize_and_json () =
  let db = Gen.star ~spokes:6 in
  let q = Query_parse.parse "R(?x), S(?x,?y)" in
  let e = Engine.create ~backend:`Circuit q db in
  ignore (Engine.svc_all e);
  let s = Stats.normalize (Engine.stats e) in
  Alcotest.(check (float 0.)) "circuit_compile_s zeroed" 0. s.Stats.circuit_compile_s;
  Alcotest.(check (float 0.)) "circuit_traverse_s zeroed" 0. s.Stats.circuit_traverse_s;
  Alcotest.(check (float 0.)) "compile_s zeroed" 0. s.Stats.compile_s;
  Alcotest.(check (float 0.)) "eval_s zeroed" 0. s.Stats.eval_s;
  Alcotest.(check bool) "counters survive normalize" true
    (s.Stats.circuit_nodes > 0 && s.Stats.backend = "circuit");
  (* two runs of the same workload normalize identically *)
  let e2 = Engine.create ~backend:`Circuit q db in
  ignore (Engine.svc_all e2);
  Alcotest.(check string) "deterministic normalized JSON"
    (Stats.to_json s)
    (Stats.to_json (Stats.normalize (Engine.stats e2)));
  (* the JSON shape itself is a stable contract *)
  Alcotest.(check string) "JSON shape of Stats.zero"
    "{\"players\":0,\"compilations\":0,\"conditionings\":0,\"cache_hits\":0,\
     \"cache_misses\":0,\"cache_size\":0,\"cache_capacity\":0,\
     \"cache_drops\":0,\"poly_ops\":0,\
     \"compile_ms\":0.000,\"eval_ms\":0.000,\"backend\":\"conditioning\",\
     \"circuit_nodes\":0,\"circuit_edges\":0,\"circuit_smoothing\":0,\
     \"circuit_cache_hits\":0,\"circuit_cache_misses\":0,\
     \"circuit_cache_drops\":0,\"circuit_compile_ms\":0.000,\
     \"circuit_traverse_ms\":0.000,\"sample_strategy\":\"\",\
     \"sample_seed\":0,\"sample_draws\":0,\"sample_exact_strata\":0,\
     \"sample_sampled_strata\":0,\"sample_max_hw\":\"0\",\
     \"sample_epsilon\":\"0\",\"sample_confidence\":\"0\",\
     \"sample_converged\":false}"
    (Stats.to_json Stats.zero)

(* null players sit outside the circuit's variable set and still get
   Shapley value 0 through the padding path *)
let test_null_player () =
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ];
              fact "Z" [ "9" ] ]
      ~exo:[]
  in
  let e = Engine.create ~backend:`Circuit qrst db in
  check_rational "null player value" Rational.zero (Engine.svc e (fact "Z" [ "9" ]));
  Alcotest.check_raises "not endogenous"
    (Invalid_argument "Engine.svc: fact is not endogenous") (fun () ->
        ignore (Engine.svc e (fact "T" [ "9" ])))

(* degenerate lineages: constant-true and constant-false circuits *)
let test_constant_lineages () =
  let q = Query_parse.parse "R(?x)" in
  (* true lineage: an exogenous R fact satisfies the query outright *)
  let db_true =
    Database.make ~endo:[ fact "S" [ "1"; "2" ] ] ~exo:[ fact "R" [ "1" ] ]
  in
  (* false lineage: no R fact at all *)
  let db_false = Database.make ~endo:[ fact "S" [ "1"; "2" ] ] ~exo:[] in
  List.iter
    (fun db ->
       Alcotest.(check bool) "constant lineage agrees" true
         (values_equal (circuit_values q db) (Svc.svc_all_naive q db)))
    [ db_true; db_false ];
  let c = Circuit.compile Bform.True in
  (match Circuit.Check.check ~formula:Bform.True c with
   | Ok r -> Alcotest.(check int) "⊤ circuit is one node" 1 r.Circuit.Check.nodes_checked
   | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "⊤ mentions nothing" 0 (Fact.Set.cardinal (Circuit.vars c))

(* the workload runner accepts the backend and returns identical values *)
let test_workload_backend () =
  let w =
    Workload.make ~name:"circuit-test"
      ~cases:
        [ Workload.case ~name:"star" ~query_src:"R(?x), S(?x,?y)"
            ~db:(Gen.star ~spokes:3) ]
  in
  match (Workload.eval ~backend:`Circuit w, Workload.eval ~backend:`Conditioning w) with
  | [ rc ], [ rk ] ->
    Alcotest.(check bool) "same values" true
      (values_equal rc.Workload.values rk.Workload.values);
    Alcotest.(check string) "circuit stats backend" "circuit"
      rc.Workload.stats.Stats.backend
  | _ -> Alcotest.fail "expected one case result each"

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Check's max_vars guard refuses rather than silently skipping *)
let test_check_max_vars_guard () =
  let facts = List.init 10 (fun i -> fact "R" [ string_of_int i ]) in
  let phi = Bform.disj (List.map (fun f -> Bform.Fv f) facts) in
  let c = Circuit.compile phi in
  (match Circuit.Check.check ~max_vars:4 c with
   | Ok _ -> Alcotest.fail "expected Error from max_vars guard"
   | Error msg ->
     Alcotest.(check bool) "mentions the bound" true
       (contains_substring msg "10 > 4"));
  match Circuit.Check.check ~max_vars:10 c with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

let suite =
  [
    prop_circuit_vs_conditioning_vs_naive;
    prop_circuit_graph;
    prop_permutation_invariance;
    prop_relabel_exogenous;
    prop_duplicate_clause_idempotence;
    prop_check_invariants;
    prop_banzhaf_circuit;
    Alcotest.test_case "no per-fact conditioning" `Quick test_no_conditioning;
    Alcotest.test_case "auto backend selection" `Quick test_auto_selection;
    Alcotest.test_case "bounded circuit cache drops, never lies" `Quick
      test_bounded_circuit_cache;
    Alcotest.test_case "smoothing counted and verified" `Quick
      test_smoothing_counted;
    Alcotest.test_case "stats normalize + JSON shape" `Quick
      test_stats_normalize_and_json;
    Alcotest.test_case "null player via padding" `Quick test_null_player;
    Alcotest.test_case "constant lineages" `Quick test_constant_lineages;
    Alcotest.test_case "workload backend" `Quick test_workload_backend;
    Alcotest.test_case "Check max_vars guard" `Quick test_check_max_vars_guard;
  ]
