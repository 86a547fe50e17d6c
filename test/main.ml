(* Test runner: every module contributes an alcotest suite. *)

let () =
  Alcotest.run "shapley_counting"
    [
      ("bigint", Test_bigint.suite);
      ("rational", Test_rational.suite);
      ("poly", Test_poly.suite);
      ("linalg", Test_linalg.suite);
      ("relational", Test_relational.suite);
      ("homomorphism", Test_homomorphism.suite);
      ("min-supports", Test_minimal_supports.suite);
      ("automata", Test_automata.suite);
      ("cq", Test_cq.suite);
      ("graph-queries", Test_graph_queries.suite);
      ("query", Test_query.suite);
      ("lineage", Test_lineage.suite);
      ("counting", Test_counting.suite);
      ("safe-plan", Test_safe_plan.suite);
      ("lifted", Test_lifted.suite);
      ("game", Test_game.suite);
      ("svc", Test_svc.suite);
      ("engine", Test_engine.suite);
      ("circuit", Test_circuit.suite);
      ("plan", Test_plan.suite);
      ("sample", Test_sample.suite);
      ("telemetry", Test_telemetry.suite);
      ("reductions", Test_reductions.suite);
      ("fgmc-to-svc", Test_fgmc_to_svc.suite);
      ("variants", Test_variants.suite);
      ("dichotomy", Test_dichotomy.suite);
      ("shatter", Test_shatter.suite);
      ("gcq", Test_gcq.suite);
      ("half-prob", Test_half.suite);
      ("io", Test_io.suite);
      ("workload", Test_workload.suite);
      ("analysis", Test_analysis.suite);
      ("misc", Test_misc.suite);
      ("provenance", Test_provenance.suite);
      ("paper-lemmas", Test_paper_lemmas.suite);
      ("exhaustive", Test_exhaustive.suite);
      ("conformance", Test_conformance.suite);
      ("server", Test_server.suite);
    ]
