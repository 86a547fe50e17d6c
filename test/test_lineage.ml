open Test_util

(* The defining property: for every S ⊆ Dₙ,
   Bform.eval (lineage q db) S  ⇔  S ∪ Dₓ ⊨ q. *)
let lineage_correct q db =
  let phi = Lineage.lineage q db in
  Database.fold_endo_subsets
    (fun s acc ->
       acc && Bform.eval phi s = Query.eval q (Fact.Set.union s (Database.exo db)))
    db true

let test_bform_basics () =
  let a = Bform.fv (fact "R" [ "1" ]) and b = Bform.fv (fact "S" [ "2" ]) in
  Alcotest.(check bool) "conj fold true" true (Bform.conj [] = Bform.tru);
  Alcotest.(check bool) "disj fold false" true (Bform.disj [] = Bform.fls);
  Alcotest.(check bool) "conj false" true (Bform.conj [ a; Bform.fls ] = Bform.fls);
  Alcotest.(check bool) "disj true" true (Bform.disj [ a; Bform.tru ] = Bform.tru);
  Alcotest.(check bool) "neg neg" true (Bform.neg (Bform.neg a) = a);
  Alcotest.(check bool) "flattening" true
    (Bform.conj [ a; Bform.conj [ b ] ] = Bform.conj [ a; b ]);
  Alcotest.(check int) "vars" 2 (Fact.Set.cardinal (Bform.vars (Bform.conj [ a; b ])));
  Alcotest.(check bool) "eval" true
    (Bform.eval (Bform.disj [ a; b ]) (facts [ fact "S" [ "2" ] ]))

let test_bform_condition () =
  let f1 = fact "R" [ "1" ] and f2 = fact "S" [ "2" ] in
  let phi = Bform.conj [ Bform.fv f1; Bform.fv f2 ] in
  Alcotest.(check bool) "condition true" true
    (Bform.condition f1 true phi = Bform.fv f2);
  Alcotest.(check bool) "condition false" true (Bform.condition f1 false phi = Bform.fls);
  let neg = Bform.neg (Bform.fv f1) in
  Alcotest.(check bool) "condition under negation" true
    (Bform.condition f1 true neg = Bform.fls)

let test_lineage_cq () =
  let q = Query_parse.parse "R(?x), S(?x,?y)" in
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "S" [ "1"; "3" ] ]
      ~exo:[ fact "R" [ "4" ]; fact "S" [ "4"; "5" ] ]
  in
  Alcotest.(check bool) "lineage correct" true (lineage_correct q db);
  (* exogenous support makes the lineage trivially true *)
  let phi = Lineage.lineage q db in
  Alcotest.(check bool) "exo support ⇒ ⊤" true (phi = Bform.tru)

let test_lineage_rpq_supports () =
  let q = Rpq.of_string "AB*C" ~src:"s" ~dst:"t" in
  let g =
    facts
      [ fact "A" [ "s"; "1" ]; fact "B" [ "1"; "2" ]; fact "C" [ "2"; "t" ];
        fact "C" [ "1"; "t" ] ]
  in
  let ms = Lineage.rpq_minimal_supports q g in
  (* two minimal supports: A,C(1,t) and A,B,C(2,t) *)
  Alcotest.(check int) "two minimal supports" 2 (List.length ms);
  (* agreement with the generic enumeration *)
  let generic = Query.minimal_supports_in (Query.Rpq q) g in
  Alcotest.(check int) "generic agrees" (List.length generic) (List.length ms);
  List.iter
    (fun s ->
       Alcotest.(check bool) "generic contains" true
         (List.exists (Fact.Set.equal s) generic))
    ms

let test_lineage_rpq_cycles () =
  (* cyclic graph: walk enumeration must terminate *)
  let q = Rpq.of_string "A*" ~src:"s" ~dst:"t" in
  let g =
    facts
      [ fact "A" [ "s"; "1" ]; fact "A" [ "1"; "s" ]; fact "A" [ "1"; "t" ] ]
  in
  let ms = Lineage.rpq_minimal_supports q g in
  Alcotest.(check int) "single minimal path" 1 (List.length ms);
  Alcotest.(check int) "path length 2" 2 (Fact.Set.cardinal (List.hd ms))

let test_lineage_cqneg () =
  let q = Query_parse.parse "cqneg: R(?x), !S(?x)" in
  let db =
    Database.make ~endo:[ fact "R" [ "1" ]; fact "S" [ "1" ]; fact "R" [ "2" ] ] ~exo:[]
  in
  Alcotest.(check bool) "negation lineage" true (lineage_correct q db);
  (* exogenous negative fact kills a branch *)
  let db2 = Database.make ~endo:[ fact "R" [ "1" ] ] ~exo:[ fact "S" [ "1" ] ] in
  Alcotest.(check bool) "exo negation" true (lineage_correct q db2);
  let phi2 = Lineage.lineage q db2 in
  Alcotest.(check bool) "always false" true (phi2 = Bform.fls)

let test_compile_counts () =
  (* x ∨ y over universe {x, y, z}: models: sizes — enumerate by hand.
     satisfying: {x},{y},{x,y},{x,z},{y,z},{x,y,z} → poly: 2z + 3z² + z³ *)
  let x = fact "R" [ "x" ] and y = fact "R" [ "y" ] and z = fact "R" [ "z" ] in
  let phi = Bform.disj [ Bform.fv x; Bform.fv y ] in
  let p = Compile.size_polynomial ~universe:[ x; y; z ] phi in
  check_zpoly "or-count"
    (Poly.Z.of_coeffs (List.map Bigint.of_int [ 0; 2; 3; 1 ]))
    p;
  check_bigint "total" (Bigint.of_int 6) (Compile.count_models ~universe:[ x; y; z ] phi);
  (* constants *)
  check_bigint "⊤ counts all" (Bigint.of_int 8)
    (Compile.count_models ~universe:[ x; y; z ] Bform.tru);
  check_bigint "⊥ counts none" Bigint.zero
    (Compile.count_models ~universe:[ x; y; z ] Bform.fls);
  Alcotest.check_raises "foreign variable"
    (Invalid_argument "Compile: formula mentions a fact outside the universe") (fun () ->
        ignore (Compile.size_polynomial ~universe:[ x ] (Bform.fv y)))

let test_compile_negation () =
  let x = fact "R" [ "x" ] and y = fact "R" [ "y" ] in
  let phi = Bform.conj [ Bform.fv x; Bform.neg (Bform.fv y) ] in
  let p = Compile.size_polynomial ~universe:[ x; y ] phi in
  check_zpoly "x ∧ ¬y" (Poly.Z.of_coeffs [ Bigint.zero; Bigint.one ]) p

let test_compile_naive_agrees () =
  let vars = List.init 6 (fun i -> fact "V" [ string_of_int i ]) in
  let nth i = Bform.fv (List.nth vars i) in
  let phi =
    Bform.disj
      [ Bform.conj [ nth 0; nth 1 ]; Bform.conj [ nth 2; nth 3 ];
        Bform.conj [ nth 1; nth 4; Bform.neg (nth 5) ] ]
  in
  check_zpoly "memo = naive"
    (Compile.size_polynomial_naive ~universe:vars phi)
    (Compile.size_polynomial ~universe:vars phi)

let test_probability () =
  let x = fact "R" [ "x" ] and y = fact "R" [ "y" ] in
  let phi = Bform.disj [ Bform.fv x; Bform.fv y ] in
  let prob f = if Fact.equal f x then Rational.of_ints 1 2 else Rational.of_ints 1 3 in
  (* 1 - (1/2)(2/3) = 2/3 *)
  check_rational "or probability" (Rational.of_ints 2 3) (Compile.probability ~prob phi);
  check_rational "naive agrees" (Compile.probability_naive ~prob phi)
    (Compile.probability ~prob phi);
  check_rational "⊤" Rational.one (Compile.probability ~prob Bform.tru)

(* The decisive property test: lineage+compile vs brute force on random
   instances of several query classes. *)
let prop_lineage_random q_str rels =
  qcheck ~count:40 ("lineage correct: " ^ q_str) QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let r = Workload.rng seed in
       let db =
         Workload.random_database r ~rels ~consts:[ "s"; "t"; "1"; "2"; "a" ]
           ~n_endo:(3 + Workload.int r 4) ~n_exo:(Workload.int r 3)
       in
       lineage_correct (Query_parse.parse q_str) db)

(* padding-polynomial memoization is referentially transparent *)
let prop_one_plus_z_pow_transparent =
  qcheck ~count:100 "one_plus_z_pow k = (1+z)^k, stable across calls"
    QCheck2.Gen.(int_range 0 60)
    (fun k ->
       let expected =
         Poly.Z.of_coeffs (Array.to_list (Bigint.binomial_row k))
       in
       Poly.Z.equal expected (Compile.one_plus_z_pow k)
       && Poly.Z.equal (Compile.one_plus_z_pow k) (Compile.one_plus_z_pow k))

let suite =
  [
    Alcotest.test_case "bform basics" `Quick test_bform_basics;
    Alcotest.test_case "bform conditioning" `Quick test_bform_condition;
    Alcotest.test_case "CQ lineage" `Quick test_lineage_cq;
    Alcotest.test_case "RPQ minimal supports" `Quick test_lineage_rpq_supports;
    Alcotest.test_case "RPQ supports with cycles" `Quick test_lineage_rpq_cycles;
    Alcotest.test_case "CQ¬ lineage" `Quick test_lineage_cqneg;
    Alcotest.test_case "size polynomial" `Quick test_compile_counts;
    Alcotest.test_case "negated counting" `Quick test_compile_negation;
    Alcotest.test_case "naive = memoized" `Quick test_compile_naive_agrees;
    Alcotest.test_case "weighted probability" `Quick test_probability;
    prop_lineage_random "R(?x), S(?x,?y), T(?y)" [ ("R", 1); ("S", 2); ("T", 1) ];
    prop_lineage_random "ucq: R(?x,?y) | S(?y)" [ ("R", 2); ("S", 1) ];
    prop_lineage_random "rpq: (AB*C)(s,t)" [ ("A", 2); ("B", 2); ("C", 2) ];
    prop_lineage_random "crpq: (AB+BA)(?x,a)" [ ("A", 2); ("B", 2) ];
    prop_lineage_random "cqneg: R(?x), S(?x,?y), !T(?y)" [ ("R", 1); ("S", 2); ("T", 1) ];
    prop_one_plus_z_pow_transparent;
  ]
