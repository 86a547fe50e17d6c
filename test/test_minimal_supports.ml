(* Differential tests: minimal-support enumeration (argument index, hashed
   image dedup, rarest-fact minimality filter) against the quadratic
   reference implementations it replaced.  Every comparison is list for
   list, so the output order is pinned along with the values. *)

open Test_util

let same_sets a b = List.length a = List.length b && List.for_all2 Fact.Set.equal a b

(* The valuations of a search, in enumeration order. *)
let valuations iter ~ordering ~into atoms =
  let out = ref [] in
  iter ?ordering:(Some ordering) ~into ?binding:None atoms (fun s -> out := s :: !out);
  List.rev !out

let same_search ~into atoms =
  List.for_all
    (fun ordering ->
       List.equal (Term.Smap.equal String.equal)
         (valuations Homomorphism.iter_valuations ~ordering ~into atoms)
         (valuations Homomorphism.For_tests.iter_valuations ~ordering ~into atoms))
    [ Homomorphism.Fail_first; Homomorphism.Syntactic ]

let same_cq_supports ~into atoms =
  same_search ~into atoms
  && same_sets (Homomorphism.all_images ~into atoms)
       (Homomorphism.For_tests.all_images ~into atoms)
  && same_sets (Homomorphism.minimal_images ~into atoms)
       (Homomorphism.For_tests.minimal_images ~into atoms)

let atoms_of s = Cq.atoms (Cq.parse s)

(* Self-joins whose valuations collapse atoms onto one fact, so that one
   image strictly contains another; some pin constants. *)
let self_joins =
  List.map atoms_of
    [ "R(?x,?y), R(?y,?z)"; "R(?x,?y), R(?y,?x)"; "R(?x,?y), R(?y,?z), R(?z,?x)";
      "R(?x,?x), R(?x,?y)"; "R(?x,?y), R(?y,?z), S(?z)"; "R(1,?y), R(?y,?z)";
      "R(?x,?y), R(?y,2), S(?x)" ]

let prop_self_joins =
  qcheck ~count:150 "collapsing self-joins: CQ supports = reference" Gen.seed_gen
    (fun seed ->
       let r = Workload.rng seed in
       let atoms = Workload.pick r self_joins in
       let into =
         Database.all
           (Workload.random_database r ~rels:[ ("R", 2); ("S", 1) ]
              ~consts:[ "1"; "2"; "3"; "4" ]
              ~n_endo:(1 + Workload.int r 14) ~n_exo:(Workload.int r 3))
       in
       same_cq_supports ~into atoms)

(* A star: one hub fact R(h) shared by every image of R(x), S(x,y), plus
   random noise around it.  The two-spoke queries add images that strictly
   contain one-spoke ones. *)
let star_queries =
  List.map atoms_of
    [ "R(?x), S(?x,?y)"; "R(?x), S(?x,?y), S(?x,?z)"; "S(?x,?y), R(?x), T(?y)" ]

let prop_star_hub =
  qcheck ~count:100 "shared hub fact: CQ supports = reference" Gen.seed_gen
    (fun seed ->
       let r = Workload.rng seed in
       let atoms = Workload.pick r star_queries in
       let spokes = 1 + Workload.int r 12 in
       let hub = [ fact "R" [ "h" ] ] in
       let arms =
         List.init spokes (fun i -> fact "S" [ "h"; Printf.sprintf "y%d" i ])
       in
       let noise =
         Database.all
           (Workload.random_database r ~rels:[ ("R", 1); ("S", 2); ("T", 1) ]
              ~consts:[ "h"; "y0"; "y1"; "y2" ]
              ~n_endo:(Workload.int r 6 + 1) ~n_exo:0)
       in
       same_cq_supports ~into:(Fact.Set.union noise (facts (hub @ arms))) atoms)

(* Disjuncts of different sizes, so one disjunct's images can strictly
   contain another's. *)
let disjunct_pool =
  List.map Cq.parse
    [ "R(?x)"; "S(?x,?y), T(?y)"; "R(?x), S(?x,?y), T(?y)"; "S(?x,?x)";
      "S(?x,?y), S(?y,?z)"; "R(1)"; "T(?x), S(?x,?y)"; "R(?x), S(?x,2)" ]

let prop_ucq_mixed_sizes =
  qcheck ~count:150 "UCQ with mixed-size disjuncts: supports = reference" Gen.seed_gen
    (fun seed ->
       let r = Workload.rng seed in
       let q =
         Ucq.of_cqs (List.init (1 + Workload.int r 3) (fun _ -> Workload.pick r disjunct_pool))
       in
       let into =
         Database.all
           (Workload.random_database r ~rels:Gen.default_rels
              ~consts:[ "1"; "2"; "3" ]
              ~n_endo:(1 + Workload.int r 10) ~n_exo:(Workload.int r 3))
       in
       same_sets (Ucq.minimal_supports_in q into) (Ucq.For_tests.minimal_supports_in q into))

(* Nullable languages with [src = dst] short-circuit to the empty support;
   the others walk the graph, cycles included. *)
let rpqs =
  [ Rpq.of_string "A*" ~src:"s" ~dst:"s"; Rpq.of_string "(A+B)*" ~src:"1" ~dst:"1";
    Rpq.of_string "AA*" ~src:"s" ~dst:"s"; Rpq.of_string "A*" ~src:"s" ~dst:"t";
    Rpq.of_string "AB+A" ~src:"s" ~dst:"t"; Rpq.of_string "AB*" ~src:"s" ~dst:"t";
    Rpq.of_string "(AB)*" ~src:"s" ~dst:"2" ]

let prop_rpq =
  qcheck ~count:150 "RPQ walk supports (nullable, src = dst included) = reference"
    Gen.seed_gen (fun seed ->
        let r = Workload.rng seed in
        let q = Workload.pick r rpqs in
        let into =
          Database.all
            (Workload.random_graph r ~labels:[ "A"; "B" ] ~nodes:[ "s"; "1"; "2"; "t" ]
               ~n_endo:(1 + Workload.int r 9) ~n_exo:(Workload.int r 3))
        in
        same_sets (Lineage.rpq_minimal_supports q into)
          (Lineage.For_tests.rpq_minimal_supports q into))

(* [minimal_sets] on raw lists with duplicates and the empty set, against
   the textbook definition. *)
let naive_minimal_sets sets =
  let distinct =
    List.rev
      (List.fold_left
         (fun acc s -> if List.exists (Fact.Set.equal s) acc then acc else s :: acc)
         [] sets)
  in
  List.filter
    (fun s ->
       not (List.exists (fun o -> Fact.Set.subset o s && not (Fact.Set.equal o s)) distinct))
    distinct

let prop_minimal_sets =
  qcheck ~count:100 "minimal_sets = first-occurrence dedup + all-pairs filter"
    Gen.seed_gen (fun seed ->
        let r = Workload.rng seed in
        let pool = List.init 6 (fun i -> fact "R" [ string_of_int i ]) in
        let sets =
          List.init (Workload.int r 12) (fun _ ->
              facts (List.filter (fun _ -> Workload.int r 3 = 0) pool))
        in
        same_sets (Homomorphism.minimal_sets sets) (naive_minimal_sets sets))

(* Constants in atoms and bound variables both pin argument positions, so
   these searches go through the per-position buckets. *)
let test_constants_in_atoms () =
  let into =
    facts
      ([ fact "R" [ "a"; "1" ]; fact "R" [ "a"; "2" ]; fact "R" [ "b"; "1" ];
         fact "S" [ "1"; "c" ]; fact "S" [ "2"; "c" ]; fact "S" [ "2"; "d" ];
         fact "S" [ "2"; "2" ]; fact "R" [ "a" ] ]
       @ List.init 20 (fun i -> fact "S" [ Printf.sprintf "n%d" i; "c" ]))
  in
  let xs atoms =
    let out = ref [] in
    Homomorphism.iter_valuations ~into (atoms_of atoms) (fun s ->
        out := Term.Smap.find "x" s :: !out);
    List.sort compare !out
  in
  Alcotest.(check (list string)) "R(a,x), S(x,c)" [ "1"; "2" ] (xs "R(a,?x), S(?x,c)");
  Alcotest.(check (list string)) "R(a,x), S(x,d)" [ "2" ] (xs "R(a,?x), S(?x,d)");
  Alcotest.(check (list string)) "R(a,x), S(x,x)" [ "2" ] (xs "R(a,?x), S(?x,?x)");
  Alcotest.(check (list string)) "no fact pins R(c,x)" [] (xs "R(c,?x), S(?x,c)");
  Alcotest.(check (list string)) "arity splits R" [] (xs "R(a), R(?x,b)");
  List.iter
    (fun q ->
       Alcotest.(check bool) (q ^ " = reference") true (same_cq_supports ~into (atoms_of q)))
    [ "R(a,?x), S(?x,c)"; "R(?x,?y), S(?y,c)"; "S(?x,c), S(?y,c)"; "R(a), R(a,?x), S(?x,?y)" ]

let suite =
  [
    Alcotest.test_case "constants in atoms" `Quick test_constants_in_atoms;
    prop_self_joins;
    prop_star_hub;
    prop_ucq_mixed_sizes;
    prop_rpq;
    prop_minimal_sets;
  ]
