(* Static analyzer: golden table of diagnostic codes, certificate
   verification (every certificate re-checked by the independent
   Certcheck), and the "clean analysis ⇒ SVC runs" property. *)

open Test_util

let codes ds = List.map (fun d -> d.Diagnostic.code) ds

let certs_ok ?query ?database ?db_source name ds =
  Alcotest.(check bool)
    (name ^ ": certificates verify")
    true
    (Certcheck.check_all ?query ?database ?db_source ds)

(* One scenario per diagnostic code; returns the codes it produced after
   checking all its certificates. *)
let query_scenario src =
  let q, ds = Analyze.query_src src in
  (match q with Some q -> certs_ok ~query:q src ds | None -> ());
  codes ds

let db_scenario text =
  let db, ds = Analyze.database_src text in
  (match db with
   | Some db -> certs_ok ~database:db ~db_source:text text ds
   | None -> certs_ok ~db_source:text text ds);
  codes ds

let pair_scenario qsrc db =
  let q = Query_parse.parse qsrc in
  let ds = Analyze.pair q db in
  certs_ok ~query:q ~database:db qsrc ds;
  codes ds

let db_of text =
  match Analyze.database_src text with
  | Some db, _ -> db
  | None, _ -> Alcotest.fail "scenario database did not parse"

let test_golden_code_table () =
  let big_db = Workload.rst_gadget ~rows:5 ~extra_exo:false () in
  let scenarios =
    [ ("Q001", query_scenario "R(?x");
      ("Q002", query_scenario "zzz: R(?x)");
      ("Q003", query_scenario "R(?x), S(?x,?y), T(?y)");
      ("Q003", query_scenario "cqneg: R(?x), S(?x,?y), !T(?y)");
      ("Q004", query_scenario "rpq: (A B C)(s,t)");
      ("Q005", query_scenario "crpq: (A~)(?x,?y)");
      ("Q006", query_scenario "R(?x,?y), R(?x,?z)");
      ("Q007", query_scenario "R(?x,?y), R(?x,?z)");
      ("Q008", query_scenario "ucq: R(?x,?y) | R(?u,?v), S(?u)");
      ("Q009", query_scenario "R(?x), S(?y)");
      ("D101", db_scenario "endo R(a)\njunk line\n");
      ("D102", db_scenario "endo R(a)\nendo R(a,b)\n");
      ("D103", db_scenario "endo R(a)\nexo R(a)\n");
      ("D104", db_scenario "endo R(a)\nendo R(a)\n");
      ("X201", pair_scenario "R(?x), T(?x)" (db_of "endo R(a)\n"));
      ("X202", pair_scenario "R(?x,?y)" (db_of "endo R(a)\n"));
      ("X203", pair_scenario "R(?x), S(?x,?y), T(?y)" big_db);
      ( "W301",
        let w =
          Workload.parse
            "case a\nquery R(?x)\nendo R(1)\ncase a\nquery R(?x)\nendo R(1)\n"
        in
        codes (Analyze.workload w) );
      ("W302", codes (Analyze.workload (Workload.make ~name:"empty" ~cases:[])));
      ("W303", codes (snd (Analyze.workload_src "bogus line\n"))) ]
  in
  List.iter
    (fun (code, produced) ->
       Alcotest.(check bool)
         (Printf.sprintf "%s produced (got %s)" code (String.concat "," produced))
         true (List.mem code produced))
    scenarios;
  let observed =
    List.sort_uniq String.compare (List.concat_map snd scenarios)
  in
  Alcotest.(check (list string)) "exactly the documented codes"
    [ "D101"; "D102"; "D103"; "D104"; "Q001"; "Q002"; "Q003"; "Q004"; "Q005";
      "Q006"; "Q007"; "Q008"; "Q009"; "W301"; "W302"; "W303"; "X201"; "X202";
      "X203" ]
    observed

let test_severities_and_gate () =
  let _, err = Analyze.query_src "zzz: R(?x)" in
  let warn = Analyze.query (Query_parse.parse "R(?x), S(?x,?y), T(?y)") in
  let hints = Analyze.query (Query_parse.parse "R(?x), S(?y)") in
  Alcotest.(check bool) "error gates" true (Diagnostic.gate ~strict:false err);
  Alcotest.(check bool) "warning passes lax" false (Diagnostic.gate ~strict:false warn);
  Alcotest.(check bool) "warning gates strict" true (Diagnostic.gate ~strict:true warn);
  Alcotest.(check bool) "hint never gates" false (Diagnostic.gate ~strict:true hints);
  Alcotest.(check int) "one error" 1 (Diagnostic.count Diagnostic.Error err);
  Alcotest.(check (option string)) "max severity" (Some "warning")
    (Option.map Diagnostic.severity_to_string (Diagnostic.max_severity warn))

let test_checker_rejects_forgeries () =
  (* a certificate transplanted onto the wrong query must be rejected *)
  let hard = Query_parse.parse "R(?x), S(?x,?y), T(?y)" in
  let easy = Query_parse.parse "R(?x), S(?x,?y)" in
  let ds = Analyze.query hard in
  let q003 = List.find (fun d -> d.Diagnostic.code = "Q003") ds in
  Alcotest.(check bool) "valid on its query" true (Certcheck.check ~query:hard q003);
  Alcotest.(check bool) "rejected on a hierarchical query" false
    (Certcheck.check ~query:easy q003);
  (* a tampered hard word must be rejected *)
  let rpq = Query_parse.parse "rpq: (A B C)(s,t)" in
  let forged =
    Diagnostic.warning "Q004"
      ~certificate:(Diagnostic.Hard_word [ "A"; "B"; "Z" ])
      "forged"
  in
  Alcotest.(check bool) "forged word rejected" false (Certcheck.check ~query:rpq forged);
  (* a component split that shares a variable must be rejected *)
  let forged_split =
    Diagnostic.hint "Q009"
      ~certificate:
        (Diagnostic.Component_split
           ( [ Atom.make "R" [ Term.var "x" ] ],
             [ Atom.make "S" [ Term.var "x"; Term.var "y" ] ] ))
      "forged"
  in
  Alcotest.(check bool) "connected split rejected" false
    (Certcheck.check ~query:easy forged_split);
  (* a blowup certificate with a forged plan width must be rejected *)
  let big_db = Workload.rst_gadget ~rows:5 ~extra_exo:false () in
  let ds = Analyze.pair hard big_db in
  let x203 = List.find (fun d -> d.Diagnostic.code = "X203") ds in
  (* the planner's node count is an estimate, and the message says so *)
  let plan = Plan.analyze (Lineage.lineage hard big_db) in
  let n = Database.size_endo big_db in
  Alcotest.(check string) "X203 wording"
    (Printf.sprintf
       "query is #P-hard and the database has %d endogenous \
        facts: exact computation may take 2^%d query evaluations; the \
        compilation plan has induced width %d and predicts ~%d circuit nodes"
       n n plan.Plan.max_width plan.Plan.predicted_nodes)
    x203.Diagnostic.message;
  Alcotest.(check bool) "honest plan width verifies" true
    (Certcheck.check ~query:hard ~database:big_db x203);
  (match x203.Diagnostic.certificate with
   | Some (Diagnostic.Blowup b) ->
     Alcotest.(check bool) "X203 carries a plan width" true
       (b.plan_width <> None);
     let forged_width =
       { x203 with
         Diagnostic.certificate =
           Some
             (Diagnostic.Blowup
                { b with plan_width = Some (Option.get b.plan_width + 1) });
       }
     in
     Alcotest.(check bool) "forged plan width rejected" false
       (Certcheck.check ~query:hard ~database:big_db forged_width)
   | _ -> Alcotest.fail "X203 carries no blowup certificate")

let test_empty_proofs () =
  let check_re s expect =
    let re = Regex.parse s in
    match Analyze.empty_proof_of re with
    | Some p ->
      Alcotest.(check bool) (s ^ " expected empty") true expect;
      Alcotest.(check bool) (s ^ " proof replays") true (Certcheck.check_empty_proof re p)
    | None -> Alcotest.(check bool) (s ^ " expected nonempty") false expect
  in
  check_re "~" true;
  check_re "A~" true;
  check_re "~+~" true;
  check_re "A" false;
  check_re "~*" false;  (* ∅* = {ε} *)
  check_re "A+~" false

let test_svc_debug_gate () =
  let db = db_of "endo R(a)\nendo R(a,b)\n" in
  let q = Query_parse.parse "R(?x)" in
  Unix.putenv "SVC_DEBUG" "1";
  let raised =
    match Svc.svc_all q db with
    | _ -> false
    | exception Invalid_argument msg ->
      (* the rendered diagnostics must name the offending code *)
      let rec contains i =
        i + 4 <= String.length msg && (String.sub msg i 4 = "D102" || contains (i + 1))
      in
      contains 0
  in
  Unix.putenv "SVC_DEBUG" "";
  Alcotest.(check bool) "SVC_DEBUG refuses an arity-conflicted database" true raised;
  (* with the variable unset the same call goes through *)
  Alcotest.(check int) "gate off: svc_all runs" 2 (List.length (Svc.svc_all q db))

(* ---------------- properties ---------------- *)

let gen_cq =
  let open QCheck2.Gen in
  let term =
    frequency
      [ (4, map Term.var (oneofl [ "x"; "y"; "z"; "w" ]));
        (1, map Term.const (oneofl [ "a"; "b" ])) ]
  in
  let atom =
    oneofl [ ("R", 1); ("S", 2); ("T", 1); ("U", 2); ("V", 3) ]
    >>= fun (r, k) -> map (Atom.make r) (list_repeat k term)
  in
  map Cq.of_atoms (list_size (int_range 1 4) atom)

let prop_query_certificates_verify =
  qcheck ~count:300 "every query certificate re-verifies" gen_cq (fun cq ->
      let q = Query.Cq cq in
      Certcheck.check_all ~query:q (Analyze.query q))

let prop_hierarchical_certificate_complete =
  qcheck ~count:300 "non-hierarchical ⇔ valid violation certificate" gen_cq
    (fun cq ->
       match Hierarchical.certificate cq with
       | None -> Cq.is_hierarchical cq
       | Some v ->
         (not (Cq.is_hierarchical cq))
         && Hierarchical.check_violation (Cq.atoms cq) v)

let test_clean_analysis_never_raises () =
  let queries =
    List.map Query_parse.parse
      [ "R(?x), S(?x,?y)";
        "R(?x), S(?x,?y), T(?y)";
        "ucq: R(?x) | S(?x,?y), T(?y)";
        "cqneg: S(?x,?y), !T(?y)";
        "rpq: (S T*)(a,b)";
        "true" ]
  in
  let dbs =
    random_dbs ~seed:20240806 ~rounds:10
      ~rels:[ ("R", 1); ("S", 2); ("T", 1) ]
      ~consts:[ "a"; "b"; "c" ] ~n_endo:5 ~n_exo:2
  in
  List.iter
    (fun q ->
       List.iter
         (fun db ->
            let ds = Analyze.query q @ Analyze.database db @ Analyze.pair q db in
            if Diagnostic.count Diagnostic.Error ds = 0 then
              match Svc.svc_all q db with
              | values ->
                Alcotest.(check int)
                  "one value per endogenous fact" (Database.size_endo db)
                  (List.length values)
              | exception e ->
                Alcotest.failf "clean pair but svc_all raised %s on %s"
                  (Printexc.to_string e) (Query.to_string q))
         dbs)
    queries

let suite =
  [ Alcotest.test_case "golden diagnostic-code table" `Quick test_golden_code_table;
    Alcotest.test_case "severities and gating" `Quick test_severities_and_gate;
    Alcotest.test_case "checker rejects forgeries" `Quick test_checker_rejects_forgeries;
    Alcotest.test_case "regex emptiness proofs" `Quick test_empty_proofs;
    Alcotest.test_case "SVC_DEBUG analysis gate" `Quick test_svc_debug_gate;
    prop_query_certificates_verify;
    prop_hierarchical_certificate_complete;
    Alcotest.test_case "clean analysis ⇒ svc_all runs" `Quick
      test_clean_analysis_never_raises ]
