(* Static analysis passes over queries, databases and workloads.

   Every pass returns structured {!Diagnostic.t} values; certificates are
   produced here and re-verified independently by {!Certcheck} (and by the
   test suite), so no diagnostic has to be taken on trust. *)

open Diagnostic

(* ------------------------------------------------------------------ *)
(* Regex emptiness proofs                                              *)
(* ------------------------------------------------------------------ *)

let rec empty_proof_of (re : Regex.t) : empty_proof option =
  match re with
  | Regex.Empty -> Some Prim_empty
  | Regex.Eps | Regex.Sym _ | Regex.Star _ -> None
  | Regex.Seq (a, b) ->
    (match empty_proof_of a with
     | Some p -> Some (Seq_left p)
     | None ->
       (match empty_proof_of b with
        | Some p -> Some (Seq_right p)
        | None -> None))
  | Regex.Alt (a, b) ->
    (match (empty_proof_of a, empty_proof_of b) with
     | Some p, Some q -> Some (Alt_both (p, q))
     | _ -> None)

(* ------------------------------------------------------------------ *)
(* CQ-level passes                                                     *)
(* ------------------------------------------------------------------ *)

(* A homomorphism q → q' (fixing constants), as a substitution on the
   variables of q whose image atoms all belong to q'. *)
let cq_hom_into (q : Cq.t) (q' : Cq.t) : (string * Term.t) list option =
  let canon, valuation = Cq.canonical_support ~prefix:"h" q' in
  match Homomorphism.find_valuation ~into:canon (Cq.atoms q) with
  | None -> None
  | Some subst ->
    (* un-canonize: constants that are images of q''s variables map back *)
    let back =
      Term.Smap.fold
        (fun v c acc -> Term.Smap.add c (Term.var v) acc)
        valuation Term.Smap.empty
    in
    Some
      (Term.Smap.fold
         (fun v c acc ->
            let t =
              match Term.Smap.find_opt c back with
              | Some t -> t
              | None -> Term.const c
            in
            (v, t) :: acc)
         subst []
       |> List.rev)

let self_join_pair (q : Cq.t) =
  let rec find = function
    | [] -> None
    | a :: rest ->
      (match List.find_opt (fun b -> Atom.rel a = Atom.rel b) rest with
       | Some b -> Some (a, b)
       | None -> find rest)
  in
  find (Cq.atoms q)

let subsumed_atoms (q : Cq.t) =
  let atoms = Cq.atoms q in
  if List.length atoms < 2 then []
  else
    List.filter_map
      (fun a ->
         let rest = List.filter (fun b -> not (Atom.equal a b)) atoms in
         match cq_hom_into q (Cq.of_atoms rest) with
         | Some hom -> Some (a, hom)
         | None -> None)
      atoms

let cq_atom_diags (q : Cq.t) =
  (* Q006: redundant atoms, certified by a homomorphism into the rest *)
  List.map
    (fun (a, hom) ->
       warning "Q006"
         ~certificate:(Subsumed_atom (a, hom))
         (Printf.sprintf
            "atom %s is redundant: the query without it is equivalent"
            (Atom.to_string a)))
    (subsumed_atoms q)

let cq_diags (q : Cq.t) =
  let hier =
    if Cq.is_self_join_free q then
      match Hierarchical.certificate q with
      | Some v ->
        [ warning "Q003"
            ~certificate:(Non_hierarchical v)
            "self-join-free CQ is not hierarchical: SVC is #P-hard \
             (Corollary 4.5)" ]
      | None -> []
    else
      match self_join_pair q with
      | Some (a, b) ->
        [ hint "Q007"
            ~certificate:(Self_join_pair (a, b))
            "CQ has a self-join: outside the hierarchical dichotomy, \
             complexity unknown" ]
      | None -> []
  in
  let disconnected =
    match Incidence.components (Cq.atoms q) with
    | [] | [ _ ] -> []
    | c1 :: rest ->
      [ hint "Q009"
          ~certificate:(Component_split (c1, List.concat rest))
          "CQ is a cartesian product of independent components" ]
  in
  hier @ cq_atom_diags q @ disconnected

let ucq_diags (u : Ucq.t) =
  let disjuncts = Array.of_list (Ucq.disjuncts u) in
  let n = Array.length disjuncts in
  let dropped = Array.make n false in
  let out = ref [] in
  for j = 0 to n - 1 do
    for i = 0 to n - 1 do
      (* disjunct j is redundant when some other disjunct i maps into it *)
      if i <> j && (not dropped.(j)) && not dropped.(i) then
        match cq_hom_into disjuncts.(i) disjuncts.(j) with
        | Some hom ->
          dropped.(j) <- true;
          out :=
            hint "Q008"
              ~certificate:
                (Subsumed_disjunct { kept = disjuncts.(i); dropped = disjuncts.(j); hom })
              (Printf.sprintf "disjunct %s is absorbed by disjunct %s"
                 (Cq.to_string disjuncts.(j)) (Cq.to_string disjuncts.(i)))
            :: !out
        | None -> ()
    done
  done;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Graph-query passes                                                  *)
(* ------------------------------------------------------------------ *)

let dead_lang_diag ?(severity = Diagnostic.Error) (re : Regex.t) context =
  match empty_proof_of re with
  | Some proof ->
    [ make ~code:"Q005" ~severity
        ~certificate:(Dead_language (re, proof))
        (Printf.sprintf "%s: the path language %s is empty" context (Regex.to_string re)) ]
  | None -> []

let rpq_diags (r : Rpq.t) =
  let lang = Rpq.lang r in
  match dead_lang_diag lang "dead RPQ" with
  | _ :: _ as ds -> ds
  | [] ->
    (match Words.some_word_of_length_geq lang 3 with
     | Some w ->
       [ warning "Q004"
           ~certificate:(Hard_word w)
           "RPQ language contains a word of length ≥ 3: SVC is #P-hard \
            (Corollary 4.3)" ]
     | None -> [])

let patom_to_string (a : Crpq.path_atom) =
  Printf.sprintf "%s(%s,%s)" (Regex.to_string a.Crpq.lang)
    (Term.to_string a.Crpq.psrc) (Term.to_string a.Crpq.pdst)

let crpq_diags (c : Crpq.t) =
  List.concat_map
    (fun (a : Crpq.path_atom) ->
       dead_lang_diag a.Crpq.lang
         (Printf.sprintf "dead conjunct %s" (patom_to_string a)))
    (Crpq.path_atoms c)

let ucrpq_diags (u : Ucrpq.t) =
  (* a single dead disjunct is harmless; the union is dead only when every
     disjunct contains a dead path atom *)
  let dead_atom c =
    List.find_opt
      (fun (a : Crpq.path_atom) -> empty_proof_of a.Crpq.lang <> None)
      (Crpq.path_atoms c)
  in
  let deads = List.map dead_atom (Ucrpq.disjuncts u) in
  if List.for_all Option.is_some deads then
    match deads with
    | Some (a : Crpq.path_atom) :: _ ->
      dead_lang_diag a.Crpq.lang "dead UCRPQ: every disjunct has a dead conjunct"
    | _ -> []
  else []

let cqneg_diags (c : Cqneg.t) =
  if Cqneg.is_self_join_free c then
    match Hierarchical.certificate_cqneg c with
    | Some v ->
      [ warning "Q003"
          ~certificate:(Non_hierarchical v)
          "self-join-free CQ¬ is not hierarchical: SVC is #P-hard \
           ([12, Thm 3.1])" ]
    | None -> []
  else []

(* ------------------------------------------------------------------ *)
(* Query entry points                                                  *)
(* ------------------------------------------------------------------ *)

let rec query (q : Query.t) : Diagnostic.t list =
  let ds =
    match q with
    | Query.True -> []
    | Query.Cq c -> cq_diags c
    | Query.Ucq u -> ucq_diags u
    | Query.Rpq r -> rpq_diags r
    | Query.Crpq c -> crpq_diags c
    | Query.Ucrpq u -> ucrpq_diags u
    | Query.Cqneg c -> cqneg_diags c
    | Query.Gcq _ -> []
    | Query.And (a, b) | Query.Or (a, b) -> query a @ query b
  in
  Diagnostic.sort ds

let query_src (s : string) : Query.t option * Diagnostic.t list =
  match Query_parse.parse_result s with
  | Ok q -> (Some q, query q)
  | Error d ->
    ( None,
      [ error d.Query_parse.code
          ~span:(span_of_parse d)
          (Query_parse.diagnostic_to_string d) ] )

(* ------------------------------------------------------------------ *)
(* Database passes                                                     *)
(* ------------------------------------------------------------------ *)

let arity_conflict_diags facts =
  let _, conflicts = Schema.infer facts in
  List.map
    (fun (c : Schema.conflict) ->
       error "D102"
         ~certificate:(Arity_conflict (c.Schema.witness1, c.Schema.witness2))
         (Printf.sprintf "relation %s is used at two different arities" c.Schema.rel))
    conflicts

let database (db : Database.t) : Diagnostic.t list =
  Diagnostic.sort (arity_conflict_diags (Database.all db))

let database_src (text : string) : Database.t option * Diagnostic.t list =
  let diags = ref [] in
  let seen : (string * Fact.t, int) Hashtbl.t = Hashtbl.create 16 in
  let endo = ref Fact.Set.empty and exo = ref Fact.Set.empty in
  let overlap = ref false in
  let add d = diags := d :: !diags in
  List.iteri
    (fun i raw ->
       let lineno = i + 1 in
       let line =
         match String.index_opt raw '#' with
         | Some j -> String.sub raw 0 j
         | None -> raw
       in
       let trimmed = String.trim line in
       if trimmed <> "" then begin
         let sep =
           let n = String.length trimmed in
           let rec find k =
             if k >= n then None
             else if trimmed.[k] = ' ' || trimmed.[k] = '\t' then Some k
             else find (k + 1)
           in
           find 0
         in
         let span = span_of_line ~len:(String.length trimmed) lineno in
         match sep with
         | None ->
           add (error "D101" ~span "expected 'endo FACT' or 'exo FACT'")
         | Some k ->
           let tag = String.sub trimmed 0 k in
           let rest = String.sub trimmed k (String.length trimmed - k) in
           if tag <> "endo" && tag <> "exo" then
             add
               (error "D101" ~span
                  (Printf.sprintf "unknown part tag %S (expected 'endo' or 'exo')" tag))
           else begin
             match Db_text.parse_fact rest with
             | exception Invalid_argument msg -> add (error "D101" ~span msg)
             | f ->
               (match Hashtbl.find_opt seen (tag, f) with
                | Some l1 ->
                  add
                    (hint "D104" ~span
                       ~certificate:(Duplicate_fact (f, l1, lineno))
                       (Printf.sprintf "duplicate %s fact %s (first on line %d)" tag
                          (Fact.to_string f) l1))
                | None -> Hashtbl.add seen (tag, f) lineno);
               let other = if tag = "endo" then "exo" else "endo" in
               if Hashtbl.mem seen (other, f) then begin
                 overlap := true;
                 add
                   (error "D103" ~span
                      ~certificate:(Part_overlap f)
                      (Printf.sprintf "fact %s is declared both endogenous and exogenous"
                         (Fact.to_string f)))
               end;
               if tag = "endo" then endo := Fact.Set.add f !endo
               else exo := Fact.Set.add f !exo
           end
       end)
    (String.split_on_char '\n' text);
  let all = Fact.Set.union !endo !exo in
  let diags = arity_conflict_diags all @ !diags in
  let db =
    if !overlap then None else Some (Database.of_sets ~endo:!endo ~exo:!exo)
  in
  (db, Diagnostic.sort diags)

(* ------------------------------------------------------------------ *)
(* Query/database cross-checks                                         *)
(* ------------------------------------------------------------------ *)

(* Positive atoms (whose relations must exist for satisfiability), all
   atoms (whose arities must be consistent), and path-language relations. *)
let rec query_atoms (q : Query.t) : Atom.t list * Atom.t list * string list =
  let rec cond_atoms = function
    | Gcq.Catom a -> [ a ]
    | Gcq.Cand cs | Gcq.Cor cs -> List.concat_map cond_atoms cs
    | Gcq.Cnot c -> cond_atoms c
  in
  match q with
  | Query.True -> ([], [], [])
  | Query.Cq c -> (Cq.atoms c, Cq.atoms c, [])
  | Query.Ucq u ->
    let atoms = List.concat_map Cq.atoms (Ucq.disjuncts u) in
    (atoms, atoms, [])
  | Query.Rpq r -> ([], [], Term.Sset.elements (Rpq.rels r))
  | Query.Crpq c -> ([], [], Term.Sset.elements (Crpq.rels c))
  | Query.Ucrpq u -> ([], [], Term.Sset.elements (Ucrpq.rels u))
  | Query.Cqneg c -> (Cqneg.pos c, Cqneg.pos c @ Cqneg.neg c, [])
  | Query.Gcq g ->
    let conds = List.concat_map cond_atoms (Gcq.conditions g) in
    (Gcq.guards g, Gcq.guards g @ conds, [])
  | Query.And (a, b) | Query.Or (a, b) ->
    let pa, aa, ra = query_atoms a and pb, ab, rb = query_atoms b in
    (pa @ pb, aa @ ab, ra @ rb)

let blowup_threshold = 16

let pair (q : Query.t) (db : Database.t) : Diagnostic.t list =
  let schema, _ = Schema.of_database db in
  let positive, all, path_rels = query_atoms q in
  let missing =
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun a ->
         let r = Atom.rel a in
         if Schema.mem schema r || Hashtbl.mem seen r then None
         else begin
           Hashtbl.add seen r ();
           Some
             (warning "X201"
                ~certificate:(Missing_relation (r, Some a))
                (Printf.sprintf
                   "relation %s does not occur in the database: atom %s cannot \
                    be satisfied" r (Atom.to_string a)))
         end)
      positive
    @ List.filter_map
      (fun r ->
         if Schema.mem schema r then None
         else
           Some
             (warning "X201"
                ~certificate:(Missing_relation (r, None))
                (Printf.sprintf
                   "path-language relation %s does not occur in the database" r)))
      (List.sort_uniq String.compare path_rels)
  in
  let arity =
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun a ->
         match Schema.check_atom schema a with
         | `Ok | `Unknown_relation -> None
         | `Arity_mismatch w ->
           let key = (Atom.rel a, Atom.arity a) in
           if Hashtbl.mem seen key then None
           else begin
             Hashtbl.add seen key ();
             Some
               (error "X202"
                  ~certificate:
                    (Query_db_arity
                       { rel = Atom.rel a; query_arity = Atom.arity a; witness = w })
                  (Printf.sprintf
                     "atom %s uses %s with arity %d but the database has %s"
                     (Atom.to_string a) (Atom.rel a) (Atom.arity a) (Fact.to_string w)))
           end)
      all
    @ List.filter_map
      (fun r ->
         match Schema.arity schema r with
         | Some k when k <> 2 ->
           let w = Option.get (Schema.witness schema r) in
           Some
             (error "X202"
                ~certificate:(Query_db_arity { rel = r; query_arity = 2; witness = w })
                (Printf.sprintf
                   "path languages need binary relations but the database has %s"
                   (Fact.to_string w)))
         | _ -> None)
      (List.sort_uniq String.compare path_rels)
  in
  let blowup =
    let n = Database.size_endo db in
    if n <= blowup_threshold then []
    else begin
      let j = Classify.classify q in
      match j.Classify.verdict with
      | Classify.FP -> []
      | v ->
        let verdict = Classify.verdict_to_string v in
        (* the compilation planner's estimate beside the raw 2^n: an
           estimate, not a bound — real circuits can exceed it *)
        let plan =
          try Some (Plan.analyze (Lineage.lineage q db))
          with Invalid_argument _ | Failure _ -> None
        in
        let plan_width = Option.map (fun p -> p.Plan.max_width) plan in
        let refinement =
          match plan with
          | None -> ""
          | Some p ->
            Printf.sprintf
              "; the compilation plan has induced width %d and predicts ~%d \
               circuit nodes" p.Plan.max_width p.Plan.predicted_nodes
        in
        [ warning "X203"
            ~certificate:(Blowup { verdict; n_endo = n; plan_width })
            (Printf.sprintf
               "query is %s and the database has %d endogenous facts: exact \
                computation may take 2^%d query evaluations%s" verdict n n
               refinement) ]
    end
  in
  Diagnostic.sort (missing @ arity @ blowup)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let workload (w : Workload.t) : Diagnostic.t list =
  let cases = Workload.cases w in
  let empty =
    if cases = [] then [ hint "W302" "workload has no cases" ] else []
  in
  let dup_names =
    let rec find = function
      | [] -> []
      | (c : Workload.case) :: rest ->
        if List.exists (fun (c' : Workload.case) -> c'.Workload.cname = c.Workload.cname) rest
        then
          [ error "W301"
              (Printf.sprintf "duplicate case name %S in workload %S" c.Workload.cname
                 (Workload.name w)) ]
        else find rest
    in
    find cases
  in
  let per_case =
    List.concat_map
      (fun (c : Workload.case) ->
         let prefix d =
           { d with
             span = None;
             message = Printf.sprintf "case %S: %s" c.Workload.cname d.message }
         in
         List.map prefix
           (query c.Workload.query @ database c.Workload.db
            @ pair c.Workload.query c.Workload.db))
      cases
  in
  Diagnostic.sort (empty @ dup_names @ per_case)

let workload_src (text : string) : Workload.t option * Diagnostic.t list =
  match Workload.parse_result text with
  | Ok w -> (Some w, workload w)
  | Error (msg, line) ->
    (None, [ error "W303" ~span:(span_of_line line) msg ])
