(* Benchmark & experiment harness.

   Regenerates every figure/table-level artifact of the paper (see
   DESIGN.md §3 and EXPERIMENTS.md) and runs Bechamel microbenchmarks.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig1a   # a single experiment
     dune exec bench/main.exe -- --list  # available experiment ids *)

let rounds = 12

let experiments : (string * (unit -> bool)) list =
  [
    ("fig1a", Exp_fig1.fig1a ~rounds);
    ("fig1b", Exp_fig1.fig1b);
    ("prop33", Exp_fig1.prop33);
    ("fig2", Exp_constructions.fig2);
    ("cor41", Exp_constructions.cor41 ~rounds:6);
    ("cor43", Exp_constructions.cor43 ~rounds:6);
    ("cor45", Exp_constructions.cor45 ~rounds:8);
    ("cor46", Exp_constructions.cor46 ~rounds:8);
    ("lem61", Exp_variants.lem61);
    ("lem62", Exp_variants.lem62 ~rounds:10);
    ("lem63", Exp_variants.lem63 ~rounds:10);
    ("prop62", Exp_variants.prop62 ~rounds:8);
    ("prop63", Exp_variants.prop63 ~rounds:8);
    ("sec62", Exp_variants.sec62 ~rounds:8);
    ("appd", Exp_variants.appendix_d ~rounds:8);
    ("exe1", Exp_discussion.exe1);
    ("scale", Exp_scale.scale);
    ("sample", Exp_scale.sample);
    ("engine", Exp_engine.engine);
    ("circuit", Exp_circuit.circuit);
    ("red_scale", Exp_scale.reduction_scaling);
    ("ablate_compile", Exp_scale.ablate_compile);
    ("ablate_poly", Exp_scale.ablate_poly);
    ("ablate_shapley", Exp_scale.ablate_shapley);
    ("ablate_safeplan", Exp_scale.ablate_safeplan);
    ("ablate_homsearch", Exp_scale.ablate_homsearch);
    ("arith", Micro.arith);
    ("micro", Micro.run);
  ]

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "--list" ] ->
    List.iter (fun (id, _) -> print_endline id) experiments
  | [] ->
    let failures = ref [] in
    List.iter
      (fun (id, run) -> if not (run ()) then failures := id :: !failures)
      experiments;
    Printf.printf "\n================================================================================\n";
    (match !failures with
     | [] -> Printf.printf "All %d experiments validated.\n" (List.length experiments)
     | fs ->
       Printf.printf "FAILED experiments: %s\n" (String.concat ", " (List.rev fs));
       exit 1)
  | ids ->
    List.iter
      (fun id ->
         match List.assoc_opt id experiments with
         | Some run -> if not (run ()) then exit 1
         | None ->
           Printf.eprintf "unknown experiment %S (try --list)\n" id;
           exit 2)
      ids
