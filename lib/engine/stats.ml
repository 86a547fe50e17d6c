type t = {
  players : int;
  compilations : int;
  conditionings : int;
  cache_hits : int;
  cache_misses : int;
  cache_size : int;
  cache_capacity : int;
  cache_drops : int;
  poly_ops : int;
  compile_s : float;
  eval_s : float;
  backend : string;
  circuit_nodes : int;
  circuit_edges : int;
  circuit_smoothing : int;
  circuit_cache_hits : int;
  circuit_cache_misses : int;
  circuit_cache_drops : int;
  circuit_compile_s : float;
  circuit_traverse_s : float;
  sample_strategy : string;
  sample_seed : int;
  sample_draws : int;
  sample_exact_strata : int;
  sample_sampled_strata : int;
  sample_max_hw : string;
  sample_epsilon : string;
  sample_confidence : string;
  sample_converged : bool;
  span_s : (string * int * float) array;
}

let zero =
  { players = 0; compilations = 0; conditionings = 0; cache_hits = 0;
    cache_misses = 0; cache_size = 0; cache_capacity = 0; cache_drops = 0;
    poly_ops = 0; compile_s = 0.; eval_s = 0.;
    backend = "conditioning"; circuit_nodes = 0; circuit_edges = 0;
    circuit_smoothing = 0; circuit_cache_hits = 0; circuit_cache_misses = 0;
    circuit_cache_drops = 0; circuit_compile_s = 0.; circuit_traverse_s = 0.;
    sample_strategy = ""; sample_seed = 0; sample_draws = 0;
    sample_exact_strata = 0; sample_sampled_strata = 0; sample_max_hw = "0";
    sample_epsilon = "0"; sample_confidence = "0"; sample_converged = false;
    span_s = [||] }

let normalize s =
  {
    s with
    compile_s = 0.;
    eval_s = 0.;
    circuit_compile_s = 0.;
    circuit_traverse_s = 0.;
    (* span counts are deterministic; only the accumulated durations are
       wall clock *)
    span_s = Array.map (fun (name, count, _) -> (name, count, 0.)) s.span_s;
  }

let ms s = s *. 1000.

let capacity_string c = if c = max_int then "unbounded" else string_of_int c

let to_string s =
  String.concat ""
    ([
       "engine stats:\n";
       Printf.sprintf "  players       : %d\n" s.players;
       Printf.sprintf "  compilations  : %d\n" s.compilations;
       Printf.sprintf "  conditionings : %d\n" s.conditionings;
       Printf.sprintf "  cache         : %d hits / %d misses / %d drops (%d entries, capacity %s)\n"
         s.cache_hits s.cache_misses s.cache_drops s.cache_size
         (capacity_string s.cache_capacity);
       Printf.sprintf "  poly ops      : %d\n" s.poly_ops;
     ]
     @ (if s.backend = "circuit" then
          [
            Printf.sprintf "  backend       : %s\n" s.backend;
            Printf.sprintf "  circuit       : %d nodes / %d edges (%d smoothing)\n"
              s.circuit_nodes s.circuit_edges s.circuit_smoothing;
            Printf.sprintf "  circuit cache : %d hits / %d misses / %d drops\n"
              s.circuit_cache_hits s.circuit_cache_misses s.circuit_cache_drops;
          ]
        else [])
     @ (if s.backend = "sample" then
          [
            Printf.sprintf "  backend       : %s\n" s.backend;
            Printf.sprintf
              "  sampling      : %s, seed %d, %d draws, %d/%d strata exact/sampled\n"
              s.sample_strategy s.sample_seed s.sample_draws
              s.sample_exact_strata s.sample_sampled_strata;
            Printf.sprintf
              "  ci            : half-width <= %s (target %s at confidence %s) — %s\n"
              s.sample_max_hw s.sample_epsilon s.sample_confidence
              (if s.sample_converged then "converged" else "budget exhausted");
          ]
        else [])
     @ [
         Printf.sprintf "  compile time  : %.2fms\n" (ms s.compile_s);
         Printf.sprintf "  eval time  : %.2fms\n" (ms s.eval_s);
       ]
     @ (if s.backend = "circuit" then
          [
            Printf.sprintf "  circuit compile time  : %.2fms\n"
              (ms s.circuit_compile_s);
            Printf.sprintf "  circuit traverse time  : %.2fms\n"
              (ms s.circuit_traverse_s);
          ]
        else [])
     @ (if Array.length s.span_s = 0 then []
        else
          "  spans:\n"
          :: (Array.to_list s.span_s
              |> List.map (fun (name, count, dur) ->
                     Printf.sprintf "    %-28s %4dx  time  : %.2fms\n" name
                       count (ms dur)))))

let pp fmt s = Format.pp_print_string fmt (to_string s)

(* Stable field names: consumed by the BENCH_*.json writers and the cram
   tests (which mask only the *_ms fields). *)
let to_json s =
  Printf.sprintf
    "{\"players\":%d,\"compilations\":%d,\"conditionings\":%d,\
     \"cache_hits\":%d,\"cache_misses\":%d,\"cache_size\":%d,\
     \"cache_capacity\":%s,\"cache_drops\":%d,\"poly_ops\":%d,\
     \"compile_ms\":%.3f,\"eval_ms\":%.3f,\
     \"backend\":\"%s\",\"circuit_nodes\":%d,\"circuit_edges\":%d,\
     \"circuit_smoothing\":%d,\"circuit_cache_hits\":%d,\
     \"circuit_cache_misses\":%d,\"circuit_cache_drops\":%d,\
     \"circuit_compile_ms\":%.3f,\"circuit_traverse_ms\":%.3f,\
     \"sample_strategy\":%S,\"sample_seed\":%d,\"sample_draws\":%d,\
     \"sample_exact_strata\":%d,\"sample_sampled_strata\":%d,\
     \"sample_max_hw\":%S,\"sample_epsilon\":%S,\"sample_confidence\":%S,\
     \"sample_converged\":%b}"
    s.players s.compilations s.conditionings s.cache_hits s.cache_misses
    s.cache_size
    (if s.cache_capacity = max_int then "null" else string_of_int s.cache_capacity)
    s.cache_drops s.poly_ops (ms s.compile_s) (ms s.eval_s) s.backend s.circuit_nodes
    s.circuit_edges s.circuit_smoothing s.circuit_cache_hits
    s.circuit_cache_misses s.circuit_cache_drops (ms s.circuit_compile_s)
    (ms s.circuit_traverse_s) s.sample_strategy s.sample_seed s.sample_draws
    s.sample_exact_strata s.sample_sampled_strata s.sample_max_hw
    s.sample_epsilon s.sample_confidence s.sample_converged
