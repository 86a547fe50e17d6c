(* svcbench: the repository's end-to-end benchmark.

   One process, closed loop, one client, jobs = 1.  Usage:

     svcbench run --workload W --seed N --seconds S --trace 0|1 --dir DIR
     svcbench first --workload W --dir DIR     (one cold start, for setup_s)

   [run] prints notes, then as its last line one JSON object with
   [correct], [attempted], [failed] and [metrics]: the end-to-end metrics
   with [--trace 0], the per-layer metrics of a layer-by-layer replay
   with [--trace 1].  It exits 1 when any check failed.  See README.md. *)

let now = Unix.gettimeofday
let note fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

(* An operation still running after this many seconds is abandoned and
   counted as failed.  The slowest operation takes well under a second;
   the self-test lowers the limit to see the deadline fire. *)
let op_deadline = ref 20.

(* Cold starts timed for setup_s, spread over the measured time: more
   of them where one start is short, since a short start sees a single
   speed phase of the host (see README.md). *)
let setup_starts = 11
let short_setup_starts = 21

(* peak_mem_mb is read after this many measured cycles *)
let mem_cycles = 2

(* ---------- verdicts and operations ---------- *)

type verdict =
  | Pass
  | Fail of string
  | Against of string * string  (** reference key, answer digest *)

type op = { pop : string; exec : unit -> float * verdict }

type workload = {
  name : string;
  digest : string;  (** of every input text *)
  before : op list;  (** untimed, once, before the warm-up cycles *)
  warmup : int;
  cycle : int -> op list;
  files : (string * string) list;  (** inputs handed to cold starts *)
  setup_refs : string list;  (** reference key of each cold-start answer line *)
  starts : int;  (** cold starts per run *)
  reference : string -> (string, string) result;  (** expected digest *)
  replay : Replay.acc -> int -> (unit, string) result;  (** traced cycle *)
  overhead : unit -> float;  (** telemetry.overhead_pct *)
}

let answer_verdict ~key = function
  | Ok a -> Against (key, Ops.digest a)
  | Error m -> Fail m

let memo f =
  let tbl = Hashtbl.create 16 in
  fun k ->
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None ->
      let v = f k in
      Hashtbl.replace tbl k v;
      v

(* ---------- exact-mix and sample-scale: weighted instance lists ---------- *)

let find insts label = List.find (fun (i : Inputs.instance) -> i.Inputs.label = label) insts

let instance_workload ~name ~insts ~op ~reference ~replay ~overhead =
  let each f =
    List.concat_map (fun (i : Inputs.instance) -> List.init i.Inputs.weight (fun _ -> f i)) insts
  in
  {
    name;
    digest =
      Inputs.digest_of_strings
        (List.concat_map (fun (i : Inputs.instance) -> [ i.Inputs.query_text; i.Inputs.db_text ]) insts);
    before = [];
    warmup = 1;
    cycle = (fun _ -> each op);
    files =
      List.concat
        (List.mapi
           (fun k (i : Inputs.instance) ->
              [ (Printf.sprintf "%d.query" k, i.Inputs.query_text);
                (Printf.sprintf "%d.db" k, i.Inputs.db_text) ])
           insts);
    setup_refs = List.map (fun (i : Inputs.instance) -> i.Inputs.label) insts;
    starts = setup_starts;
    reference;
    replay =
      (fun acc _ ->
         List.fold_left (fun r f -> Result.bind r f) (Ok ()) (each (fun i () -> replay acc i)));
    overhead;
  }

let exact_mix ~seed =
  let insts = Inputs.instances ~seed Inputs.exact_mix_spec in
  let op (inst : Inputs.instance) =
    { pop = inst.Inputs.label;
      exec =
        (fun () ->
           let dt, r = Ops.timed ~limit:!op_deadline (fun () -> Ops.exact inst) in
           (dt, answer_verdict ~key:inst.Inputs.label (Result.map Ops.answer_of_values r)));
    }
  in
  instance_workload ~name:"exact-mix" ~insts ~op
    ~reference:(fun label -> Ops.exact_reference (find insts label))
    ~replay:Replay.exact
    ~overhead:(fun () ->
        Replay.telemetry_overhead_pct ~pairs:10 ~backend:`Auto (find insts "crpq-60"))

let sample_scale ~seed =
  let insts = Inputs.instances ~seed Inputs.sample_scale_spec in
  let gap =
    memo (fun (i : Inputs.instance) ->
        let db, q = Ops.parse i in
        Ops.efficiency_gap q db)
  in
  (* sampling is seeded: every answer of an instance must equal the
     first one that passed the checks *)
  let first_pass = Hashtbl.create 4 in
  let op (inst : Inputs.instance) =
    let label = inst.Inputs.label in
    { pop = label;
      exec =
        (fun () ->
           let dt, r = Ops.timed ~limit:!op_deadline (fun () -> Ops.sample inst) in
           let verdict =
             match r with
             | Error m -> Fail m
             | Ok ((vs, _) as out) -> (
                 match Ops.check_sample ~gap:(gap inst) out with
                 | Error m -> Fail m
                 | Ok () ->
                   let d = Ops.digest (Ops.answer_of_values vs) in
                   if not (Hashtbl.mem first_pass label) then Hashtbl.replace first_pass label d;
                   Against (label, d))
           in
           (dt, verdict));
    }
  in
  instance_workload ~name:"sample-scale" ~insts ~op
    ~reference:(fun label ->
        match Hashtbl.find_opt first_pass label with
        | Some d -> Ok d
        | None -> Error "no answer passed the sample checks")
    ~replay:Replay.sample
    ~overhead:(fun () ->
        Replay.telemetry_overhead_pct ~pairs:4 ~backend:(`Sample Ops.sample_config)
          (find insts "star-600"))

(* ---------- serve-delta ---------- *)

let state_key k = Printf.sprintf "state-%d" k

let serve_delta ~seed =
  let s = Inputs.serve ~seed in
  let server = Server.create () in
  Server.load_db server ~name:s.Inputs.db_name ~text:s.Inputs.serve_db_text;
  let initial = Inputs.pool_size in
  let db_text k = if k = initial then s.Inputs.serve_db_text else Inputs.state_db_text s k in
  let expect_status = function
    | Inputs.Write _ -> ""
    | Inputs.Delta -> "delta"
    | Inputs.Hit -> "hit"
    | Inputs.Miss -> "miss"
  in
  (* the latest delta answer, for the traced replay *)
  let last_delta = ref "" in
  let op kind ~state payload =
    { pop = Inputs.kind_name kind;
      exec =
        (fun () ->
           let dt, r =
             Ops.timed ~limit:!op_deadline (fun () -> Ops.serve_request server payload)
           in
           let verdict =
             match Result.bind r Ops.decode_response with
             | Error m -> Fail m
             | Ok (status, values) ->
               if status <> expect_status kind then
                 Fail (Printf.sprintf "cache status %S, expected %S" status (expect_status kind))
               else
                 match kind with
                 | Inputs.Write _ -> Pass
                 | Inputs.Delta ->
                   let d = Ops.digest values in
                   last_delta := d;
                   Against (state_key state, d)
                 | Inputs.Hit | Inputs.Miss -> Against (state_key state, Ops.digest values)
           in
           (dt, verdict));
    }
  in
  let period = Array.length s.Inputs.cycles in
  let script c = s.Inputs.cycles.(c mod period) in
  let of_script (o : Inputs.serve_op) = op o.Inputs.kind ~state:o.Inputs.state o.Inputs.payload in
  let cycle c = List.map of_script (script c) in
  (* the traced run mirrors the hot key's journal outside the server *)
  let chain =
    lazy
      (Replay.chain ~query_text:s.Inputs.hot_query ~db_text:s.Inputs.serve_db_text
         ~prelude:(Inputs.changes [ s.Inputs.prelude ]))
  in
  let cold_instance c =
    { Inputs.label = "miss";
      weight = 1;
      query_text = Inputs.cold_query (c mod Inputs.cold_keys);
      db_text = db_text (c mod Inputs.pool_size) }
  in
  {
    name = "serve-delta";
    digest =
      Inputs.digest_of_strings
        (s.Inputs.serve_db_text :: s.Inputs.first_eval
         :: List.concat_map
              (List.map (fun (o : Inputs.serve_op) -> o.Inputs.payload))
              (Array.to_list s.Inputs.cycles));
    before = [ op Inputs.Miss ~state:initial s.Inputs.first_eval; of_script s.Inputs.prelude ];
    warmup = Inputs.cold_keys;
    cycle;
    files =
      [ ("serve.name", s.Inputs.db_name); ("serve.db", s.Inputs.serve_db_text);
        ("serve.eval", s.Inputs.first_eval) ];
    setup_refs = [ state_key initial ];
    starts = short_setup_starts;
    reference =
      (fun key ->
         let k = Scanf.sscanf key "state-%d" Fun.id in
         Ops.serve_reference ~db_text:(db_text k) ~query_text:s.Inputs.hot_query);
    replay =
      (fun acc c ->
         let h0 = Server.cache_hits server and m0 = Server.cache_misses server
         and e0 = Server.cache_evictions server and d0 = Server.delta_updates server in
         let lat = Hashtbl.create 4 in
         let verdicts =
           List.map
             (fun o ->
                let dt, v = o.exec () in
                Hashtbl.replace lat o.pop (dt *. 1000. :: Option.value ~default:[] (Hashtbl.find_opt lat o.pop));
                v)
             (cycle c)
         in
         List.iter
           (fun k ->
              match Hashtbl.find_opt lat k with
              | Some l -> Hashtbl.replace acc ("server." ^ k ^ "_ms") (Pct.median (Array.of_list l))
              | None -> ())
           [ "hit"; "delta"; "miss" ];
         Replay.addi acc "server.cache_hits" (Server.cache_hits server - h0);
         Replay.addi acc "server.cache_misses" (Server.cache_misses server - m0);
         Replay.addi acc "server.cache_evictions" (Server.cache_evictions server - e0);
         Replay.addi acc "server.delta_updates" (Server.delta_updates server - d0);
         let values = Replay.catch_up acc (Lazy.force chain) (Inputs.changes (script c)) in
         let failed =
           List.find_map (function Fail m -> Some m | _ -> None) verdicts
         in
         match failed with
         | Some m -> Error m
         | None ->
           if Ops.digest (Ops.answer_of_values values) <> !last_delta then
             Error "replayed delta answer differs from the server's"
           else Replay.exact acc (cold_instance c));
    overhead =
      (fun () ->
         Replay.telemetry_overhead_pct ~pairs:10 ~backend:`Auto
           { Inputs.label = "hot"; weight = 1; query_text = s.Inputs.hot_query;
             db_text = s.Inputs.serve_db_text });
  }

let workload ~seed = function
  | "exact-mix" -> exact_mix ~seed
  | "sample-scale" -> sample_scale ~seed
  | "serve-delta" -> serve_delta ~seed
  | w -> failwith ("unknown workload " ^ w)

let workload_names = [ "exact-mix"; "sample-scale"; "serve-delta" ]

(* ---------- cold starts ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* One cold start: parse the inputs and answer each distinct one once,
   printing one answer digest per line. *)
let first ~workload ~dir =
  let file name = read_file (Filename.concat dir name) in
  let line r = print_endline (match r with Ok a -> Ops.digest a | Error m -> "error " ^ m) in
  let instances () =
    let rec go k =
      if Sys.file_exists (Filename.concat dir (Printf.sprintf "%d.query" k)) then
        { Inputs.label = string_of_int k;
          weight = 1;
          query_text = file (Printf.sprintf "%d.query" k);
          db_text = file (Printf.sprintf "%d.db" k) }
        :: go (k + 1)
      else []
    in
    go 0
  in
  let answer f = Result.map Ops.answer_of_values (Ops.with_deadline !op_deadline f) in
  match workload with
  | "exact-mix" -> List.iter (fun i -> line (answer (fun () -> Ops.exact i))) (instances ())
  | "sample-scale" ->
    List.iter (fun i -> line (answer (fun () -> fst (Ops.sample i)))) (instances ())
  | "serve-delta" ->
    line
      (Result.bind
         (Ops.with_deadline !op_deadline (fun () ->
              let server = Server.create () in
              Server.load_db server ~name:(file "serve.name") ~text:(file "serve.db");
              Ops.serve_request server (file "serve.eval")))
         (fun resp -> Result.map snd (Ops.decode_response resp)))
  | w -> failwith ("unknown workload " ^ w)

let write_inputs wl ~dir =
  List.iter
    (fun (name, text) ->
       Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> output_string oc text))
    wl.files

(* Time one cold start of this binary on the inputs [write_inputs] left
   in [dir]; each answer line is checked against its reference. *)
let cold_start wl ~dir =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process exe
      [| exe; "first"; "--workload"; wl.name; "--dir"; dir |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let dt = now () -. t0 in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  let verdicts =
    if status <> Unix.WEXITED 0 then [ Fail "cold start exited abnormally" ]
    else if List.length lines <> List.length wl.setup_refs then
      [ Fail "cold start printed the wrong number of answers" ]
    else List.map2 (fun key d -> Against (key, d)) wl.setup_refs lines
  in
  (dt, verdicts)

(* ---------- reporting ---------- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed m

(* Which population holds 1-based rank [r] of the sorted samples, and the
   contiguous ranks it holds around r. *)
let describe_rank sorted r =
  let n = Array.length sorted in
  let pop = snd sorted.(r - 1) in
  let lo = ref r and hi = ref r in
  while !lo > 1 && snd sorted.(!lo - 2) = pop do decr lo done;
  while !hi < n && snd sorted.(!hi) = pop do incr hi done;
  Printf.sprintf "%s (it holds ranks %d..%d)" pop !lo !hi

(* The per-layer metrics, (name, unit), as BENCHMARK.json lists them;
   the run starts from the repository root. *)
let per_layer () =
  let field k = function Tracejson.Obj kvs -> List.assoc_opt k kvs | _ -> None in
  let metric m =
    match (field "name" m, field "unit" m) with
    | Some (Tracejson.Str n), Some (Tracejson.Str u) -> (n, u)
    | _ -> failwith "BENCHMARK.json: a per_layer metric without name and unit"
  in
  match Tracejson.parse (read_file "BENCHMARK.json") with
  | Ok j -> (
      match field "per_layer" j with
      | Some (Tracejson.Arr ms) -> List.map metric ms
      | _ -> failwith "BENCHMARK.json: no per_layer list")
  | Error m -> failwith ("BENCHMARK.json: " ^ m)

(* ---------- the run ---------- *)

(* unmeasured operations: (population, seconds, verdict) *)
let run_ops ops =
  List.map
    (fun o ->
       let dt, v = o.exec () in
       (o.pop, dt, v))
    ops

let run ~workload:wname ~seed ~seconds ~trace ~dir ~corrupt =
  let wl = workload ~seed wname in
  note "workload %s seed %d: inputs md5 %s" wl.name seed wl.digest;
  let per_layer = if trace then per_layer () else [] in
  let untimed = ref (run_ops wl.before) in
  if not trace then write_inputs wl ~dir;
  let setup = ref [] in
  (* every measured time is scaled to the reference host speed by the
     calibrations around it; see calib.ml *)
  let cal = Calib.create () in
  (* the cold starts run between measured cycles, spread evenly over the
     measured time, so they see the same host as the operations do; each
     has a segment of its own *)
  let cold_start () =
    Calib.calibrate cal;
    let seg = cal.Calib.segment in
    let dt, vs = cold_start wl ~dir in
    Calib.calibrate cal;
    setup := (seg, dt, vs) :: !setup
  in
  (* measured operations: (population, segment, seconds, verdict) *)
  let records = ref [] and cycles = ref [] and peak = ref None in
  let replayed = ref [] and replay_errors = ref [] in
  (* warm-up answers are checked but not timed; the traced run warms up
     through the replay, since serve-delta's mirrored journal must see
     every cycle *)
  for c = 0 to wl.warmup - 1 do
    if trace then
      match wl.replay (Replay.create ()) c with
      | Ok () -> ()
      | Error m -> replay_errors := m :: !replay_errors
    else untimed := !untimed @ run_ops (wl.cycle c)
  done;
  let measured = ref 0. in
  let c = ref wl.warmup in
  while !cycles = [] || !measured < seconds do
    if (not trace)
    && float_of_int (List.length !setup) < float_of_int wl.starts *. !measured /. seconds
    then cold_start ();
    let t0 = now () in
    if trace then begin
      let acc = Replay.create () in
      (match wl.replay acc !c with
       | Ok () -> ()
       | Error m -> replay_errors := m :: !replay_errors);
      Replay.finish acc;
      replayed := acc :: !replayed;
      cycles := List.init (List.length (wl.cycle !c)) (fun _ -> (0, 0.)) :: !cycles
    end
    else begin
      let rs =
        List.map
          (fun o ->
             let seg, (dt, v) = Calib.measure cal o.exec in
             (o.pop, seg, dt, v))
          (wl.cycle !c)
      in
      records := List.rev_append rs !records;
      cycles := List.map (fun (_, seg, dt, _) -> (seg, dt)) rs :: !cycles;
      if List.length !cycles = mem_cycles then peak := Some (Ops.peak_mem_mb ())
    end;
    measured := !measured +. (now () -. t0);
    incr c
  done;
  while (not trace) && List.length !setup < wl.starts do cold_start () done;
  (* close the last segment *)
  Calib.calibrate cal;
  let setup = !setup in
  let peak = match !peak with Some p -> p | None -> Ops.peak_mem_mb () in
  (* the self-test's wrong answer: the last measured one *)
  (if corrupt then
     match !records with
     | (pop, seg, dt, Against (key, _)) :: rest ->
       records := (pop, seg, dt, Against (key, "corrupted")) :: rest
     | _ -> ());
  (* references are computed only now, after the memory reading *)
  let reference = memo wl.reference in
  let failures = ref [] in
  let judge (pop, v) =
    let fail m = failures := (pop ^ ": " ^ m) :: !failures; false in
    match v with
    | Pass -> true
    | Fail m -> fail m
    | Against (key, d) -> (
        match reference key with
        | Ok expected when expected = d -> true
        | Ok _ -> fail ("answer differs from the reference for " ^ key)
        | Error m -> fail m)
  in
  let checked =
    List.map (fun (pop, _, v) -> judge (pop, v)) !untimed
    @ List.map (fun (pop, _, _, v) -> judge (pop, v)) !records
    @ List.concat_map (fun (_, _, vs) -> List.map (fun v -> judge ("setup", v)) vs) setup
  in
  List.iter (fun m -> failures := ("replay: " ^ m) :: !failures) !replay_errors;
  let attempted =
    if trace then List.fold_left (fun s ops -> s + List.length ops) (List.length !untimed) !cycles
    else List.length checked
  in
  let failed =
    List.length (List.filter not checked) + List.length !replay_errors
  in
  List.iteri (fun i m -> if i < 10 then note "FAILED %s" m) (List.rev !failures);
  if trace then begin
    let accs = Array.of_list (List.rev !replayed) in
    note "traced replay: %d cycles of the mix" (Array.length accs);
    let overhead = wl.overhead () in
    (* counts and ratios of counts are those of the first traced cycle,
       so they repeat exactly whatever the run length; times are medians
       over the traced cycles *)
    let metrics =
      List.map
        (fun (name, unit) ->
           if name = "telemetry.overhead_pct" then (name, unit, overhead)
           else if unit = "count" || unit = "ratio" then (name, unit, Replay.get accs.(0) name)
           else (name, unit, Pct.median (Array.map (fun acc -> Replay.get acc name) accs)))
        per_layer
    in
    print_result ~attempted ~failed metrics
  end
  else begin
    let scaled = Calib.scale cal in
    let wall _ dt = dt in
    let lat_of scale =
      let lat = Array.of_list (List.map (fun (pop, seg, dt, _) -> (scale seg dt *. 1000., pop)) !records) in
      Array.sort compare lat;
      lat
    in
    let lat = lat_of scaled in
    let n = Array.length lat in
    let pops = List.sort_uniq compare (List.map snd (Array.to_list lat)) in
    List.iter
      (fun p ->
         let l = Pct.sorted (Array.of_list (List.filter_map (fun (dt, q) -> if q = p then Some dt else None) (Array.to_list lat))) in
         note "population %-14s %5d ops, median %.3f ms, range %.3f..%.3f ms" p (Array.length l)
           (Pct.median l) l.(0) l.(Array.length l - 1))
      pops;
    let p50_rank = Pct.nearest_rank_index ~n 50. + 1 in
    let tail_rank = max 1 (n - 10) in
    note "p50: rank %d of %d in %s" p50_rank n (describe_rank lat p50_rank);
    note "tail: p%.2f, rank %d of %d, %d operations beyond it, in %s"
      (100. *. float_of_int tail_rank /. float_of_int n)
      tail_rank n (n - tail_rank) (describe_rank lat tail_rank);
    let throughput scale =
      Pct.median
        (Array.of_list
           (List.map
              (fun ops ->
                 float_of_int (List.length ops)
                 /. List.fold_left (fun s (seg, dt) -> s +. scale seg dt) 0. ops)
              !cycles))
    in
    let starts scale = Pct.sorted (Array.of_list (List.map (fun (seg, dt, _) -> scale seg dt) setup)) in
    let scaled_starts = starts scaled in
    let setup_s = Pct.median scaled_starts in
    note "%d measured cycles; setup_s is the median of %d cold starts (range %.3f..%.3f s); peak_mem read after %d cycles"
      (List.length !cycles) (Array.length scaled_starts) scaled_starts.(0)
      scaled_starts.(Array.length scaled_starts - 1)
      (min mem_cycles (List.length !cycles));
    let kernels = Pct.sorted (Calib.kernels cal) in
    let raw = lat_of wall in
    note "host speed: %d calibrations, kernel median %.3f ms (range %.3f..%.3f), reference %.1f ms"
      (Array.length kernels) (Pct.median kernels) kernels.(0) kernels.(Array.length kernels - 1)
      Calib.reference_ms;
    note "unscaled wall clock: throughput %.3f 1/s, p50 %.3f ms, tail %.3f ms, setup %.4f s"
      (throughput wall) (fst raw.(p50_rank - 1)) (fst raw.(tail_rank - 1)) (Pct.median (starts wall));
    print_result ~attempted ~failed
      [ ("throughput_ops_per_s", "1/s", throughput scaled);
        ("latency_p50_ms", "ms", fst lat.(p50_rank - 1));
        ("latency_tail_ms", "ms", fst lat.(tail_rank - 1));
        ("peak_mem_mb", "MB", peak);
        ("setup_s", "s", setup_s) ]
  end;
  if failed > 0 then exit 1

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0
  and dir = ref "" and corrupt = ref false in
  let specs =
    [ ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " workload_names);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics, or the layer replay");
      ("--dir", Arg.Set_string dir, "DIR  the cold-start inputs");
      ("--deadline", Arg.Set_float op_deadline, "S  (self-test) per-operation limit, default 20");
      ("--corrupt-last-answer", Arg.Set corrupt, " (self-test) replace the last measured answer") ]
  in
  let mode = ref "" in
  Arg.parse specs (fun m -> mode := m) "svcbench (run|first) [options]";
  if not (List.mem !workload workload_names) then begin
    prerr_endline ("svcbench: --workload must be one of " ^ String.concat ", " workload_names);
    exit 2
  end;
  match !mode with
  | "run" -> run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~dir:!dir ~corrupt:!corrupt
  | "first" -> first ~workload:!workload ~dir:!dir
  | _ ->
    prerr_endline "svcbench: mode must be run or first";
    exit 2
