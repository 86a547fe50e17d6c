(* Telemetry subsystem suite: fake-clock unit tests, qcheck laws for
   span well-formedness and metric-merge algebra, byte-exact golden
   exporter output, and differential regressions proving telemetry is
   observationally free — telemetry-on runs produce bit-identical
   Shapley values and the same pinned stats JSON shape as telemetry-off
   runs, for every backend. *)

open Test_util

let qrst = Query_parse.parse "R(?x), S(?x,?y), T(?y)"

let demo_db =
  Database.make
    ~endo:
      [ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ];
        fact "R" [ "3" ]; fact "S" [ "3"; "2" ] ]
    ~exo:[ fact "T" [ "9" ] ]

let values_equal v1 v2 =
  List.length v1 = List.length v2
  && List.for_all2
       (fun (f1, x1) (f2, x2) -> Fact.equal f1 f2 && Rational.equal x1 x2)
       v1 v2

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_fake_clock () =
  let clock, advance = Telemetry.Clock.fake ~start:10. () in
  Alcotest.(check (float 0.)) "start" 10. (clock ());
  advance 2.5;
  Alcotest.(check (float 0.)) "advanced" 12.5 (clock ());
  advance 0.;
  Alcotest.(check (float 0.)) "zero advance ok" 12.5 (clock ());
  Alcotest.check_raises "negative advance"
    (Invalid_argument "Telemetry.Clock.fake: cannot advance backwards")
    (fun () -> advance (-1.))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let scripted_tracer () =
  let clock, advance = Telemetry.Clock.fake () in
  let t = Telemetry.create ~clock () in
  Telemetry.span t "engine.eval" (fun () ->
      advance 0.001;
      Telemetry.span t ~attrs:[ ("fact", "a") ] "engine.fact" (fun () ->
          advance 0.002);
      Telemetry.span t "engine.fact" (fun () -> advance 0.001));
  let c = Telemetry.counter t "engine.compilations" in
  Telemetry.Counter.add c 5;
  let h = Telemetry.histogram t "engine.chunk_sizes" in
  Telemetry.Histogram.observe h 3;
  Telemetry.Histogram.observe h 3;
  Telemetry.Histogram.observe h 7;
  t

let test_span_nesting () =
  let t = scripted_tracer () in
  let evs = Telemetry.events t in
  Alcotest.(check int) "three events" 3 (List.length evs);
  let by_name n = List.filter (fun e -> e.Telemetry.ev_name = n) evs in
  (match by_name "engine.eval" with
   | [ e ] ->
     Alcotest.(check int) "root depth" 0 e.Telemetry.ev_depth;
     Alcotest.(check (list string)) "root path" [ "engine.eval" ]
       e.Telemetry.ev_path;
     Alcotest.(check (float 1e-9)) "root duration" 0.004 e.Telemetry.ev_dur_s
   | _ -> Alcotest.fail "expected exactly one engine.eval span");
  match by_name "engine.fact" with
  | [ e1; e2 ] ->
    List.iter
      (fun e ->
         Alcotest.(check int) "child depth" 1 e.Telemetry.ev_depth;
         Alcotest.(check (list string)) "child path"
           [ "engine.eval"; "engine.fact" ] e.Telemetry.ev_path)
      [ e1; e2 ];
    Alcotest.(check (list (pair string string))) "attrs kept"
      [ ("fact", "a") ] e1.Telemetry.ev_attrs
  | _ -> Alcotest.fail "expected exactly two engine.fact spans"

let test_exit_mismatch () =
  let t = Telemetry.create ~clock:(fst (Telemetry.Clock.fake ())) () in
  let outer = Telemetry.enter t "outer" in
  let _inner = Telemetry.enter t "inner" in
  (try
     Telemetry.exit t outer;
     Alcotest.fail "exiting a non-innermost span must raise"
   with Invalid_argument _ -> ());
  Alcotest.(check int) "both spans still open" 2 (Telemetry.open_spans t)

let test_exception_closes_span () =
  let clock, advance = Telemetry.Clock.fake () in
  let t = Telemetry.create ~clock () in
  (try
     Telemetry.span t "boom" (fun () ->
         advance 0.003;
         failwith "inner failure")
   with Failure _ -> ());
  Alcotest.(check int) "no span left open" 0 (Telemetry.open_spans t);
  match Telemetry.events t with
  | [ e ] ->
    Alcotest.(check string) "span recorded" "boom" e.Telemetry.ev_name;
    Alcotest.(check (float 1e-9)) "duration up to the raise" 0.003
      e.Telemetry.ev_dur_s
  | evs -> Alcotest.failf "expected one event, got %d" (List.length evs)

let test_disabled_tracer () =
  let t = Telemetry.disabled () in
  Alcotest.(check bool) "disabled" false (Telemetry.enabled t);
  let r = Telemetry.span t "anything" (fun () -> 41 + 1) in
  Alcotest.(check int) "thunk still runs" 42 r;
  Alcotest.(check int) "nothing recorded" 0
    (List.length (Telemetry.events t));
  (* the metrics registry stays fully functional *)
  let c = Telemetry.counter t "c" in
  Telemetry.Counter.incr c;
  Alcotest.(check int) "counter live" 1 (Telemetry.Counter.value c)

let test_fork_join () =
  let clock, advance = Telemetry.Clock.fake () in
  let t = Telemetry.create ~clock () in
  let child = Telemetry.fork t ~track:3 ~name:"worker 2" in
  Telemetry.span child "chunk" (fun () -> advance 0.001);
  Alcotest.(check int) "child events invisible before join" 0
    (List.length (Telemetry.events t));
  Telemetry.join t child;
  (match Telemetry.events t with
   | [ e ] ->
     Alcotest.(check string) "joined span" "chunk" e.Telemetry.ev_name;
     Alcotest.(check int) "on its track" 3 e.Telemetry.ev_track
   | evs -> Alcotest.failf "expected one event, got %d" (List.length evs));
  Alcotest.(check (list (pair int string))) "tracks registered"
    [ (0, "main"); (3, "worker 2") ] (Telemetry.tracks t);
  (* the registry is shared: a child counter is the parent's counter *)
  Telemetry.Counter.incr (Telemetry.counter child "shared");
  Alcotest.(check int) "shared registry" 1
    (Telemetry.Counter.value (Telemetry.counter t "shared"))

let test_registry_kind_mismatch () =
  let t = Telemetry.disabled () in
  ignore (Telemetry.counter t "m");
  try
    ignore (Telemetry.gauge t "m");
    Alcotest.fail "kind mismatch must raise"
  with Invalid_argument _ -> ()

let test_aggregate () =
  let t = scripted_tracer () in
  let agg = Array.to_list (Telemetry.aggregate t) in
  Alcotest.(check (list (triple string int (float 1e-9)))) "rollup"
    [ ("engine.eval", 1, 0.004); ("engine.fact", 2, 0.003) ] agg

(* ------------------------------------------------------------------ *)
(* qcheck: span well-formedness and merge algebra                      *)
(* ------------------------------------------------------------------ *)

(* A random span program: a forest of nested spans, executed on a fake
   clock.  Whatever the shape, the record must be well-formed: one event
   per span, every event's path ends in its own name and has length
   depth + 1, and a parent's recorded interval contains its children. *)
type span_tree = Node of int * span_tree list

let tree_gen =
  QCheck2.Gen.(
    sized_size (int_bound 5) @@ fix (fun self n ->
        if n = 0 then return []
        else
          list_size (int_bound 3)
            (map (fun (t, cs) -> Node (t, cs))
               (pair (int_bound 3) (self (n / 2))))))

let prop_span_well_formed =
  qcheck ~count:200 "span forest is well-formed" tree_gen (fun forest ->
      let clock, advance = Telemetry.Clock.fake () in
      let t = Telemetry.create ~clock () in
      let total = ref 0 in
      let rec run forest =
        List.iteri
          (fun i (Node (ticks, children)) ->
             incr total;
             Telemetry.span t (Printf.sprintf "s%d" i) (fun () ->
                 advance (0.001 *. float_of_int ticks);
                 run children))
          forest
      in
      run forest;
      let evs = Telemetry.events t in
      List.length evs = !total
      && Telemetry.open_spans t = 0
      && List.for_all
           (fun e ->
              List.length e.Telemetry.ev_path = e.Telemetry.ev_depth + 1
              && List.nth e.Telemetry.ev_path e.Telemetry.ev_depth
                 = e.Telemetry.ev_name
              && e.Telemetry.ev_dur_s >= 0.)
           evs)

let counter_of_list l =
  let c = Telemetry.Counter.create () in
  List.iter (Telemetry.Counter.add c) l;
  c

let prop_counter_merge =
  qcheck ~count:400 "counter merge is associative and commutative"
    QCheck2.Gen.(triple (list small_int) (list small_int) (list small_int))
    (fun (a, b, c) ->
       let ca () = counter_of_list a
       and cb () = counter_of_list b
       and cc () = counter_of_list c in
       let v x = Telemetry.Counter.value x in
       let m = Telemetry.Counter.merge in
       v (m (m (ca ()) (cb ())) (cc ())) = v (m (ca ()) (m (cb ()) (cc ())))
       && v (m (ca ()) (cb ())) = v (m (cb ()) (ca ())))

let prop_histogram_merge =
  qcheck ~count:400 "histogram merge is associative and commutative"
    QCheck2.Gen.(
      triple
        (list (int_bound 20))
        (list (int_bound 20))
        (list (int_bound 20)))
    (fun (a, b, c) ->
       let h = Telemetry.Histogram.of_list in
       let m = Telemetry.Histogram.merge in
       let eq = Telemetry.Histogram.equal in
       eq (m (m (h a) (h b)) (h c)) (m (h a) (m (h b) (h c)))
       && eq (m (h a) (h b)) (m (h b) (h a))
       && Telemetry.Histogram.total (m (h a) (h b))
          = List.fold_left ( + ) 0 (a @ b))

(* ------------------------------------------------------------------ *)
(* Golden exporter output (byte-exact, fake clock)                     *)
(* ------------------------------------------------------------------ *)

let golden_summary =
  "telemetry summary\n\
   spans (track 0, main):\n\
  \  engine.eval                                 1x  time  : 4.00ms\n\
  \    engine.fact                               2x  time  : 3.00ms\n\
   counters:\n\
  \  engine.compilations                      5\n\
   histograms:\n\
  \  engine.chunk_sizes                       n=3 total=13 min=3 max=7\n"

let golden_chrome =
  "{\"traceEvents\":[\n\
   {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"main\"}},\n\
   {\"name\":\"engine.fact\",\"cat\":\"svc\",\"ph\":\"X\",\"ts\":1000.000,\"dur\":2000.000,\"pid\":1,\"tid\":0,\"args\":{\"fact\":\"a\"}},\n\
   {\"name\":\"engine.fact\",\"cat\":\"svc\",\"ph\":\"X\",\"ts\":3000.000,\"dur\":1000.000,\"pid\":1,\"tid\":0},\n\
   {\"name\":\"engine.eval\",\"cat\":\"svc\",\"ph\":\"X\",\"ts\":0.000,\"dur\":4000.000,\"pid\":1,\"tid\":0},\n\
   {\"name\":\"engine.compilations\",\"ph\":\"C\",\"ts\":4000.000,\"pid\":1,\"tid\":0,\"args\":{\"value\":5}},\n\
   {\"name\":\"engine.chunk_sizes\",\"ph\":\"C\",\"ts\":4000.000,\"pid\":1,\"tid\":0,\"args\":{\"count\":3,\"total\":13}}\n\
   ],\"displayTimeUnit\":\"ms\"}\n"

let test_golden_summary () =
  Alcotest.(check string) "summary tree is byte-exact" golden_summary
    (Telemetry.Export.summary (scripted_tracer ()))

let test_golden_chrome () =
  Alcotest.(check string) "chrome trace is byte-exact" golden_chrome
    (Telemetry.Export.chrome (scripted_tracer ()))

let test_chrome_round_trip () =
  (* whatever we export must pass our own schema validation *)
  match Tracejson.parse golden_chrome with
  | Error msg -> Alcotest.failf "exporter output failed to parse: %s" msg
  | Ok j ->
    (match Tracejson.validate j with
     | Error msg -> Alcotest.failf "exporter output failed schema: %s" msg
     | Ok evs -> Alcotest.(check int) "all events validated" 6 (List.length evs))

let test_tracejson_malformed () =
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "truncated JSON" true (is_err (Tracejson.parse "{\"a\":"));
  Alcotest.(check bool) "trailing garbage" true (is_err (Tracejson.parse "{} x"));
  Alcotest.(check bool) "bad escape" true (is_err (Tracejson.parse "\"\\q\""));
  let validated text =
    match Tracejson.parse text with
    | Error _ -> Error "parse"
    | Ok j -> Tracejson.validate j
  in
  Alcotest.(check bool) "missing traceEvents" true (is_err (validated "{}"));
  Alcotest.(check bool) "traceEvents not an array" true
    (is_err (validated "{\"traceEvents\":3}"));
  Alcotest.(check bool) "event missing ph" true
    (is_err (validated "{\"traceEvents\":[{\"name\":\"x\"}]}"));
  Alcotest.(check bool) "unknown phase" true
    (is_err
       (validated
          "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"Z\",\"pid\":1,\"tid\":0,\"ts\":0}]}"));
  Alcotest.(check bool) "X event without dur" true
    (is_err
       (validated
          "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0}]}"))

(* ------------------------------------------------------------------ *)
(* Differential: telemetry is observationally free                     *)
(* ------------------------------------------------------------------ *)

(* The stats JSON shape predates telemetry and is pinned by the cram
   tests and the BENCH baselines; the registry projection must emit
   exactly these keys in exactly this order. *)
let pinned_stats_keys =
  [ "players"; "compilations"; "conditionings"; "cache_hits"; "cache_misses";
    "cache_size"; "cache_capacity"; "cache_drops"; "poly_ops"; "compile_ms"; "eval_ms"; "backend"; "circuit_nodes"; "circuit_edges";
    "circuit_smoothing"; "circuit_cache_hits"; "circuit_cache_misses";
    "circuit_cache_drops"; "circuit_compile_ms"; "circuit_traverse_ms";
    "sample_strategy"; "sample_seed"; "sample_draws"; "sample_exact_strata";
    "sample_sampled_strata"; "sample_max_hw"; "sample_epsilon";
    "sample_confidence"; "sample_converged" ]

let json_keys text =
  match Tracejson.parse text with
  | Ok (Tracejson.Obj fields) -> List.map fst fields
  | Ok _ -> Alcotest.fail "stats JSON is not an object"
  | Error msg -> Alcotest.failf "stats JSON failed to parse: %s" msg

let strip_wallclock text =
  (* compare JSON field-for-field with wall-clock values neutralized *)
  match Tracejson.parse text with
  | Ok (Tracejson.Obj fields) ->
    List.map
      (fun (k, v) ->
         if
           List.mem k
             [ "compile_ms"; "eval_ms"; "circuit_compile_ms";
               "circuit_traverse_ms" ]
         then (k, Tracejson.Null)
         else (k, v))
      fields
  | _ -> Alcotest.fail "stats JSON is not an object"

let backends = [ `Conditioning; `Circuit; `Auto; `Sample Sample.default ]

let test_differential_off_vs_on () =
  List.iter
    (fun backend ->
       let off = Engine.create ~backend qrst demo_db in
       let tel = Telemetry.create ~enabled:true () in
       let on = Engine.create ~tel ~backend qrst demo_db in
       let label =
         Printf.sprintf "backend=%s"
           (match backend with
            | `Auto -> "auto"
            | `Conditioning -> "conditioning"
            | `Circuit -> "circuit"
            | `Sample _ -> "sample")
       in
       let v_off = Engine.svc_all off and v_on = Engine.svc_all on in
       Alcotest.(check bool)
         (label ^ ": values bit-identical") true (values_equal v_off v_on);
       (* pinned JSON shape, field for field *)
       let j_off = Stats.to_json (Engine.stats off)
       and j_on = Stats.to_json (Engine.stats on) in
       Alcotest.(check (list string))
         (label ^ ": pinned key order") pinned_stats_keys (json_keys j_off);
       Alcotest.(check (list string))
         (label ^ ": same keys with telemetry on") (json_keys j_off)
         (json_keys j_on);
       Alcotest.(check bool)
         (label ^ ": same values with telemetry on") true
         (strip_wallclock j_off = strip_wallclock j_on))
    backends

let test_normalize_deterministic () =
  List.iter
    (fun (backend, span) ->
       let run () =
         let tel = Telemetry.create ~enabled:true () in
         let e = Engine.create ~tel ~backend qrst demo_db in
         ignore (Engine.svc_all e);
         Stats.normalize (Engine.stats e)
       in
       let s1 = run () and s2 = run () in
       Alcotest.(check bool)
         (Printf.sprintf "normalize deterministic (%s)" span)
         true (s1 = s2);
       (* the span rollup survives normalization with durations zeroed *)
       Alcotest.(check bool) "span durations zeroed" true
         (Array.for_all (fun (_, _, d) -> d = 0.) s1.Stats.span_s);
       Alcotest.(check bool) "span names kept" true
         (Array.exists (fun (n, _, _) -> n = span) s1.Stats.span_s))
    [ (`Conditioning, "engine.full"); (`Circuit, "circuit.compile") ]

let suite =
  [
    Alcotest.test_case "fake clock" `Quick test_fake_clock;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "exit mismatch raises" `Quick test_exit_mismatch;
    Alcotest.test_case "exception closes span" `Quick test_exception_closes_span;
    Alcotest.test_case "disabled tracer" `Quick test_disabled_tracer;
    Alcotest.test_case "fork/join" `Quick test_fork_join;
    Alcotest.test_case "registry kind mismatch" `Quick test_registry_kind_mismatch;
    Alcotest.test_case "aggregate rollup" `Quick test_aggregate;
    prop_span_well_formed;
    prop_counter_merge;
    prop_histogram_merge;
    Alcotest.test_case "golden summary" `Quick test_golden_summary;
    Alcotest.test_case "golden chrome trace" `Quick test_golden_chrome;
    Alcotest.test_case "chrome round-trips through the validator" `Quick
      test_chrome_round_trip;
    Alcotest.test_case "tracejson rejects malformed input" `Quick
      test_tracejson_malformed;
    Alcotest.test_case "telemetry-off = telemetry-on (values and stats)"
      `Quick test_differential_off_vs_on;
    Alcotest.test_case "normalize is deterministic across real runs" `Quick
      test_normalize_deterministic;
  ]
