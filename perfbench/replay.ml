(* The traced run's layer-by-layer replay.

   Each operation is replayed by calling the layers' public functions in
   the engine's order, timing every call from here (no span inside the
   program is needed), and the replayed result is then checked against
   the engine's own answer for the same input.  One accumulator collects
   one cycle of the workload's mix. *)

let now = Unix.gettimeofday

type acc = (string, float) Hashtbl.t

let create () : acc = Hashtbl.create 64
let get (acc : acc) k = Option.value ~default:0. (Hashtbl.find_opt acc k)
let add acc k v = Hashtbl.replace acc k (get acc k +. v)
let addi acc k n = add acc k (float_of_int n)
let set_max acc k v = Hashtbl.replace acc k (Float.max (get acc k) v)

let time acc k f =
  let t0 = now () in
  let r = f () in
  add acc k ((now () -. t0) *. 1000.);
  r

let parse acc (inst : Inputs.instance) =
  let db = time acc "relational.db_parse_ms" (fun () -> Db_text.parse inst.Inputs.db_text) in
  let q = time acc "querylang.parse_ms" (fun () -> Query_parse.parse inst.Inputs.query_text) in
  (db, q)

(* Homomorphism search on its own (it also runs inside the lineage
   build, which is timed separately); only CQs go through it. *)
let relational acc q db =
  match q with
  | Query.Cq cq ->
    let into = Database.all db and atoms = Cq.atoms cq in
    let images =
      time acc "relational.images_ms" (fun () -> Homomorphism.all_images ~into atoms)
    in
    addi acc "relational.images" (List.length images);
    let minimal =
      time acc "relational.minimal_ms" (fun () -> Homomorphism.minimal_images ~into atoms)
    in
    addi acc "relational.minimal_supports" (List.length minimal)
  | _ -> ()

let lineage acc q db =
  let phi = time acc "lineage.build_ms" (fun () -> Lineage.lineage q db) in
  addi acc "lineage.size" (Bform.size phi);
  phi

let same_values a b =
  List.length a = List.length b
  && List.for_all2
       (fun (f, v) (g, w) -> Fact.equal f g && Rational.equal v w)
       a b

let without f = List.filter (fun g -> not (Fact.equal f g))

(* An exact `Auto operation: plan, then circuit or per-fact conditioning,
   then the Claim A.1 arithmetic. *)
let exact acc (inst : Inputs.instance) =
  let db, q = parse acc inst in
  relational acc q db;
  let phi = lineage acc q db in
  let players = Database.endo_list db in
  let n = List.length players in
  let plan = time acc "plan.analyze_ms" (fun () -> Plan.analyze phi) in
  let backend = Plan.recommend plan ~n_facts:n in
  addi acc "_exact_ops" 1;
  if backend = `Conditioning then addi acc "_conditioning_ops" 1;
  let factorials =
    time acc "arith.factorial_table_ms" (fun () -> Bigint.factorial_table n)
  in
  let split full (f, w) = (f, w, Poly.Z.sub full (Poly.Z.shift 1 w)) in
  let polys =
    match backend with
    | `Circuit ->
      let c =
        time acc "circuit.compile_ms" (fun () ->
            Circuit.compile ~plan ~cache_capacity:(1 lsl 20) phi)
      in
      let ev =
        time acc "circuit.evaluate_ms" (fun () -> Circuit.evaluate c ~universe:players)
      in
      let nodes = Circuit.node_count c in
      addi acc "circuit.nodes" nodes;
      addi acc "circuit.edges" (Circuit.edge_count c);
      addi acc "circuit.poly_ops" ev.Circuit.poly_ops;
      addi acc "_circuit_hits" (Circuit.cache_hits c);
      addi acc "_circuit_lookups" (Circuit.cache_hits c + Circuit.cache_misses c);
      set_max acc "plan.prediction_ratio_max"
        (float_of_int plan.Plan.predicted_nodes /. float_of_int (max 1 nodes));
      List.map (split ev.Circuit.full) (Array.to_list ev.Circuit.by_fact)
    | `Conditioning ->
      let memo = Compile.Memo.create ~capacity:(1 lsl 20) () in
      let count universe phi =
        time acc "lineage.condition_ms" (fun () ->
            Compile.size_polynomial_with ~memo ~universe phi)
      in
      let full = count players phi in
      let polys =
        List.map
          (fun f -> split full (f, count (without f players) (Bform.condition f true phi)))
          players
      in
      addi acc "_memo_hits" (Compile.Memo.hits memo);
      addi acc "_memo_lookups" (Compile.Memo.hits memo + Compile.Memo.misses memo);
      polys
  in
  let values =
    List.map
      (fun (f, with_mu_exo, without_mu) ->
         ( f,
           time acc "arith.claim_a1_ms" (fun () ->
               Engine.shapley_of_polynomials ~factorials ~with_mu_exo ~without_mu ~n) ))
      polys
  in
  let e = time acc "engine.create_ms" (fun () -> Engine.create q db) in
  let engine_values = time acc "engine.svc_all_ms" (fun () -> Engine.svc_all e) in
  if not (Bform.equal (Engine.lineage e) phi) then Error "replayed lineage differs"
  else if
    not
      (match (Engine.backend e, backend) with
       | `Circuit, `Circuit | `Conditioning, `Conditioning -> true
       | _ -> false)
  then Error "replayed backend choice differs"
  else if not (same_values values engine_values) then Error "replayed values differ"
  else Ok ()

(* A sampled operation: lineage, the engine's eager factorial table, and
   the Monte-Carlo estimator. *)
let sample acc (inst : Inputs.instance) =
  let db, q = parse acc inst in
  relational acc q db;
  let phi = lineage acc q db in
  let players = Database.endo_list db in
  ignore
    (time acc "arith.factorial_table_ms" (fun () ->
         Bigint.factorial_table (List.length players)));
  let r =
    time acc "sample.shapley_ms" (fun () ->
        Sample.shapley Ops.sample_config ~universe:players phi)
  in
  addi acc "sample.draws" r.Sample.total_draws;
  addi acc "sample.evals" r.Sample.total_evals;
  let e =
    time acc "engine.create_ms" (fun () ->
        Engine.create ~backend:(`Sample Ops.sample_config) q db)
  in
  ignore (time acc "engine.svc_all_ms" (fun () -> Engine.svc_all e));
  let same (a : Sample.estimate) (b : Sample.estimate) =
    Fact.equal a.Sample.fact b.Sample.fact
    && Rational.equal a.Sample.value b.Sample.value
    && Rational.equal a.Sample.half_width b.Sample.half_width
  in
  match Engine.sample_report e with
  | None -> Error "engine produced no sample report"
  | Some er ->
    if not (Bform.equal (Engine.lineage e) phi) then Error "replayed lineage differs"
    else if
      not
        (Array.length er.Sample.estimates = Array.length r.Sample.estimates
         && Array.for_all2 same er.Sample.estimates r.Sample.estimates)
    then Error "replayed estimates differ"
    else Ok ()

(* The serve-delta hot key, mirrored outside the server: the same
   journal replayed through [Engine.update], the replan timed on its
   own, and the caught-up answer checked against the server's. *)
type chain = { mutable engine : Engine.t }

(* [prelude]: the changes the script makes before its first cycle *)
let chain ~query_text ~db_text ~prelude =
  let e = Engine.create (Query_parse.parse query_text) (Db_text.parse db_text) in
  ignore (Engine.svc_all e);
  { engine = List.fold_left Engine.update e prelude }

let catch_up acc ch changes =
  List.iter
    (fun change ->
       let prev = ch.engine in
       let e = time acc "engine.update_ms" (fun () -> Engine.update prev change) in
       (match Engine.plan prev with
        | Some previous ->
          ignore
            (time acc "plan.replan_ms" (fun () ->
                 Plan.replan ~previous (Engine.lineage e)))
        | None -> ());
       ch.engine <- e)
    changes;
  let values = Engine.svc_all ch.engine in
  addi acc "_reused_nodes" (Engine.circuit_reused_nodes ch.engine);
  addi acc "_reusable_nodes" (Engine.stats ch.engine).Stats.circuit_nodes;
  values

(* The telemetry guard: one operation with an enabled tracer against the
   same operation with a disabled one, alternating, medians compared. *)
let telemetry_overhead_pct ~pairs ~backend (inst : Inputs.instance) =
  let run enabled =
    let db = Db_text.parse inst.Inputs.db_text
    and q = Query_parse.parse inst.Inputs.query_text in
    let tel = Telemetry.create ~enabled () in
    let t0 = now () in
    ignore (Engine.svc_all (Engine.create ~tel ~backend q db));
    now () -. t0
  in
  let on = ref [] and off = ref [] in
  for i = 1 to pairs do
    if i mod 2 = 0 then begin
      on := run true :: !on;
      off := run false :: !off
    end
    else begin
      off := run false :: !off;
      on := run true :: !on
    end
  done;
  let med l = Pct.median (Array.of_list l) in
  (med !on -. med !off) /. med !off *. 100.

(* Ratios and the unattributed remainder of one finished cycle. *)
let finish acc =
  let ratio num den k = if get acc den > 0. then Hashtbl.replace acc k (get acc num /. get acc den) in
  ratio "_conditioning_ops" "_exact_ops" "engine.conditioning_share";
  ratio "_circuit_hits" "_circuit_lookups" "circuit.cache_hit_ratio";
  ratio "_memo_hits" "_memo_lookups" "engine.memo_hit_ratio";
  ratio "_reused_nodes" "_reusable_nodes" "circuit.reused_share";
  if get acc "sample.shapley_ms" > 0. then
    Hashtbl.replace acc "sample.evals_per_s"
      (get acc "sample.evals" /. (get acc "sample.shapley_ms" /. 1000.));
  let covered =
    List.fold_left
      (fun s k -> s +. get acc k)
      0.
      [ "lineage.build_ms"; "plan.analyze_ms"; "arith.factorial_table_ms";
        "circuit.compile_ms"; "circuit.evaluate_ms"; "lineage.condition_ms";
        "arith.claim_a1_ms"; "sample.shapley_ms" ]
  in
  Hashtbl.replace acc "engine.unattributed_ms"
    (get acc "engine.create_ms" +. get acc "engine.svc_all_ms" -. covered)
