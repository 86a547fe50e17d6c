(* The benchmark's operations, each through a library entry point a user
   times, and the checks that decide whether an answer is right. *)

let now = Unix.gettimeofday

(* ---------- per-operation deadline ---------- *)

exception Deadline

let () = Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Deadline))

let set_alarm secs =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = secs })

(* Run [f] under a wall-clock limit.  An operation still running at the
   limit is abandoned (the alarm raises inside it) and reported as an
   error, so a regressed instance ends its operation instead of
   stalling the run. *)
let with_deadline secs f =
  try
    set_alarm secs;
    let r = try Ok (f ()) with Deadline -> Error "deadline" | e -> Error (Printexc.to_string e) in
    set_alarm 0.;
    r
  with Deadline -> Error "deadline"

(* [timed ~limit f] is (seconds, result); the clock covers [f] only. *)
let timed ~limit f =
  let t0 = now () in
  let r = with_deadline limit f in
  (now () -. t0, r)

(* ---------- answers ---------- *)

(* An answer in comparable form: (fact, exact value) strings in the
   order the program returned them. *)
type answer = (string * string) list

let answer_of_values vs =
  List.map (fun (f, v) -> (Fact.to_string f, Rational.to_string v)) vs

let digest (a : answer) =
  Digest.to_hex
    (Digest.string
       (String.concat ";" (List.map (fun (f, v) -> f ^ "=" ^ v) a)))

(* v(D) - v(Dx): what the Shapley values of all endogenous facts sum to. *)
let efficiency_gap q db =
  let v d = if Query.holds q d then 1 else 0 in
  Rational.of_int
    (v db - v (Database.of_sets ~endo:Fact.Set.empty ~exo:(Database.exo db)))

let sum_values vs = List.fold_left (fun s (_, v) -> Rational.add s v) Rational.zero vs

(* ---------- exact-mix: the svc eval library path ---------- *)

let parse (inst : Inputs.instance) =
  (Db_text.parse inst.Inputs.db_text, Query_parse.parse inst.Inputs.query_text)

let exact (inst : Inputs.instance) =
  let db, q = parse inst in
  Engine.svc_all (Engine.create q db)

(* Instances up to this many endogenous facts are checked against the
   brute-force [Svc.svc_all_naive]; larger ones against the exact
   backend [`Auto] did not pick. *)
let naive_max_facts = 16

(* The independent reference: its digest, or the reason it disagrees
   with efficiency. *)
let exact_reference (inst : Inputs.instance) =
  let db, q = parse inst in
  let vs =
    if Database.size_endo db <= naive_max_facts then Svc.svc_all_naive q db
    else
      let other =
        match Engine.backend (Engine.create q db) with
        | `Circuit -> `Conditioning
        | `Conditioning | `Sample _ -> `Circuit
      in
      Engine.svc_all (Engine.create ~backend:other q db)
  in
  if Rational.equal (sum_values vs) (efficiency_gap q db) then
    Ok (digest (answer_of_values vs))
  else Error "reference values do not sum to v(D) - v(Dx)"

(* ---------- sample-scale: svc eval --backend sample --strategy mc ---------- *)

let epsilon = Rational.of_ints 1 20

let sample_config = Sample.config ~strategy:Sample.Monte_carlo ~epsilon ()

let sample (inst : Inputs.instance) =
  let db, q = parse inst in
  let e = Engine.create ~backend:(`Sample sample_config) q db in
  let vs = Engine.svc_all e in
  (vs, Engine.sample_report e)

(* Converged, every half-width within epsilon, every flag agreeing with
   its width, estimates matching the answer and summing to v(D) - v(Dx). *)
let check_sample ~gap (vs, report) =
  match report with
  | None -> Error "no sample report"
  | Some (r : Sample.report) ->
    let within (e : Sample.estimate) = Rational.leq e.Sample.half_width epsilon in
    if not r.Sample.all_converged then Error "not converged"
    else if not (Array.for_all within r.Sample.estimates) then
      Error "half-width above epsilon"
    else if
      not
        (Array.for_all
           (fun (e : Sample.estimate) -> e.Sample.converged = within e)
           r.Sample.estimates)
    then Error "convergence flag disagrees with its width"
    else if
      List.length vs <> Array.length r.Sample.estimates
      || not
           (List.for_all2
              (fun (f, v) (e : Sample.estimate) ->
                 Fact.equal f e.Sample.fact && Rational.equal v e.Sample.value)
              vs (Array.to_list r.Sample.estimates))
    then Error "answer differs from the sample report"
    else if not (Rational.equal (sum_values vs) gap) then
      Error "estimates do not sum to v(D) - v(Dx)"
    else Ok ()

(* ---------- serve-delta: frames through Server.serve_string ---------- *)

let serve_request server payload = Server.serve_string server (Frame.encode payload)

let field k = function
  | Tracejson.Obj kvs -> List.assoc_opt k kvs
  | _ -> None

(* A response frame as (cache status, answer); writes have no answer. *)
let decode_response resp =
  match Frame.read (Frame.source_of_string resp) with
  | Ok (Some payload) -> (
      match Tracejson.parse payload with
      | Error m -> Error ("unparsable response: " ^ m)
      | Ok j -> (
          match field "ok" j with
          | Some (Tracejson.Bool true) ->
            let status =
              match field "cache" j with Some (Tracejson.Str s) -> s | _ -> ""
            in
            let values =
              match field "values" j with
              | Some (Tracejson.Arr vs) ->
                List.filter_map
                  (fun v ->
                     match (field "fact" v, field "value" v) with
                     | Some (Tracejson.Str f), Some (Tracejson.Str x) -> Some (f, x)
                     | _ -> None)
                  vs
              | _ -> []
            in
            Ok (status, values)
          | _ -> Error ("error response: " ^ payload)))
  | Ok None -> Error "empty response"
  | Error e -> Error (Frame.error_message e)

(* Cold reference for one database state of the serve script. *)
let serve_reference ~db_text ~query_text =
  let db = Db_text.parse db_text and q = Query_parse.parse query_text in
  let vs = Engine.svc_all (Engine.create q db) in
  if Rational.equal (sum_values vs) (efficiency_gap q db) then
    Ok (digest (answer_of_values vs))
  else Error "reference values do not sum to v(D) - v(Dx)"

(* ---------- process memory ---------- *)

(* VmHWM of this process in MiB. *)
let peak_mem_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = find () in
  close_in ic;
  float_of_int kb /. 1024.
