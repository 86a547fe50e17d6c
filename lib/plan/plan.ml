(* Static compilation planner.

   Everything here is the *producer* side of a certificate: the
   AND-component partition comes from grouping the root conjuncts by
   shared variables (the same union-find discipline as
   [Compile.conjunct_components], routed through the relational
   [Incidence] helper), the co-occurrence graph from one clique per
   syntactic constraint, and the orders from greedy elimination.  None
   of it is trusted downstream — [Plancheck] re-derives the partition
   and the graph from the raw formula and replays every order. *)

module Iset = Set.Make (Int)

type heuristic = Min_degree | Min_fill | Best

let heuristic_name = function
  | Min_degree -> "min-degree"
  | Min_fill -> "min-fill"
  | Best -> "best"

let heuristic_of_string = function
  | "min-degree" -> Some Min_degree
  | "min-fill" -> Some Min_fill
  | "best" -> Some Best
  | _ -> None

type component = {
  cvars : Fact.t list;
  order : Fact.t list;
  branch : Fact.t list;
  width : int;
  picked : heuristic;
}

type t = {
  n_vars : int;
  components : component list;
  max_width : int;
  predicted_nodes : int;
  requested : heuristic;
}

let huge_nodes = 1_000_000_000

(* ------------------------------------------------------------------ *)
(* Co-occurrence cliques                                               *)
(* ------------------------------------------------------------------ *)

(* One clique per syntactic constraint: a disjunct couples all its
   variables, a conjunction couples nothing by itself.  On DNF-style
   lineages this is the primal graph of the support hypergraph. *)
let cliques phi =
  let rec go acc phi =
    match phi with
    | Bform.True | Bform.False -> acc
    | Bform.Fv f -> Fact.Set.singleton f :: acc
    | Bform.Not p -> go acc p
    | Bform.And ps -> List.fold_left go acc ps
    | Bform.Or ps ->
      List.fold_left (fun acc p -> Bform.vars p :: acc) acc ps
  in
  List.rev (go [] phi)

(* ------------------------------------------------------------------ *)
(* Greedy elimination                                                  *)
(* ------------------------------------------------------------------ *)

(* Adjacency sets over vertex indices 0..m-1.  Components are small
   (one lineage's variables), so the O(m²·d²) greedy loops below are
   never the bottleneck — the circuit compilation they steer is. *)
let graph_of vars_arr clique_list =
  let m = Array.length vars_arr in
  let index : (Fact.t, int) Hashtbl.t = Hashtbl.create (2 * m + 1) in
  Array.iteri (fun i f -> Hashtbl.replace index f i) vars_arr;
  let adj = Array.make m Iset.empty in
  List.iter
    (fun cl ->
       let ids =
         Fact.Set.fold
           (fun f acc ->
              match Hashtbl.find_opt index f with
              | Some i -> i :: acc
              | None -> acc)
           cl []
       in
       List.iter
         (fun a ->
            List.iter
              (fun b -> if a <> b then adj.(a) <- Iset.add b adj.(a))
              ids)
         ids)
    clique_list;
  adj

(* Eliminate every vertex, [pick] choosing the next victim; returns the
   order, the induced width (max degree at elimination, fill edges
   included) and each vertex's neighbour set at the moment it was
   eliminated (the filled-graph structure the pseudo-tree is read off).
   [adj0] is not mutated. *)
let eliminate ~pick adj0 =
  let m = Array.length adj0 in
  let adj = Array.copy adj0 in
  let alive = Array.make m true in
  let order = ref [] in
  let width = ref 0 in
  let elim_nbrs = Array.make m Iset.empty in
  for _ = 1 to m do
    let v = pick alive adj in
    elim_nbrs.(v) <- adj.(v);
    let nbrs = Iset.elements adj.(v) in
    width := max !width (List.length nbrs);
    List.iter
      (fun a ->
         adj.(a) <- Iset.remove v adj.(a);
         List.iter (fun b -> if b <> a then adj.(a) <- Iset.add b adj.(a)) nbrs)
      nbrs;
    adj.(v) <- Iset.empty;
    alive.(v) <- false;
    order := v :: !order
  done;
  (List.rev !order, !width, elim_nbrs)

(* Pseudo-tree preorder: the decision order the elimination order
   implies.  In the filled graph, a vertex's parent is its
   earliest-eliminated-after-it neighbour (the standard bucket-tree
   construction); branching in preorder — parent decided before its
   subtrees, later-eliminated children first — keeps every decision's
   live cut inside one tree path, so the conditioned sub-formulas
   cluster into at most 2^width classes per vertex.  A naive reverse of
   the elimination order loses this locality: it decides whole "levels"
   across sibling subtrees and pays for their product. *)
let branch_of_elimination order elim_nbrs =
  let m = Array.length elim_nbrs in
  let pos = Array.make m 0 in
  List.iteri (fun i v -> pos.(v) <- i) order;
  let parent = Array.make m (-1) in
  List.iter
    (fun v ->
       Iset.iter
         (fun w ->
            if parent.(v) < 0 || pos.(w) < pos.(parent.(v)) then
              parent.(v) <- w)
         elim_nbrs.(v))
    order;
  let children = Array.make m [] in
  List.iter
    (fun v ->
       if parent.(v) >= 0 then
         children.(parent.(v)) <- v :: children.(parent.(v)))
    order;
  let out = ref [] in
  let rec visit v =
    out := v :: !out;
    List.iter visit
      (List.sort (fun a b -> compare pos.(b) pos.(a)) children.(v))
  in
  (* roots (isolated or last of their tree) in reverse elimination order *)
  List.iter (fun v -> if parent.(v) < 0 then visit v) (List.rev order);
  List.rev !out

(* Ties break towards the smallest vertex index; vertices are indexed in
   Fact.compare order, so both heuristics are fully deterministic. *)
let pick_min_degree alive adj =
  let best = ref (-1) and best_d = ref max_int in
  Array.iteri
    (fun i live ->
       if live then begin
         let d = Iset.cardinal adj.(i) in
         if d < !best_d then begin
           best := i;
           best_d := d
         end
       end)
    alive;
  !best

let fill_of adj v =
  let nbrs = Iset.elements adj.(v) in
  let rec pairs = function
    | [] -> 0
    | a :: rest ->
      List.fold_left
        (fun acc b -> if Iset.mem b adj.(a) then acc else acc + 1)
        0 rest
      + pairs rest
  in
  pairs nbrs

let pick_min_fill alive adj =
  let best = ref (-1) and best_key = ref (max_int, max_int) in
  Array.iteri
    (fun i live ->
       if live then begin
         let key = (fill_of adj i, Iset.cardinal adj.(i)) in
         if key < !best_key then begin
           best := i;
           best_key := key
         end
       end)
    alive;
  !best

(* ------------------------------------------------------------------ *)
(* Per-component analysis                                              *)
(* ------------------------------------------------------------------ *)

let order_component ~heuristic vars_arr clique_list =
  let adj = graph_of vars_arr clique_list in
  let run h =
    match h with
    | Min_degree ->
      let o, w, nb = eliminate ~pick:pick_min_degree adj in
      (o, w, nb, Min_degree)
    | Min_fill | Best ->
      let o, w, nb = eliminate ~pick:pick_min_fill adj in
      (o, w, nb, Min_fill)
  in
  let o, w, nb, picked =
    match heuristic with
    | Min_degree | Min_fill -> run heuristic
    | Best ->
      let (_, wd, _, _) as deg = run Min_degree in
      let (_, wf, _, _) as fil = run Min_fill in
      if wd < wf then deg else fil
  in
  let branch = branch_of_elimination o nb in
  {
    cvars = Array.to_list vars_arr;
    order = List.map (fun i -> vars_arr.(i)) o;
    branch = List.map (fun i -> vars_arr.(i)) branch;
    width = w;
    picked;
  }

(* The root-level AND-component split: group the flattened conjuncts of
   a conjunctive root by shared variables (any other root is a single
   component).  Routed through the relational incidence helper — the
   same union-find the compiler's decomposition rule uses. *)
let blocks phi =
  match phi with
  | Bform.True | Bform.False -> []
  | Bform.And parts ->
    let tagged = List.map (fun p -> (p, Bform.vars p)) parts in
    Incidence.group_by_shared
      (fun (_, vs) -> List.map Fact.to_string (Fact.Set.elements vs))
      tagged
    |> List.filter_map (fun group ->
        let vs =
          List.fold_left
            (fun acc (_, v) -> Fact.Set.union acc v)
            Fact.Set.empty group
        in
        if Fact.Set.is_empty vs then None
        else Some (List.map fst group, vs))
  | _ -> [ ([ phi ], Bform.vars phi) ]

let saturating_add a b = if a >= huge_nodes - b then huge_nodes else a + b

let predicted_of_component nv w =
  let bits = min (w + 1) 24 in
  let per = (nv + 1) * (1 lsl bits) in
  if per >= huge_nodes || per < 0 then huge_nodes else per

let analyze ?(tel = Telemetry.disabled ()) ?(heuristic = Best) phi =
  Telemetry.span tel "plan.analyze" @@ fun () ->
  let blocks =
    List.sort
      (fun (_, v1) (_, v2) ->
         Fact.compare (Fact.Set.min_elt v1) (Fact.Set.min_elt v2))
      (blocks phi)
  in
  let components =
    Telemetry.span tel "plan.order" @@ fun () ->
    List.map
      (fun (parts, vs) ->
         let vars_arr = Array.of_list (Fact.Set.elements vs) in
         let cls =
           List.concat_map (fun p -> cliques p) parts
         in
         order_component ~heuristic vars_arr cls)
      blocks
  in
  let n_vars =
    List.fold_left (fun acc c -> acc + List.length c.cvars) 0 components
  in
  let max_width = List.fold_left (fun acc c -> max acc c.width) 0 components in
  let predicted_nodes =
    List.fold_left
      (fun acc c ->
         saturating_add acc
           (predicted_of_component (List.length c.cvars) c.width))
      0 components
  in
  Telemetry.Gauge.set
    (Telemetry.gauge tel "plan.components")
    (List.length components);
  Telemetry.Gauge.set (Telemetry.gauge tel "plan.max_width") max_width;
  { n_vars; components; max_width; predicted_nodes; requested = heuristic }

(* ------------------------------------------------------------------ *)
(* Component-local replan                                              *)
(* ------------------------------------------------------------------ *)

(* Components partition the variables, so a component is identified by
   its variable set; the canonical string key below is injective on
   sorted fact lists. *)
let component_key vs =
  String.concat "\x00" (List.map Fact.to_string (Fact.Set.elements vs))

(* Replay a previously derived elimination order on the *new* graph: the
   width we report is the induced width on the actual co-occurrence
   structure, never the stale claim, so a replayed component still
   passes [Plancheck].  Falls back to the fresh heuristic whenever the
   replayed order stopped being a permutation of the component or its
   width degraded past the previous claim. *)
let replay_component ~heuristic prev vars_arr clique_list =
  let index : (Fact.t, int) Hashtbl.t =
    Hashtbl.create (2 * Array.length vars_arr + 1)
  in
  Array.iteri (fun i f -> Hashtbl.replace index f i) vars_arr;
  let order_idx =
    List.filter_map (fun f -> Hashtbl.find_opt index f) prev.order
  in
  if List.length order_idx <> Array.length vars_arr then
    order_component ~heuristic vars_arr clique_list
  else begin
    let adj = graph_of vars_arr clique_list in
    let remaining = ref order_idx in
    let pick _alive _adj =
      match !remaining with
      | v :: rest ->
        remaining := rest;
        v
      | [] -> invalid_arg "Plan.replay_component: order exhausted"
    in
    let o, w, nb = eliminate ~pick adj in
    if w > prev.width then order_component ~heuristic vars_arr clique_list
    else
      let branch = branch_of_elimination o nb in
      {
        cvars = Array.to_list vars_arr;
        order = List.map (fun i -> vars_arr.(i)) o;
        branch = List.map (fun i -> vars_arr.(i)) branch;
        width = w;
        picked = prev.picked;
      }
  end

let replan ?(tel = Telemetry.disabled ()) ?(heuristic = Best) ~previous phi =
  Telemetry.span tel "plan.replan" @@ fun () ->
  let blocks =
    List.sort
      (fun (_, v1) (_, v2) ->
         Fact.compare (Fact.Set.min_elt v1) (Fact.Set.min_elt v2))
      (blocks phi)
  in
  let prev_by_key : (string, component) Hashtbl.t =
    Hashtbl.create (2 * List.length previous.components + 1)
  in
  List.iter
    (fun c ->
       Hashtbl.replace prev_by_key
         (component_key (Fact.Set.of_list c.cvars))
         c)
    previous.components;
  let reused = ref 0 in
  let components =
    List.map
      (fun (parts, vs) ->
         let vars_arr = Array.of_list (Fact.Set.elements vs) in
         let cls = List.concat_map (fun p -> cliques p) parts in
         match Hashtbl.find_opt prev_by_key (component_key vs) with
         | Some prev ->
           let c = replay_component ~heuristic prev vars_arr cls in
           (* only count it reused if the replay survived the width check *)
           if c.picked = prev.picked && c.order = prev.order then incr reused;
           c
         | None -> order_component ~heuristic vars_arr cls)
      blocks
  in
  let n_vars =
    List.fold_left (fun acc c -> acc + List.length c.cvars) 0 components
  in
  let max_width = List.fold_left (fun acc c -> max acc c.width) 0 components in
  let predicted_nodes =
    List.fold_left
      (fun acc c ->
         saturating_add acc
           (predicted_of_component (List.length c.cvars) c.width))
      0 components
  in
  Telemetry.Gauge.set
    (Telemetry.gauge tel "plan.components")
    (List.length components);
  Telemetry.Gauge.set (Telemetry.gauge tel "plan.max_width") max_width;
  Telemetry.Gauge.set (Telemetry.gauge tel "plan.reused_components") !reused;
  ( { n_vars; components; max_width; predicted_nodes; requested = heuristic },
    !reused )

(* ------------------------------------------------------------------ *)
(* Derived views                                                       *)
(* ------------------------------------------------------------------ *)

let branch_order t = List.concat_map (fun c -> c.branch) t.components

let component_count t = List.length t.components

let component_index t =
  let tbl : (Fact.t, int) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun i c -> List.iter (fun f -> Hashtbl.replace tbl f i) c.cvars)
    t.components;
  tbl

(* Every exact run compiles the circuit; see plan.mli. *)
let recommend _ ~n_facts:_ = `Circuit

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let facts_line fs = String.concat ", " (List.map Fact.to_string fs)

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "plan : %d component(s) over %d variable(s), max width %d, ~%d \
        predicted nodes\n"
       (List.length t.components) t.n_vars t.max_width t.predicted_nodes);
  List.iteri
    (fun i c ->
       Buffer.add_string buf
         (Printf.sprintf "  component %d : %d var(s), width %d [%s]\n" (i + 1)
            (List.length c.cvars) c.width (heuristic_name c.picked));
       Buffer.add_string buf
         (Printf.sprintf "    elimination order : %s\n" (facts_line c.order));
       Buffer.add_string buf
         (Printf.sprintf "    branch order      : %s\n" (facts_line c.branch)))
    t.components;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jstr s = "\"" ^ json_escape s ^ "\""
let jfacts fs = "[" ^ String.concat "," (List.map (fun f -> jstr (Fact.to_string f)) fs) ^ "]"

let to_json t =
  Printf.sprintf
    "{\"n_vars\":%d,\"max_width\":%d,\"predicted_nodes\":%d,\"components\":[%s]}"
    t.n_vars t.max_width t.predicted_nodes
    (String.concat ","
       (List.map
          (fun c ->
             Printf.sprintf
               "{\"vars\":%s,\"order\":%s,\"branch\":%s,\"width\":%d,\
                \"heuristic\":%s}"
               (jfacts c.cvars) (jfacts c.order) (jfacts c.branch) c.width
               (jstr (heuristic_name c.picked)))
          t.components))
