(* Seeded benchmark inputs.

   Every instance starts from a registered [Workload] family at a fixed
   (family seed, size), so its structure and cost are fixed by the
   workload definition.  The benchmark's [--seed] then only changes the
   text the program is handed: it renames every constant the query does
   not mention and shuffles the fact lines.  The renaming inserts one
   seed-derived tag after a constant's first character, which keeps the
   relative order of all constants (and therefore of all facts, whose
   order breaks ties in the planner and the circuit compiler), so every
   seed yields an isomorphic instance with the same lineage and circuits;
   only tie-breaks in hash order can differ. *)

type instance = {
  label : string;  (** population name, e.g. ["rpq-road-26"] *)
  weight : int;  (** operations of this instance per cycle *)
  query_text : string;
  db_text : string;
}

(* One serve-delta operation: a request frame's payload and what the
   harness expects of it. *)
type serve_kind = Write of Engine.change | Delta | Hit | Miss

type serve_op = {
  kind : serve_kind;
  payload : string;
  state : int;  (** database state the answer must describe; -1 for writes *)
}

type serve = {
  db_name : string;
  serve_db_text : string;  (** the initial state *)
  hot_query : string;
  first_eval : string;  (** the setup eval of the hot key *)
  prelude : serve_op;  (** the write between the setup eval and cycle 0 *)
  cycles : serve_op list array;  (** one period of the script *)
  pool : string list;  (** the toggled S facts, by state index below *)
}

let kind_name = function
  | Write _ -> "write"
  | Delta -> "delta"
  | Hit -> "hit"
  | Miss -> "miss"

(* ---------- seeded renaming and shuffling ---------- *)

let tag_of_seed seed =
  let st = Random.State.make [| seed; 0x5eed |] in
  String.init 4 (fun _ -> Char.chr (Char.code 'a' + Random.State.int st 26))

let rename_constant tag c =
  if c = "" then c
  else String.sub c 0 1 ^ tag ^ String.sub c 1 (String.length c - 1)

(* The renaming of [consts] minus [keep]; fails loudly if it would
   reorder a renamed constant against a kept one. *)
let renaming ~seed ~keep consts =
  let tag = tag_of_seed seed in
  let renamed =
    List.filter_map
      (fun c ->
         if Term.Sset.mem c keep then None else Some (c, rename_constant tag c))
      consts
  in
  List.iter
    (fun (c, c') ->
       Term.Sset.iter
         (fun k ->
            if compare c k <> compare c' k then
              failwith
                (Printf.sprintf "renaming %s -> %s reorders it against %s" c
                   c' k))
         keep)
    renamed;
  List.fold_left (fun m (c, c') -> Term.Smap.add c c' m) Term.Smap.empty renamed

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let db_text_of ~st db =
  let line part f = part ^ " " ^ Fact.to_string f in
  let lines =
    Array.of_list
      (List.map (line "endo") (Fact.Set.elements (Database.endo db))
       @ List.map (line "exo") (Fact.Set.elements (Database.exo db)))
  in
  shuffle st lines;
  String.concat "\n" (Array.to_list lines) ^ "\n"

(* A family instance as seeded text: (query text, renamed database, text). *)
let seeded_case ~seed ~family ~size ~fseed =
  let case = Workload.generate ~family ~seed:fseed ~size in
  let keep = Query.consts case.Workload.query in
  let map =
    renaming ~seed ~keep (Term.Sset.elements (Database.consts case.Workload.db))
  in
  let db = Database.rename map case.Workload.db in
  let st = Random.State.make [| seed; Hashtbl.hash family; size |] in
  (case.Workload.query_src, db, db_text_of ~st db)

(* ---------- workload definitions ---------- *)

(* (family, size, family seed, operations per cycle).  Weights and sizes
   put the p50 rank and the tail rank each inside one population; see
   README.md, "Design rules". *)
let exact_mix_spec =
  [
    ("endogenous", 15, 1, 1);
    ("max-svc", 20, 1, 1);
    ("cqneg", 22, 1, 1);
    ("const-svc", 28, 1, 1);
    ("crpq", 60, 1, 1);
    ("star", 300, 1, 1);
    ("bipartite", 6, 0, 2);
    ("rpq-road", 26, 1, 1);
  ]

let sample_scale_spec = [ ("bipartite", 40, 0, 1); ("star", 600, 0, 3) ]

let instances ~seed spec =
  List.map
    (fun (family, size, fseed, weight) ->
       let query_text, _, db_text = seeded_case ~seed ~family ~size ~fseed in
       { label = Printf.sprintf "%s-%d" family size; weight; query_text; db_text })
    spec

(* serve-delta: the complete 6x6 bipartite instance behind one server.
   Each cycle toggles the pool (insert the fact deleted last cycle,
   delete the next one), catches the hot key up by one delta eval,
   answers [hits] hits on it, and misses once on a cold key drawn from
   a rotation of [cold_keys] > LRU-capacity variable renamings of the
   same query. *)
let serve_hits = 8
let cold_keys = Server.default_capacity + 2
let pool_size = 3

let json_str s = "\"" ^ String.escaped s ^ "\""

(* cold key i: the hot query with its variables renamed *)
let cold_query i = Printf.sprintf "R(?x%d), S(?x%d,?y%d), T(?y%d)" i i i i

let serve ~seed =
  let db_name = "g" ^ tag_of_seed seed in
  let hot_query, db, serve_db_text =
    seeded_case ~seed ~family:"bipartite" ~size:6 ~fseed:0
  in
  (* the pool is the diagonal S(l_i, r_i), i < pool_size: fixed
     positions in fact order, so every seed toggles the same structure *)
  let s_facts =
    Array.of_list
      (List.filter (fun f -> Fact.rel f = "S") (Fact.Set.elements (Database.endo db)))
  in
  let pool = List.init pool_size (fun i -> s_facts.(i * 7)) in
  let eval q =
    Printf.sprintf {|{"op":"eval","db":%s,"query":%s}|} (json_str db_name)
      (json_str q)
  in
  let write change =
    let op, f =
      match change with `Insert (_, f) -> ("insert", f) | `Delete f -> ("delete", f)
    in
    { kind = Write change;
      payload =
        Printf.sprintf {|{"op":"%s","db":%s,"fact":%s}|} op (json_str db_name)
          (json_str (Fact.to_string f));
      state = -1 }
  in
  (* state k: pool fact (k mod pool_size) deleted; one period covers
     every (state, cold key) combination *)
  let period = pool_size * cold_keys in
  let cycle c =
    let state = c mod pool_size in
    let prev = (c + pool_size - 1) mod pool_size in
    [ write (`Insert (`Endo, List.nth pool prev));
      write (`Delete (List.nth pool state));
      { kind = Delta; payload = eval hot_query; state } ]
    @ List.init serve_hits (fun _ -> { kind = Hit; payload = eval hot_query; state })
    @ [ { kind = Miss; payload = eval (cold_query (c mod cold_keys)); state } ]
  in
  {
    db_name;
    serve_db_text;
    hot_query;
    first_eval = eval hot_query;
    (* delete pool fact [pool_size - 1], so cycle 0's insert finds it
       absent *)
    prelude = write (`Delete (List.nth pool (pool_size - 1)));
    cycles = Array.init period cycle;
    pool = List.map Fact.to_string pool;
  }

(* Database text of state [k]: the initial text minus pool fact k. *)
let state_db_text s k =
  let gone = "endo " ^ List.nth s.pool k in
  String.concat "\n"
    (List.filter (fun l -> l <> gone) (String.split_on_char '\n' s.serve_db_text))

(* The database changes a list of serve operations makes, in order. *)
let changes ops = List.filter_map (fun o -> match o.kind with Write c -> Some c | _ -> None) ops

let digest_of_strings parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))
