type subst = string Term.Smap.t

(* Try to extend [binding] so that [atom] maps onto [fact]. *)
let match_atom binding (atom : Atom.t) (fact : Fact.t) : subst option =
  if Atom.rel atom <> Fact.rel fact || Atom.arity atom <> Fact.arity fact then None
  else begin
    let rec go binding ts cs =
      match (ts, cs) with
      | [], [] -> Some binding
      | Term.Const c :: ts', c' :: cs' -> if c = c' then go binding ts' cs' else None
      | Term.Var v :: ts', c' :: cs' ->
        (match Term.Smap.find_opt v binding with
         | Some c when c = c' -> go binding ts' cs'
         | Some _ -> None
         | None -> go (Term.Smap.add v c' binding) ts' cs')
      | _, _ -> None
    in
    go binding (Atom.args atom) (Fact.args fact)
  end

(* ------------------------------------------------------------------ *)
(* Argument index                                                       *)
(* ------------------------------------------------------------------ *)

(* The facts of [into] with one (relation, arity), in descending
   [Fact.compare] order (the order candidates are enumerated in), and,
   built on the first probe that pins a position, one table per argument
   position from a constant to the facts carrying it there.  Each bucket
   is a sublist of [facts] in the same order, stored with its length. *)
type group = {
  arity : int;
  mutable facts : Fact.t list;
  mutable size : int;
  mutable by_pos : (string, int * Fact.t list) Hashtbl.t array option;
}

let index_groups (into : Fact.Set.t) : (string * int, group) Hashtbl.t =
  let index = Hashtbl.create 16 in
  Fact.Set.iter
    (fun f ->
       let key = (Fact.rel f, Fact.arity f) in
       match Hashtbl.find_opt index key with
       | Some g ->
         g.facts <- f :: g.facts;
         g.size <- g.size + 1
       | None ->
         Hashtbl.add index key { arity = snd key; facts = [ f ]; size = 1; by_pos = None })
    into;
  index

let positions g =
  match g.by_pos with
  | Some tables -> tables
  | None ->
    let tables = Array.init g.arity (fun _ -> Hashtbl.create 16) in
    List.iter
      (fun f ->
         List.iteri
           (fun i c ->
              let n, l = Option.value ~default:(0, []) (Hashtbl.find_opt tables.(i) c) in
              Hashtbl.replace tables.(i) c (n + 1, f :: l))
           (Fact.args f))
      (List.rev g.facts);
    g.by_pos <- Some tables;
    tables

(* The candidates of an atom under a binding.  An atom that pins no
   position (no constant, no bound variable) and repeats no variable
   matches every fact of its group, so it is counted without matching
   anything; otherwise the smallest bucket among its pinned positions is
   filtered (the whole group when only a repeated variable constrains it). *)
type probe =
  | Whole of group
  | Matched of int * subst list

let probe_count = function Whole g -> g.size | Matched (n, _) -> n

let probe index binding atom =
  match Hashtbl.find_opt index (Atom.rel atom, Atom.arity atom) with
  | None -> Matched (0, [])
  | Some g ->
    let pin i c smallest =
      let (n, _) as bucket =
        Option.value ~default:(0, []) (Hashtbl.find_opt (positions g).(i) c)
      in
      match smallest with Some (m, _) when m <= n -> smallest | _ -> Some bucket
    in
    let rec scan i args unbound smallest repeats =
      match args with
      | [] -> (smallest, repeats)
      | Term.Const c :: rest -> scan (i + 1) rest unbound (pin i c smallest) repeats
      | Term.Var v :: rest ->
        (match Term.Smap.find_opt v binding with
         | Some c -> scan (i + 1) rest unbound (pin i c smallest) repeats
         | None -> scan (i + 1) rest (v :: unbound) smallest (repeats || List.mem v unbound))
    in
    let filter facts =
      let matched = List.filter_map (match_atom binding atom) facts in
      Matched (List.length matched, matched)
    in
    (match scan 0 (Atom.args atom) [] None false with
     | None, false -> Whole g
     | None, true -> filter g.facts
     | Some (_, bucket), _ -> filter bucket)

let candidates binding atom = function
  | Whole g -> List.filter_map (match_atom binding atom) g.facts
  | Matched (_, matched) -> matched

type ordering =
  | Fail_first
  | Syntactic

let iter_valuations ?(ordering = Fail_first) ~into ?(binding = Term.Smap.empty) atoms yield =
  let index = index_groups into in
  (* Fail-first: expand the first atom with the fewest candidates under
     the current binding (an atom with none ends the scan: nothing beats
     it).  The [Syntactic] ordering processes atoms in their given order
     (ablation baseline). *)
  let rec go binding pending =
    match pending with
    | [] -> yield binding
    | first :: rest_syntactic ->
      let first_probe = probe index binding first in
      let best, best_probe, rest =
        match ordering with
        | Syntactic -> (first, first_probe, rest_syntactic)
        | Fail_first ->
          let rec pick best best_probe best_n = function
            | a :: more when best_n > 0 ->
              let p = probe index binding a in
              let n = probe_count p in
              if n < best_n then pick a p n more else pick best best_probe best_n more
            | _ -> (best, best_probe)
          in
          let best, best_probe =
            pick first first_probe (probe_count first_probe) rest_syntactic
          in
          (best, best_probe, List.filter (fun a -> not (Atom.equal a best)) pending)
      in
      List.iter (fun binding' -> go binding' rest) (candidates binding best best_probe)
  in
  (* Duplicate atoms are redundant constraints and would be dropped together
     by the [filter] above; dedup once up front. *)
  go binding (List.sort_uniq Atom.compare atoms)

exception Found_subst of subst

let find_valuation ~into ?binding atoms =
  try
    iter_valuations ~into ?binding atoms (fun s -> raise (Found_subst s));
    None
  with Found_subst s -> Some s

let exists_valuation ~into ?binding atoms =
  Option.is_some (find_valuation ~into ?binding atoms)

let image subst atoms =
  List.fold_left
    (fun acc atom ->
       let ground =
         Atom.apply (Term.Smap.map Term.const subst) atom
       in
       match Fact.of_atom_opt ground with
       | Some f -> Fact.Set.add f acc
       | None -> invalid_arg "Homomorphism.image: valuation is not total")
    Fact.Set.empty atoms

(* ------------------------------------------------------------------ *)
(* Distinct images and their ⊆-minimal elements                         *)
(* ------------------------------------------------------------------ *)

(* Fact sets keyed by a hash of their elements in order: the AVL tree's
   shape is not canonical, so [Hashtbl.hash] on the set itself would tell
   equal sets apart.  The table holds the sets themselves, not a copy. *)
module Set_table = Hashtbl.Make (struct
    type t = Fact.Set.t

    let equal = Fact.Set.equal
    let hash s = Fact.Set.fold (fun f h -> (h * 31) + Hashtbl.hash f) s 0
  end)

(* The first occurrence of each distinct set, in order. *)
let distinct_of_iter iter =
  let seen = Set_table.create 64 and out = ref [] in
  iter (fun s ->
      if not (Set_table.mem seen s) then begin
        Set_table.add seen s ();
        out := s :: !out
      end);
  List.rev !out

(* The sets of a duplicate-free list that strictly contain no other one,
   in order.  Each set [s] is filed under its rarest fact (fewest
   occurrences across all sets, ties to the least under [Fact.compare]).
   A strict subset [o ⊊ s] has its rarest fact inside [s], so [s] is
   compared only with the smaller sets filed under one of its own facts.
   Filing under [min_elt] instead would file every star image under the
   shared hub fact and compare each image with all the others. *)
let minimal_of_distinct sets =
  if List.exists Fact.Set.is_empty sets then [ Fact.Set.empty ]
  else begin
    let sets = Array.of_list sets in
    let sizes = Array.map Fact.Set.cardinal sets in
    let occurrences : (Fact.t, int) Hashtbl.t = Hashtbl.create 256 in
    let count f = Option.value ~default:0 (Hashtbl.find_opt occurrences f) in
    Array.iter (Fact.Set.iter (fun f -> Hashtbl.replace occurrences f (count f + 1))) sets;
    let filed : (Fact.t, int list) Hashtbl.t = Hashtbl.create 256 in
    Array.iteri
      (fun i s ->
         let rarest, _ =
           Fact.Set.fold
             (fun f (best, n) -> let m = count f in if m < n then (f, m) else (best, n))
             s
             (Fact.Set.min_elt s, max_int)
         in
         Hashtbl.replace filed rarest
           (i :: Option.value ~default:[] (Hashtbl.find_opt filed rarest)))
      sets;
    let contains_smaller i =
      Fact.Set.exists
        (fun f ->
           List.exists
             (fun j -> sizes.(j) < sizes.(i) && Fact.Set.subset sets.(j) sets.(i))
             (Option.value ~default:[] (Hashtbl.find_opt filed f)))
        sets.(i)
    in
    List.filteri (fun i _ -> not (contains_smaller i)) (Array.to_list sets)
  end

let minimal_sets sets = minimal_of_distinct (distinct_of_iter (fun k -> List.iter k sets))

let all_images ~into atoms =
  distinct_of_iter (fun k -> iter_valuations ~into atoms (fun s -> k (image s atoms)))

let minimal_images ~into atoms = minimal_of_distinct (all_images ~into atoms)

(* ------------------------------------------------------------------ *)
(* Fact-set homomorphisms: view non-fixed constants as variables.      *)
(* ------------------------------------------------------------------ *)

let fact_to_pattern ~fixed (f : Fact.t) : Atom.t =
  Atom.make (Fact.rel f)
    (List.map
       (fun c -> if Term.Sset.mem c fixed then Term.const c else Term.var c)
       (Fact.args f))

let iter_fact_homs ~fixed src ~into yield =
  let patterns = List.map (fact_to_pattern ~fixed) (Fact.Set.elements src) in
  let fixed_part =
    Term.Sset.fold
      (fun c acc -> if Term.Sset.mem c (Fact.Set.consts src) then Term.Smap.add c c acc else acc)
      fixed Term.Smap.empty
  in
  iter_valuations ~into patterns (fun s ->
      yield (Term.Smap.union (fun _ a _ -> Some a) s fixed_part))

exception Found_hom of string Term.Smap.t

let find_fact_hom ~fixed src ~into =
  try
    iter_fact_homs ~fixed src ~into (fun h -> raise (Found_hom h));
    None
  with Found_hom h -> Some h

let exists_fact_hom ~fixed src ~into =
  Option.is_some (find_fact_hom ~fixed src ~into)

(* ------------------------------------------------------------------ *)
(* Reference implementations                                            *)
(* ------------------------------------------------------------------ *)

module For_tests = struct
  (* Facts of [into] indexed by relation name, for candidate generation. *)
  let index_by_rel (into : Fact.Set.t) : Fact.t list Term.Smap.t =
    Fact.Set.fold
      (fun f acc ->
         Term.Smap.update (Fact.rel f)
           (function None -> Some [ f ] | Some l -> Some (f :: l))
           acc)
      into Term.Smap.empty

  let candidates index binding atom =
    let facts =
      match Term.Smap.find_opt (Atom.rel atom) index with
      | None -> []
      | Some l -> l
    in
    List.filter_map
      (fun f -> match match_atom binding atom f with Some b -> Some (f, b) | None -> None)
      facts

  let iter_valuations ?(ordering = Fail_first) ~into ?(binding = Term.Smap.empty) atoms yield =
    let index = index_by_rel into in
    let rec go binding pending =
      match pending with
      | [] -> yield binding
      | first :: rest_syntactic ->
        let best_cands, rest =
          match ordering with
          | Syntactic -> (candidates index binding first, rest_syntactic)
          | Fail_first ->
            let scored = List.map (fun a -> (a, candidates index binding a)) pending in
            let best, best_cands =
              List.fold_left
                (fun (ba, bc) (a, c) ->
                   if List.length c < List.length bc then (a, c) else (ba, bc))
                (List.hd scored) (List.tl scored)
            in
            (best_cands, List.filter (fun a -> not (Atom.equal a best)) pending)
        in
        List.iter (fun (_, binding') -> go binding' rest) best_cands
    in
    go binding (List.sort_uniq Atom.compare atoms)

  let all_images ~into atoms =
    let seen = ref [] in
    iter_valuations ~into atoms (fun s ->
        let img = image s atoms in
        if not (List.exists (Fact.Set.equal img) !seen) then seen := img :: !seen);
    List.rev !seen

  let minimal_images ~into atoms =
    let images = all_images ~into atoms in
    List.filter
      (fun img ->
         not
           (List.exists
              (fun other -> Fact.Set.subset other img && not (Fact.Set.equal other img))
              images))
      images
end
