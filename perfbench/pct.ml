(* Order statistics over one run's samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank: the sample of 1-based rank [ceil (p/100 * n)]. *)
let nearest_rank_index ~n p = max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.
