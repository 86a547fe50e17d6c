(* Anytime sampling SVC estimator.

   Everything here is exact rational arithmetic over integer draw sums:
   the only randomness is the seeded PRNG, so a run is a pure function
   of (lineage, universe, config) — the determinism contract the test
   layer pins (same seed => bit-identical report).

   The stratified view: for a universe U with |U| = n and μ ∈ U,

     Sh(μ) = (1/n) Σ_{k=0}^{n-1} E_k(μ),
     E_k(μ) = (FGMC_k(φ[μ:=1]) - FGMC_k(φ[μ:=0])) / C(n-1, k)

   — the expected marginal contribution of μ over uniform size-k
   coalitions of U∖{μ}.  Since (1/n)/C(n-1,k) = k!(n-1-k)!/n!, a stratum
   computed exactly contributes its Claim A.1 terms verbatim, which is
   why the hybrid estimator with every stratum exact equals the exact
   engines rationally, not just approximately. *)

type strategy = Monte_carlo | Stratified | Hybrid

let strategy_to_string = function
  | Monte_carlo -> "mc"
  | Stratified -> "stratified"
  | Hybrid -> "hybrid"

let strategy_of_string = function
  | "mc" | "monte-carlo" -> Some Monte_carlo
  | "stratified" -> Some Stratified
  | "hybrid" -> Some Hybrid
  | _ -> None

type bound = Hoeffding | Bernstein

let bound_to_string = function Hoeffding -> "hoeffding" | Bernstein -> "bernstein"

let bound_of_string = function
  | "hoeffding" -> Some Hoeffding
  | "bernstein" -> Some Bernstein
  | _ -> None

type config = {
  strategy : strategy;
  seed : int;
  epsilon : Rational.t;
  confidence : Rational.t;
  max_draws : int;
  batch : int;
  exact_cap : int;
  bound : bound;
}

let default =
  {
    strategy = Hybrid;
    seed = 0;
    epsilon = Rational.of_ints 1 20;
    confidence = Rational.of_ints 19 20;
    max_draws = 4096;
    batch = 64;
    exact_cap = 512;
    bound = Hoeffding;
  }

let validate cfg =
  if Rational.sign cfg.epsilon <= 0 then
    invalid_arg "Sample: epsilon must be > 0";
  if Rational.sign cfg.confidence <= 0
     || not (Rational.lt cfg.confidence Rational.one) then
    invalid_arg "Sample: confidence must be in (0, 1)";
  if cfg.max_draws < 1 then invalid_arg "Sample: max_draws must be >= 1";
  if cfg.batch < 1 then invalid_arg "Sample: batch must be >= 1";
  if cfg.exact_cap < 0 then invalid_arg "Sample: exact_cap must be >= 0"

let config ?(strategy = default.strategy) ?(seed = default.seed)
    ?(epsilon = default.epsilon) ?(confidence = default.confidence)
    ?(max_draws = default.max_draws) ?(batch = default.batch)
    ?(exact_cap = default.exact_cap) ?(bound = default.bound) () =
  let cfg =
    { strategy; seed; epsilon; confidence; max_draws; batch; exact_cap; bound }
  in
  validate cfg;
  cfg

type estimate = {
  fact : Fact.t;
  value : Rational.t;
  half_width : Rational.t;
  draws : int;
  exact_strata : int;
  sampled_strata : int;
  converged : bool;
}

type report = {
  estimates : estimate array;
  total_draws : int;
  total_evals : int;
  max_half_width : Rational.t;
  all_converged : bool;
}

(* ------------------------------------------------------------------ *)
(* Seeded PRNG                                                         *)
(* ------------------------------------------------------------------ *)

module Rng = struct
  type t = { mutable s : int64 }

  let golden = 0x9E3779B97F4A7C15L

  (* splitmix64's output mixer: a bijection on 64-bit words with full
     avalanche, used both to seed and to derive substreams *)
  let mix64 z =
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* xorshift64* needs a nonzero state *)
  let of_state z = { s = (if Int64.equal z 0L then golden else z) }

  let create seed = of_state (mix64 (Int64.add (Int64.of_int seed) golden))

  let of_path seed path =
    let z0 = mix64 (Int64.add (Int64.of_int seed) golden) in
    of_state
      (List.fold_left
         (fun acc i ->
            mix64 (Int64.add (Int64.mul acc 0x100000001B3L) (Int64.of_int (i + 1))))
         z0 path)

  let next t =
    let s = t.s in
    let s = Int64.logxor s (Int64.shift_left s 13) in
    let s = Int64.logxor s (Int64.shift_right_logical s 7) in
    let s = Int64.logxor s (Int64.shift_left s 17) in
    t.s <- s;
    Int64.mul s 0x2545F4914F6CDD1DL

  let int t bound =
    if bound <= 0 then invalid_arg "Sample.Rng.int: bound must be positive";
    (* modulo of 63 uniform bits: bias < 2^-50 for any practical bound *)
    Int64.to_int
      (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

  let bool t = Int64.equal (Int64.logand (next t) 1L) 1L
end

(* ------------------------------------------------------------------ *)
(* Confidence bounds                                                   *)
(* ------------------------------------------------------------------ *)

module Bound = struct
  let log_term ~confidence ~intervals =
    let delta = Rational.sub Rational.one confidence in
    let delta' = Rational.div delta (Rational.of_int intervals) in
    Rational.ln_upper (Rational.div (Rational.of_int 2) delta')

  let hoeffding ~range ~log_term ~m =
    Rational.mul range
      (Rational.sqrt_upper (Rational.div log_term (Rational.of_int (2 * m))))

  let bernstein ~range ~log_term ~m ~sum ~sumsq =
    if m < 2 then hoeffding ~range ~log_term ~m
    else begin
      (* unbiased sample variance from the integer draw sums; the draws
         are in {-1,0,1} so the int products stay far below overflow *)
      let v = Rational.of_ints ((m * sumsq) - (sum * sum)) (m * (m - 1)) in
      let t1 =
        Rational.sqrt_upper
          (Rational.div
             (Rational.mul (Rational.of_int 2) (Rational.mul v log_term))
             (Rational.of_int m))
      in
      let t2 =
        Rational.div
          (Rational.mul range (Rational.mul (Rational.of_int 7) log_term))
          (Rational.of_int (3 * (m - 1)))
      in
      Rational.add t1 t2
    end
end

(* ------------------------------------------------------------------ *)
(* Lineage evaluation over an indexed universe                         *)
(* ------------------------------------------------------------------ *)

(* The compiled Bform is re-indexed over int variables so a draw is one
   O(|φ|) sweep against a mutable membership array — no Fact.Set
   allocation per evaluation (Bform.eval would build one per probe). *)
module Nf = struct
  type t =
    | T
    | F
    | V of int
    | And of t array
    | Or of t array
    | Not of t

  let of_bform ~index phi =
    let rec go = function
      | Bform.True -> T
      | Bform.False -> F
      | Bform.Fv f ->
        (match Hashtbl.find_opt index f with
         | Some i -> V i
         | None ->
           invalid_arg
             (Printf.sprintf "Sample: lineage mentions %s outside the universe"
                (Fact.to_string f)))
      | Bform.And l -> And (Array.of_list (List.map go l))
      | Bform.Or l -> Or (Array.of_list (List.map go l))
      | Bform.Not b -> Not (go b)
    in
    go phi

  let rec eval present = function
    | T -> true
    | F -> false
    | V i -> present.(i)
    | Not b -> not (eval present b)
    | And bs ->
      let n = Array.length bs in
      let rec all i = i >= n || (eval present bs.(i) && all (i + 1)) in
      all 0
    | Or bs ->
      let n = Array.length bs in
      let rec any i = i < n && (eval present bs.(i) || any (i + 1)) in
      any 0

  let rec monotone = function
    | T | F | V _ -> true
    | Not _ -> false
    | And bs | Or bs -> Array.for_all monotone bs
end

type ctx = {
  cfg : config;
  universe : Fact.t array;
  n : int;
  nf : Nf.t;
  mono : bool;
  present : bool array;
  evals : int ref;
}

let make_ctx cfg universe phi =
  let universe = Array.of_list universe in
  let n = Array.length universe in
  let index = Hashtbl.create (max 16 n) in
  Array.iteri
    (fun i f ->
       if Hashtbl.mem index f then
         invalid_arg "Sample: duplicate fact in universe";
       Hashtbl.add index f i)
    universe;
  let nf = Nf.of_bform ~index phi in
  {
    cfg;
    universe;
    n;
    nf;
    mono = Nf.monotone nf;
    present = Array.make n false;
    evals = ref 0;
  }

let eval ctx =
  incr ctx.evals;
  Nf.eval ctx.present ctx.nf

let b2i b = if b then 1 else 0

(* draw support width: marginal contributions live in {0,1} for monotone
   lineages, {-1,0,1} otherwise *)
let range_of ctx = if ctx.mono then Rational.one else Rational.of_int 2

let finish ctx estimates ~total_draws =
  let max_hw =
    Array.fold_left
      (fun acc e -> Rational.max acc e.half_width)
      Rational.zero estimates
  in
  {
    estimates;
    total_draws;
    total_evals = !(ctx.evals);
    max_half_width = max_hw;
    all_converged = Array.for_all (fun e -> e.converged) estimates;
  }

(* ------------------------------------------------------------------ *)
(* Monte-Carlo permutation sampling (ApproShapley)                     *)
(* ------------------------------------------------------------------ *)

(* One permutation yields a marginal contribution for every fact: the
   estimate of Sh(μ) is the mean of μ's contributions, the draw budget
   counts shared permutations.  Monotone lineages take the pivot fast
   path — along any permutation φ flips false→true at most once, so the
   flip position is found by binary search over prefix lengths
   (O(log n) evaluations) and only the pivot fact's sums move.  The
   stopping rule uses the Hoeffding width, which at shared m is the
   same for every fact; under `Bernstein the final per-fact widths are
   refined to min(hoeffding, bernstein) — both are valid bounds. *)
let monte_carlo ctx tel =
  let cfg = ctx.cfg and n = ctx.n in
  let range = range_of ctx in
  let log_term = Bound.log_term ~confidence:cfg.confidence ~intervals:1 in
  let sums = Array.make n 0 and sumsq = Array.make n 0 in
  let perm = Array.init n Fun.id in
  (* φ(∅) and φ(U) decide whether a monotone permutation has a pivot *)
  Array.fill ctx.present 0 n false;
  let empty_true = eval ctx in
  Array.fill ctx.present 0 n true;
  let full_true = eval ctx in
  Array.fill ctx.present 0 n false;
  let constant = ctx.mono && (empty_true || not full_true) in
  let cur = ref 0 in
  let set_prefix target =
    while !cur < target do
      ctx.present.(perm.(!cur)) <- true;
      incr cur
    done;
    while !cur > target do
      decr cur;
      ctx.present.(perm.(!cur)) <- false
    done
  in
  let one_permutation p =
    let rng = Rng.of_path cfg.seed [ p ] in
    for i = n - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    if constant then ()
    else if ctx.mono then begin
      (* invariant: φ(prefix lo) = false, φ(prefix hi) = true *)
      let lo = ref 0 and hi = ref n in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        set_prefix mid;
        if eval ctx then hi := mid else lo := mid
      done;
      let pivot = perm.(!hi - 1) in
      sums.(pivot) <- sums.(pivot) + 1;
      sumsq.(pivot) <- sumsq.(pivot) + 1;
      set_prefix 0
    end
    else begin
      let prev = ref empty_true in
      for i = 0 to n - 1 do
        ctx.present.(perm.(i)) <- true;
        let curv = eval ctx in
        let d = b2i curv - b2i !prev in
        sums.(perm.(i)) <- sums.(perm.(i)) + d;
        sumsq.(perm.(i)) <- sumsq.(perm.(i)) + (d * d);
        prev := curv
      done;
      Array.fill ctx.present 0 n false
    end
  in
  let m = ref 0 in
  let hw = ref range in
  let stop = ref false in
  while not !stop do
    let b = min cfg.batch (cfg.max_draws - !m) in
    Telemetry.span tel
      ~attrs:
        (if Telemetry.enabled tel then
           [ ("draws", string_of_int b) ]
         else [])
      "sample.round"
      (fun () ->
         for p = !m to !m + b - 1 do
           one_permutation p
         done);
    m := !m + b;
    hw := Bound.hoeffding ~range ~log_term ~m:!m;
    if Rational.leq !hw cfg.epsilon || !m >= cfg.max_draws then stop := true
  done;
  let estimates =
    Array.mapi
      (fun i fact ->
         let value = Rational.of_ints sums.(i) !m in
         let half_width =
           match cfg.bound with
           | Hoeffding -> !hw
           | Bernstein ->
             Rational.min !hw
               (Bound.bernstein ~range ~log_term ~m:!m ~sum:sums.(i)
                  ~sumsq:sumsq.(i))
         in
         {
           fact;
           value;
           half_width;
           draws = !m;
           exact_strata = 0;
           sampled_strata = 0;
           converged = Rational.leq half_width cfg.epsilon;
         })
      ctx.universe
  in
  finish ctx estimates ~total_draws:!m

(* ------------------------------------------------------------------ *)
(* Stratified / hybrid estimation                                      *)
(* ------------------------------------------------------------------ *)

(* Per fact μ: every coalition-size stratum k over U∖{μ} is either
   enumerated exactly (hybrid, C(n-1,k) <= exact_cap) or sampled.  A
   size-k operation only ever touches min(k, n-1-k) elements: for
   k > (n-1)/2 the complement of size n-1-k is enumerated/sampled and
   the membership default inverted.  The fact's half-width is
   (1/n)·Σ_k hw_k over sampled strata, each at level δ/#sampled (union
   bound); exact strata contribute zero width. *)
let stratified ctx tel ~exact_cap =
  let cfg = ctx.cfg and n = ctx.n in
  let n1 = n - 1 in
  let range = range_of ctx in
  let binom = Bigint.binomial_row (max n1 0) in
  let cap = Bigint.of_int exact_cap in
  let inv_n = Rational.of_ints 1 n in
  let one_fact fi =
    let fact = ctx.universe.(fi) in
    let others = Array.make (max n1 0) 0 in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if i <> fi then begin
        others.(!j) <- i;
        incr j
      end
    done;
    (* membership default per stratum: [invert] strata keep all of
       [others] present and toggle the complement *)
    let stratum_args k =
      let kk = min k (n1 - k) in
      (kk, k > n1 - k)
    in
    let eval_pair () =
      (* marginal contribution at the current coalition of U∖{μ} *)
      ctx.present.(fi) <- false;
      let v0 = eval ctx in
      ctx.present.(fi) <- true;
      let v1 = eval ctx in
      ctx.present.(fi) <- false;
      b2i v1 - b2i v0
    in
    (* exact stratum: enumerate the C(n1,k) coalitions by stepping the
       lexicographic kk-combination of [others] *)
    let exact_stratum k =
      let kk, invert = stratum_args k in
      if invert then Array.iter (fun i -> ctx.present.(i) <- true) others;
      let dflt = invert in
      let diff = ref 0 in
      if kk = 0 then diff := eval_pair ()
      else begin
        let c = Array.init kk Fun.id in
        let stop = ref false in
        while not !stop do
          for t = 0 to kk - 1 do
            ctx.present.(others.(c.(t))) <- not dflt
          done;
          diff := !diff + eval_pair ();
          for t = 0 to kk - 1 do
            ctx.present.(others.(c.(t))) <- dflt
          done;
          (* advance the combination *)
          let i = ref (kk - 1) in
          while !i >= 0 && c.(!i) = n1 - kk + !i do decr i done;
          if !i < 0 then stop := true
          else begin
            c.(!i) <- c.(!i) + 1;
            for t = !i + 1 to kk - 1 do c.(t) <- c.(t - 1) + 1 done
          end
        done
      end;
      if invert then Array.iter (fun i -> ctx.present.(i) <- false) others;
      Rational.make (Bigint.of_int !diff) binom.(k)
    in
    let exact = Array.make (n1 + 1) None in
    let sampled = ref [] in
    for k = n1 downto 0 do
      if Bigint.leq binom.(k) cap then exact.(k) <- Some (exact_stratum k)
      else sampled := k :: !sampled
    done;
    let sampled = Array.of_list !sampled in
    let s = Array.length sampled in
    let exact_value =
      Array.fold_left
        (fun acc v -> match v with Some x -> Rational.add acc x | None -> acc)
        Rational.zero exact
    in
    if s = 0 then
      {
        fact;
        value = Rational.mul inv_n exact_value;
        half_width = Rational.zero;
        draws = 0;
        exact_strata = n1 + 1;
        sampled_strata = 0;
        converged = true;
      }
    else begin
      let log_term = Bound.log_term ~confidence:cfg.confidence ~intervals:s in
      let m = Array.make s 0
      and sum = Array.make s 0
      and sumsq = Array.make s 0 in
      let rngs =
        Array.map (fun k -> Rng.of_path cfg.seed [ fi; k ]) sampled
      in
      (* reusable pool for partial Fisher–Yates; swaps are undone after
         each draw so a draw's outcome depends only on its own rng state *)
      let pool = Array.copy others in
      let draw si =
        let k = sampled.(si) in
        let kk, invert = stratum_args k in
        let dflt = invert in
        if invert then Array.iter (fun i -> ctx.present.(i) <- true) others;
        let rng = rngs.(si) in
        let swaps = Array.make kk 0 in
        for t = 0 to kk - 1 do
          let r = t + Rng.int rng (n1 - t) in
          swaps.(t) <- r;
          let tmp = pool.(t) in
          pool.(t) <- pool.(r);
          pool.(r) <- tmp
        done;
        for t = 0 to kk - 1 do ctx.present.(pool.(t)) <- not dflt done;
        let d = eval_pair () in
        for t = 0 to kk - 1 do ctx.present.(pool.(t)) <- dflt done;
        for t = kk - 1 downto 0 do
          let r = swaps.(t) in
          let tmp = pool.(t) in
          pool.(t) <- pool.(r);
          pool.(r) <- tmp
        done;
        if invert then Array.iter (fun i -> ctx.present.(i) <- false) others;
        m.(si) <- m.(si) + 1;
        sum.(si) <- sum.(si) + d;
        sumsq.(si) <- sumsq.(si) + (d * d)
      in
      let stratum_hw si =
        if m.(si) = 0 then
          (* no draw yet: estimate at the midpoint of E_k's support,
             error at most half the width *)
          Rational.div range (Rational.of_int 2)
        else
          match cfg.bound with
          | Hoeffding -> Bound.hoeffding ~range ~log_term ~m:m.(si)
          | Bernstein ->
            Rational.min
              (Bound.hoeffding ~range ~log_term ~m:m.(si))
              (Bound.bernstein ~range ~log_term ~m:m.(si) ~sum:sum.(si)
                 ~sumsq:sumsq.(si))
      in
      let total_hw () =
        let acc = ref Rational.zero in
        for si = 0 to s - 1 do acc := Rational.add !acc (stratum_hw si) done;
        Rational.mul inv_n !acc
      in
      let draws = ref 0 in
      let rr = ref 0 in
      let hw = ref (total_hw ()) in
      let stop = ref (Rational.leq !hw cfg.epsilon) in
      while not !stop do
        let b = min cfg.batch (cfg.max_draws - !draws) in
        for _ = 1 to b do
          draw (!rr mod s);
          incr rr
        done;
        draws := !draws + b;
        hw := total_hw ();
        if Rational.leq !hw cfg.epsilon || !draws >= cfg.max_draws then
          stop := true
      done;
      let sampled_value =
        let acc = ref Rational.zero in
        for si = 0 to s - 1 do
          let v =
            if m.(si) = 0 then
              if ctx.mono then Rational.half else Rational.zero
            else Rational.of_ints sum.(si) m.(si)
          in
          acc := Rational.add !acc v
        done;
        !acc
      in
      {
        fact;
        value = Rational.mul inv_n (Rational.add exact_value sampled_value);
        half_width = !hw;
        draws = !draws;
        exact_strata = n1 + 1 - s;
        sampled_strata = s;
        converged = Rational.leq !hw cfg.epsilon;
      }
    end
  in
  let estimates =
    Array.init n (fun fi ->
        if Telemetry.enabled tel then
          Telemetry.span tel
            ~attrs:[ ("fact", Fact.to_string ctx.universe.(fi)) ]
            "sample.fact"
            (fun () -> one_fact fi)
        else one_fact fi)
  in
  let total_draws = Array.fold_left (fun a e -> a + e.draws) 0 estimates in
  finish ctx estimates ~total_draws

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let record_metrics tel report =
  Telemetry.Counter.add (Telemetry.counter tel "sample.draws")
    report.total_draws;
  Telemetry.Counter.add (Telemetry.counter tel "sample.evals")
    report.total_evals;
  Telemetry.Counter.add
    (Telemetry.counter tel "sample.exact_strata")
    (Array.fold_left (fun a e -> a + e.exact_strata) 0 report.estimates);
  Telemetry.Counter.add
    (Telemetry.counter tel "sample.sampled_strata")
    (Array.fold_left (fun a e -> a + e.sampled_strata) 0 report.estimates);
  (* half-width in parts per million, rounded up (gauges are ints) *)
  let ppm =
    let x = Rational.mul report.max_half_width (Rational.of_int 1_000_000) in
    let q, r = Bigint.divmod (Rational.num x) (Rational.den x) in
    Bigint.to_int (if Bigint.is_zero r then q else Bigint.succ q)
  in
  Telemetry.Gauge.set (Telemetry.gauge tel "sample.max_hw_ppm") ppm

let shapley ?(tel = Telemetry.disabled ()) cfg ~universe phi =
  validate cfg;
  let ctx = make_ctx cfg universe phi in
  let report =
    Telemetry.span tel "sample.eval" (fun () ->
        if ctx.n = 0 then
          finish ctx [||] ~total_draws:0
        else
          match cfg.strategy with
          | Monte_carlo -> monte_carlo ctx tel
          | Stratified -> stratified ctx tel ~exact_cap:0
          | Hybrid -> stratified ctx tel ~exact_cap:cfg.exact_cap)
  in
  record_metrics tel report;
  report

(* Banzhaf: the value is the expected marginal contribution over one
   uniform coalition of U∖{μ}, so one shared uniform subset per draw
   serves every fact (1 + n evaluations: the subset once, then each
   fact's membership flipped).  No permutation or stratum structure —
   strategy and exact_cap are ignored. *)
let banzhaf ?(tel = Telemetry.disabled ()) cfg ~universe phi =
  validate cfg;
  let ctx = make_ctx cfg universe phi in
  let n = ctx.n in
  let report =
    Telemetry.span tel "sample.eval" @@ fun () ->
    if n = 0 then finish ctx [||] ~total_draws:0
    else begin
      let range = range_of ctx in
      let log_term =
        Bound.log_term ~confidence:cfg.confidence ~intervals:1
      in
      let sums = Array.make n 0 and sumsq = Array.make n 0 in
      let one_draw d =
        let rng = Rng.of_path cfg.seed [ d ] in
        for i = 0 to n - 1 do ctx.present.(i) <- Rng.bool rng done;
        let base = eval ctx in
        for i = 0 to n - 1 do
          let was = ctx.present.(i) in
          ctx.present.(i) <- not was;
          let flipped = eval ctx in
          ctx.present.(i) <- was;
          let v1, v0 = if was then (base, flipped) else (flipped, base) in
          let d = b2i v1 - b2i v0 in
          sums.(i) <- sums.(i) + d;
          sumsq.(i) <- sumsq.(i) + (d * d)
        done
      in
      let m = ref 0 in
      let hw = ref range in
      let stop = ref false in
      while not !stop do
        let b = min cfg.batch (cfg.max_draws - !m) in
        Telemetry.span tel
          ~attrs:
            (if Telemetry.enabled tel then [ ("draws", string_of_int b) ]
             else [])
          "sample.round"
          (fun () ->
             for d = !m to !m + b - 1 do
               one_draw d
             done);
        m := !m + b;
        hw := Bound.hoeffding ~range ~log_term ~m:!m;
        if Rational.leq !hw cfg.epsilon || !m >= cfg.max_draws then
          stop := true
      done;
      let estimates =
        Array.mapi
          (fun i fact ->
             let half_width =
               match cfg.bound with
               | Hoeffding -> !hw
               | Bernstein ->
                 Rational.min !hw
                   (Bound.bernstein ~range ~log_term ~m:!m ~sum:sums.(i)
                      ~sumsq:sumsq.(i))
             in
             {
               fact;
               value = Rational.of_ints sums.(i) !m;
               half_width;
               draws = !m;
               exact_strata = 0;
               sampled_strata = 0;
               converged = Rational.leq half_width cfg.epsilon;
             })
          ctx.universe
      in
      finish ctx estimates ~total_draws:!m
    end
  in
  record_metrics tel report;
  report
