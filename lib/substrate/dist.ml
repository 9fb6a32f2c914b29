(* Guide tables turn the hot inverse-CDF searches into O(1) lookups while
   preserving the exact uniform-draw -> value mapping of the original
   binary/linear searches: a guide cell holds a safe starting index for its
   slice of [0,1), and a short scan (almost always zero or one step)
   finishes the search with the same comparison semantics as before.  This
   keeps every seeded stream bit-identical to the pre-table code, which a
   true Walker/Vose alias decomposition cannot do. *)

type empirical = {
  qs : float array;       (* quantiles, ascending *)
  vs : float array;       (* values, matching *)
  log_vs : float array;   (* precomputed logs for log-linear interpolation *)
  eguide : int array;     (* cell c -> a lower bound for the bracketing index *)
}

type mixture = {
  cum : float array;      (* cumulative weights, ending at 1 *)
  comps : t array;
  mguide : int array;     (* cell c -> a lower bound for the component index *)
}

and t =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Lognormal of float * float
  | Pareto of float * float
  | Mixture of mixture
  | Empirical of empirical
  | Shifted of float * t
  | Scaled of float * t
  | Clamped of float * float * t

(* Guide granularity: a few cells per entry makes the residual scan
   almost always empty while the table stays tiny. *)
let guide_cells n = 4 * n

(* Guide-table constructions are counted (atomically: tables may be built
   from worker domains) so regression tests can pin the setup cost of a
   fan-out: a 50-arm replay or a 2000-machine campaign must not rebuild
   per-arm what a caller could build once.  Sampling never touches this. *)
let builds = Atomic.make 0
let table_builds () = Atomic.get builds

(* guide.(c) = the largest i with xs.(i) <= c/k (0 when none): a safe
   starting point for "largest i with xs.(i) <= u" for any u in cell c.
   Float rounding in [u *. k] can land u one cell high, so [find_le]
   re-checks backwards. *)
let make_guide_le xs =
  Atomic.incr builds;
  let n = Array.length xs in
  let k = guide_cells n in
  let kf = float_of_int k in
  let guide = Array.make k 0 in
  let i = ref 0 in
  for c = 0 to k - 1 do
    let boundary = float_of_int c /. kf in
    while !i + 1 < n && xs.(!i + 1) <= boundary do incr i done;
    guide.(c) <- !i
  done;
  guide

(* Largest i with xs.(i) <= u.  Caller guarantees xs.(0) < u. *)
let[@inline] find_le xs guide u =
  let k = Array.length guide in
  let c = int_of_float (u *. float_of_int k) in
  let c = if c >= k then k - 1 else c in
  let i = ref (Array.unsafe_get guide c) in
  while Array.unsafe_get xs !i > u do decr i done;
  let n = Array.length xs in
  while !i + 1 < n && Array.unsafe_get xs (!i + 1) <= u do incr i done;
  !i

(* Smallest i with cum.(i) >= u, capped at n-1 (the old searches fall back
   to the last entry when rounding leaves the total below u). *)
let[@inline] find_ge cum guide u =
  let k = Array.length guide in
  let c = int_of_float (u *. float_of_int k) in
  let c = if c >= k then k - 1 else c in
  let i = ref (Array.unsafe_get guide c) in
  let n = Array.length cum in
  while !i < n - 1 && Array.unsafe_get cum !i < u do incr i done;
  while !i > 0 && Array.unsafe_get cum (!i - 1) >= u do decr i done;
  !i

(* guide.(c) = smallest i with cum.(i) >= c/k, capped at n-1. *)
let make_guide_ge cum =
  Atomic.incr builds;
  let n = Array.length cum in
  let k = guide_cells n in
  let kf = float_of_int k in
  let guide = Array.make k (n - 1) in
  let i = ref 0 in
  for c = 0 to k - 1 do
    let boundary = float_of_int c /. kf in
    while !i < n - 1 && cum.(!i) < boundary do incr i done;
    (* Back off one entry: rounding in the cell computation may place a
       [u] slightly below the boundary. *)
    guide.(c) <- max 0 (!i - 1)
  done;
  guide

let constant v = Constant v
let uniform ~lo ~hi = Uniform (lo, hi)

let exponential ~mean =
  if mean <= 0.0 then invalid_arg "Dist.exponential: mean must be positive";
  Exponential mean

let lognormal ~mu ~sigma = Lognormal (mu, sigma)

let pareto ~scale ~shape =
  if scale <= 0.0 || shape <= 0.0 then invalid_arg "Dist.pareto: positive params required";
  Pareto (scale, shape)

let mixture parts =
  if parts = [] then invalid_arg "Dist.mixture: empty";
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 parts in
  if total <= 0.0 then invalid_arg "Dist.mixture: nonpositive total weight";
  let cumulative = ref 0.0 in
  let arr =
    List.map
      (fun (w, d) ->
        cumulative := !cumulative +. (w /. total);
        (!cumulative, d))
      parts
    |> Array.of_list
  in
  let cum = Array.map fst arr in
  Mixture { cum; comps = Array.map snd arr; mguide = make_guide_ge cum }

let empirical points =
  if List.length points < 2 then invalid_arg "Dist.empirical: need >= 2 points";
  let sorted = List.sort (fun (q1, _) (q2, _) -> compare q1 q2) points in
  List.iter
    (fun (q, v) ->
      if q < 0.0 || q > 1.0 then invalid_arg "Dist.empirical: quantile out of [0,1]";
      if v <= 0.0 then invalid_arg "Dist.empirical: values must be positive")
    sorted;
  let qs = Array.of_list (List.map fst sorted) in
  let vs = Array.of_list (List.map snd sorted) in
  Empirical { qs; vs; log_vs = Array.map log vs; eguide = make_guide_le qs }

let shifted delta d = Shifted (delta, d)

let scaled factor d =
  if factor <= 0.0 then invalid_arg "Dist.scaled: factor must be positive";
  Scaled (factor, d)

let clamped ~lo ~hi d =
  if lo > hi then invalid_arg "Dist.clamped: lo > hi";
  Clamped (lo, hi, d)

(* Box–Muller; one value per call keeps the generator stateless. *)
let standard_normal rng =
  let u1 = 1.0 -. Rng.unit_float rng in
  let u2 = Rng.unit_float rng in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(* The hot arms (exponential lifetimes, empirical sizes, one-level
   mixtures) live in non-recursive [@inline] helpers: a self-recursive
   [sample] can never be inlined by the non-flambda backend, which would
   box its float result at every cross-module draw.  [sample] below is a
   non-recursive dispatcher over these helpers, recursing through
   [sample_rec] only for nested composite distributions. *)
let[@inline] sample_exponential mean rng = -.mean *. log (1.0 -. Rng.unit_float rng)

let[@inline] sample_empirical e rng =
  let u = Rng.unit_float rng in
  let qs = e.qs in
  let n = Array.length qs in
  if u <= Array.unsafe_get qs 0 then Array.unsafe_get e.vs 0
  else if u >= Array.unsafe_get qs (n - 1) then Array.unsafe_get e.vs (n - 1)
  else begin
    let lo = find_le qs e.eguide u in
    let q0 = Array.unsafe_get qs lo and q1 = Array.unsafe_get qs (lo + 1) in
    if q1 -. q0 <= 0.0 then Array.unsafe_get e.vs lo
    else begin
      let frac = (u -. q0) /. (q1 -. q0) in
      (* log-linear interpolation suits size/lifetime scales spanning
         many orders of magnitude *)
      let lv0 = Array.unsafe_get e.log_vs lo in
      exp (lv0 +. (frac *. (Array.unsafe_get e.log_vs (lo + 1) -. lv0)))
    end
  end

let[@inline] mixture_pick m rng =
  let u = Rng.unit_float rng in
  Array.unsafe_get m.comps (find_ge m.cum m.mguide u)

let rec sample_rec d rng =
  match d with
  | Constant v -> v
  | Uniform (lo, hi) -> lo +. Rng.float rng (hi -. lo)
  | Exponential mean -> sample_exponential mean rng
  | Lognormal (mu, sigma) -> exp (mu +. (sigma *. standard_normal rng))
  | Pareto (scale, shape) ->
    scale /. ((1.0 -. Rng.unit_float rng) ** (1.0 /. shape))
  | Mixture m -> sample_rec (mixture_pick m rng) rng
  | Empirical e -> sample_empirical e rng
  | Shifted (delta, inner) -> delta +. sample_rec inner rng
  | Scaled (factor, inner) -> factor *. sample_rec inner rng
  | Clamped (lo, hi, inner) -> Float.min hi (Float.max lo (sample_rec inner rng))

let[@inline] sample d rng =
  match d with
  | Exponential mean -> sample_exponential mean rng
  | Empirical e -> sample_empirical e rng
  | Mixture m -> (
    (* A mixture of primitive components (every lifetime table row) stays
       box-free; nested composites fall back to the recursive walk. *)
    match mixture_pick m rng with
    | Exponential mean -> sample_exponential mean rng
    | comp -> sample_rec comp rng)
  | d -> sample_rec d rng

let mean_estimate d rng ~n =
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. sample d rng
  done;
  !acc /. float_of_int n

let zipf_weights ~n ~s =
  if n <= 0 then invalid_arg "Dist.zipf_weights: n must be positive";
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

(* Discrete samplers carry their own precomputed cumulative + guide table:
   no memo, no lock, nothing shared between domains.  (The previous Zipf
   memo was the sampling path's only global mutable state and took a mutex
   on every draw.)  The u -> rank mapping replicates the old cumulative
   binary search exactly: smallest rank whose cumulative weight reaches u. *)
type discrete = { dcum : float array; dguide : int array }

let discrete_of_weights weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Dist.discrete_of_weights: empty";
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      cum.(i) <- !acc)
    weights;
  { dcum = cum; dguide = make_guide_ge cum }

let zipf_sampler ~n ~s = discrete_of_weights (zipf_weights ~n ~s)

let[@inline] discrete_sample d rng = find_ge d.dcum d.dguide (Rng.unit_float rng)

let zipf rng ~n ~s = discrete_sample (zipf_sampler ~n ~s) rng

let categorical rng weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Dist.categorical: empty weights";
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Dist.categorical: nonpositive total";
  let u = Rng.float rng total in
  let acc = ref 0.0 in
  let result = ref (n - 1) in
  (try
     for i = 0 to n - 1 do
       acc := !acc +. weights.(i);
       if u < !acc then begin
         result := i;
         raise Exit
       end
     done
   with Exit -> ());
  !result
