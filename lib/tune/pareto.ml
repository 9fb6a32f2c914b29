type entry = { e_genome : int array; e_rss : int; e_ns : float }

(* The archive is an epsilon-grid: objective space is quantized into
   log-scale buckets and each bucket holds at most one representative —
   the minimum under a total order.  Two consequences the search leans
   on:

   - {e insertion-order independence}: "keep the per-bucket minimum" is
     commutative and idempotent, so the archive is a pure function of
     the {e set} of inserted entries — however a parallel fan-out
     ordered them (qcheck-pinned in test_tune.ml);
   - {e constant memory}: occupancy is bounded by the bucket grid
     (resolution^2 per doubling-pair of the objective ranges), not by
     the number of evaluations, so an unbounded search cannot grow it.

   The total order breaks objective ties by genome so the minimum is
   unique, never first-seen-wins. *)
type t = {
  resolution : int;  (* buckets per doubling of each objective *)
  buckets : (int * int, entry) Hashtbl.t;
}

let create ?(resolution = 16) () =
  if resolution <= 0 then invalid_arg "Pareto.create: resolution must be positive";
  { resolution; buckets = Hashtbl.create 64 }

let order a b =
  let c = compare a.e_rss b.e_rss in
  if c <> 0 then c
  else
    let c = compare a.e_ns b.e_ns in
    if c <> 0 then c else compare a.e_genome b.e_genome

let dominates a b =
  a.e_rss <= b.e_rss && a.e_ns <= b.e_ns && (a.e_rss < b.e_rss || a.e_ns < b.e_ns)

let log2 x = log x /. log 2.0

let bucket_of t e =
  let q v = int_of_float (Float.floor (float_of_int t.resolution *. log2 (1.0 +. v))) in
  (q (float_of_int e.e_rss), q e.e_ns)

let insert t e =
  if e.e_rss < 0 || not (Float.is_finite e.e_ns) || e.e_ns < 0.0 then
    invalid_arg "Pareto.insert: objectives must be non-negative and finite";
  let b = bucket_of t e in
  match Hashtbl.find_opt t.buckets b with
  | Some cur when order cur e <= 0 -> ()
  | _ -> Hashtbl.replace t.buckets b e

let size t = Hashtbl.length t.buckets

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.buckets [] |> List.sort order

let front t =
  let all = entries t in
  List.filter (fun e -> not (List.exists (fun o -> dominates o e) all)) all
