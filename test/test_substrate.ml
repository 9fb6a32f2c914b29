(* Tests for wsc_substrate: PRNG, distributions, statistics, histograms,
   the event heap, the simulated clock, stacks and formatting. *)

open Wsc_substrate

let check_float = Alcotest.(check (float 1e-9))
let check_close msg tolerance expected actual = Alcotest.(check (float tolerance)) msg expected actual
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qcheck t = QCheck_alcotest.to_alcotest t

(* {1 Units} *)

let test_units_constants () =
  check_int "tcmalloc page" 8192 Units.tcmalloc_page_size;
  check_int "hugepage" (2 * 1024 * 1024) Units.hugepage_size;
  check_int "pages per hugepage" 256 Units.pages_per_hugepage;
  check_float "one second" 1e9 Units.sec;
  check_float "one day" (86400.0 *. 1e9) Units.day

let test_units_pp_bytes () =
  Alcotest.(check string) "bytes" "512 B" (Units.bytes_to_string 512);
  Alcotest.(check string) "kib" "2 KiB" (Units.bytes_to_string 2048);
  Alcotest.(check string) "mib" "3 MiB" (Units.bytes_to_string (3 * 1024 * 1024));
  Alcotest.(check string) "frac" "1.50 KiB" (Units.bytes_to_string 1536)

let test_units_pp_duration () =
  Alcotest.(check string) "ns" "3.1 ns" (Units.duration_to_string 3.1);
  Alcotest.(check string) "us" "12.92 us" (Units.duration_to_string 12916.7);
  Alcotest.(check string) "ms" "5.00 ms" (Units.duration_to_string 5e6);
  Alcotest.(check string) "day" "2.00 d" (Units.duration_to_string (2.0 *. Units.day))

(* {1 Rng} *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check_bool "streams differ" true (!same < 4)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let xs = List.init 32 (fun _ -> Rng.bits64 parent) in
  let ys = List.init 32 (fun _ -> Rng.bits64 child) in
  check_bool "split stream differs" true (xs <> ys)

let test_rng_copy () =
  let a = Rng.create 99 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_int_bounds =
  qcheck
    (QCheck.Test.make ~name:"rng_int_in_bounds" ~count:500
       QCheck.(pair small_int (int_range 1 10_000))
       (fun (seed, bound) ->
         let rng = Rng.create seed in
         let v = Rng.int rng bound in
         v >= 0 && v < bound))

let test_rng_unit_float_bounds =
  qcheck
    (QCheck.Test.make ~name:"rng_unit_float_bounds" ~count:500 QCheck.small_int
       (fun seed ->
         let rng = Rng.create seed in
         let v = Rng.unit_float rng in
         v >= 0.0 && v < 1.0))

let test_rng_uniformity () =
  let rng = Rng.create 5 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i count ->
      let expected = n / 10 in
      if abs (count - expected) > expected / 10 then
        Alcotest.failf "bucket %d skewed: %d vs %d" i count expected)
    buckets

let test_rng_bernoulli () =
  let rng = Rng.create 11 in
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  check_close "bernoulli 0.3" 0.01 0.3 (float_of_int !hits /. 100_000.0)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* {1 Dist} *)

let mc d seed n =
  let rng = Rng.create seed in
  Dist.mean_estimate d rng ~n

let test_dist_constant () = check_float "constant" 5.0 (mc (Dist.constant 5.0) 1 100)

let test_dist_uniform_mean () =
  check_close "uniform mean" 0.05 5.0 (mc (Dist.uniform ~lo:0.0 ~hi:10.0) 2 200_000)

let test_dist_exponential_mean () =
  check_close "exp mean" 0.05 3.0 (mc (Dist.exponential ~mean:3.0) 3 500_000)

let test_dist_lognormal_median () =
  (* median of lognormal = e^mu *)
  let d = Dist.lognormal ~mu:2.0 ~sigma:1.0 in
  let rng = Rng.create 4 in
  let samples = Stats.Sample.create () in
  for _ = 1 to 100_000 do
    Stats.Sample.add samples (Dist.sample d rng)
  done;
  check_close "lognormal median" 0.3 (exp 2.0) (Stats.Sample.quantile samples 0.5)

let test_dist_pareto_minimum =
  qcheck
    (QCheck.Test.make ~name:"pareto_above_scale" ~count:300 QCheck.small_int
       (fun seed ->
         let rng = Rng.create seed in
         let d = Dist.pareto ~scale:2.0 ~shape:1.5 in
         Dist.sample d rng >= 2.0))

let test_dist_mixture_weights () =
  let d = Dist.mixture [ (0.9, Dist.constant 1.0); (0.1, Dist.constant 100.0) ] in
  check_close "mixture mean" 0.5 10.9 (mc d 6 200_000)

let test_dist_mixture_empty () =
  Alcotest.check_raises "empty mixture" (Invalid_argument "Dist.mixture: empty")
    (fun () -> ignore (Dist.mixture []))

let test_dist_empirical_interpolation () =
  let d = Dist.empirical [ (0.0, 10.0); (1.0, 1000.0) ] in
  let rng = Rng.create 8 in
  for _ = 1 to 1000 do
    let v = Dist.sample d rng in
    if v < 10.0 || v > 1000.0 then Alcotest.failf "empirical out of range: %f" v
  done

let test_dist_clamped =
  qcheck
    (QCheck.Test.make ~name:"clamped_within_bounds" ~count:300 QCheck.small_int
       (fun seed ->
         let rng = Rng.create seed in
         let d = Dist.clamped ~lo:1.0 ~hi:2.0 (Dist.exponential ~mean:5.0) in
         let v = Dist.sample d rng in
         v >= 1.0 && v <= 2.0))

let test_dist_shifted () =
  check_close "shifted mean" 0.05 13.0
    (mc (Dist.shifted 10.0 (Dist.exponential ~mean:3.0)) 9 500_000)

let test_zipf_weights () =
  let w = Dist.zipf_weights ~n:3 ~s:1.0 in
  let total = Array.fold_left ( +. ) 0.0 w in
  check_close "normalized" 1e-9 1.0 total;
  check_bool "rank order" true (w.(0) > w.(1) && w.(1) > w.(2));
  check_close "harmonic ratio" 1e-9 2.0 (w.(0) /. w.(1))

let test_zipf_sampling () =
  let rng = Rng.create 10 in
  let counts = Array.make 20 0 in
  for _ = 1 to 50_000 do
    let r = Dist.zipf rng ~n:20 ~s:1.2 in
    counts.(r) <- counts.(r) + 1
  done;
  check_bool "rank 0 most popular" true (counts.(0) > counts.(5));
  check_bool "rank tail smaller" true (counts.(5) > counts.(19))

let test_categorical () =
  let rng = Rng.create 12 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Dist.categorical rng [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  check_close "weight 0.7" 0.02 0.7 (float_of_int counts.(2) /. 30_000.0)

(* {1 Stats} *)

let test_running_moments () =
  let r = Stats.Running.create () in
  List.iter (Stats.Running.add r) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_int "count" 8 (Stats.Running.count r);
  check_float "mean" 5.0 (Stats.Running.mean r);
  check_close "variance" 1e-9 (32.0 /. 7.0) (Stats.Running.variance r);
  check_float "min" 2.0 (Stats.Running.min r);
  check_float "max" 9.0 (Stats.Running.max r);
  check_float "total" 40.0 (Stats.Running.total r)

let test_running_merge =
  qcheck
    (QCheck.Test.make ~name:"running_merge_equals_sequential" ~count:200
       QCheck.(pair (list (float_bound_exclusive 100.0)) (list (float_bound_exclusive 100.0)))
       (fun (xs, ys) ->
         QCheck.assume (xs <> [] && ys <> []);
         let a = Stats.Running.create () and b = Stats.Running.create () in
         let all = Stats.Running.create () in
         List.iter
           (fun x ->
             Stats.Running.add a x;
             Stats.Running.add all x)
           xs;
         List.iter
           (fun y ->
             Stats.Running.add b y;
             Stats.Running.add all y)
           ys;
         let merged = Stats.Running.merge a b in
         let close u v = Float.abs (u -. v) < 1e-6 *. (1.0 +. Float.abs u) in
         Stats.Running.count merged = Stats.Running.count all
         && close (Stats.Running.mean merged) (Stats.Running.mean all)
         && close (Stats.Running.variance merged) (Stats.Running.variance all)))

let test_sample_quantiles () =
  let s = Stats.Sample.create () in
  for i = 1 to 101 do
    Stats.Sample.add s (float_of_int i)
  done;
  check_float "median" 51.0 (Stats.Sample.quantile s 0.5);
  check_float "p0" 1.0 (Stats.Sample.quantile s 0.0);
  check_float "p100" 101.0 (Stats.Sample.quantile s 1.0);
  check_float "p25" 26.0 (Stats.Sample.quantile s 0.25)

let test_sample_quantile_empty () =
  let s = Stats.Sample.create () in
  Alcotest.check_raises "empty quantile" (Invalid_argument "Stats.Sample.quantile: empty")
    (fun () -> ignore (Stats.Sample.quantile s 0.5))

let test_spearman_perfect () =
  let pairs = List.init 20 (fun i -> (float_of_int i, float_of_int (i * i))) in
  check_close "monotone -> 1" 1e-9 1.0 (Stats.spearman pairs)

let test_spearman_inverse () =
  let pairs = List.init 20 (fun i -> (float_of_int i, float_of_int (100 - i))) in
  check_close "anti-monotone -> -1" 1e-9 (-1.0) (Stats.spearman pairs)

let test_spearman_ties () =
  let pairs = [ (1.0, 1.0); (1.0, 2.0); (2.0, 3.0); (3.0, 3.0) ] in
  let rho = Stats.spearman pairs in
  check_bool "ties handled, in range" true (rho > 0.0 && rho <= 1.0)

let test_pearson_linear () =
  let pairs = List.init 10 (fun i -> (float_of_int i, (2.0 *. float_of_int i) +. 1.0)) in
  check_close "linear -> 1" 1e-9 1.0 (Stats.pearson pairs)

let test_percent_change () =
  check_float "increase" 10.0 (Stats.percent_change ~before:100.0 ~after:110.0);
  check_float "decrease" (-25.0) (Stats.percent_change ~before:4.0 ~after:3.0);
  check_float "zero before" 0.0 (Stats.percent_change ~before:0.0 ~after:5.0)

let test_geometric_mean () =
  check_close "gm" 1e-9 4.0 (Stats.geometric_mean [ 2.0; 8.0 ])

(* {1 Histogram} *)

let test_histogram_binning () =
  let h = Histogram.create ~base:2.0 ~lo:1.0 ~hi:1024.0 () in
  Histogram.add h 1.0;
  Histogram.add h 3.0;
  Histogram.add h 1000.0;
  check_int "count" 3 (Histogram.count h);
  check_float "total weight" 3.0 (Histogram.total_weight h)

let test_histogram_cdf_monotone =
  qcheck
    (QCheck.Test.make ~name:"histogram_cdf_monotone" ~count:100
       QCheck.(list_of_size (Gen.int_range 1 200) (float_range 1.0 1e6))
       (fun values ->
         let h = Histogram.create () in
         List.iter (Histogram.add h) values;
         let cdf = Histogram.cdf h in
         let ok = ref true in
         Array.iteri
           (fun i (_, f) ->
             if i > 0 then begin
               let _, prev = cdf.(i - 1) in
               if f < prev then ok := false
             end)
           cdf;
         let _, last = cdf.(Array.length cdf - 1) in
         !ok && Float.abs (last -. 1.0) < 1e-9))

let test_histogram_fraction_below () =
  let h = Histogram.create ~base:2.0 ~lo:1.0 ~hi:1024.0 () in
  for _ = 1 to 90 do
    Histogram.add h 2.5 (* bin [2,4) *)
  done;
  for _ = 1 to 10 do
    Histogram.add h 100.0 (* bin [64,128) *)
  done;
  check_close "below 4" 1e-9 0.9 (Histogram.fraction_below h 4.0);
  check_close "above 4" 1e-9 0.1 (Histogram.fraction_above h 4.0);
  check_close "below all" 1e-9 1.0 (Histogram.fraction_below h 2048.0)

let test_histogram_weighted () =
  let h = Histogram.create () in
  Histogram.add h ~weight:100.0 10.0;
  Histogram.add h ~weight:900.0 1000.0;
  check_close "weighted below" 1e-9 0.1 (Histogram.fraction_below h 16.0)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 5.0;
  Histogram.add b 50.0;
  let m = Histogram.merge a b in
  check_int "merged count" 2 (Histogram.count m);
  check_float "merged weight" 2.0 (Histogram.total_weight m)

let test_histogram_merge_mismatch () =
  let a = Histogram.create ~base:2.0 () and b = Histogram.create ~base:10.0 () in
  Alcotest.check_raises "geometry mismatch"
    (Invalid_argument "Histogram.merge: geometry mismatch") (fun () ->
      ignore (Histogram.merge a b))

let test_histogram_quantile () =
  let h = Histogram.create ~base:2.0 ~lo:1.0 ~hi:(2.0 ** 20.0) () in
  for i = 1 to 100 do
    Histogram.add h (float_of_int i)
  done;
  let median = Histogram.quantile h 0.5 in
  check_bool "median in range" true (median >= 32.0 && median <= 64.0)

(* {1 Binheap} *)

let test_binheap_ordering () =
  let h = Binheap.create () in
  List.iter (fun k -> Binheap.push h k (int_of_float k)) [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
  let order = List.init 5 (fun _ -> match Binheap.pop h with Some (k, _) -> k | None -> nan) in
  Alcotest.(check (list (float 0.0))) "sorted pops" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] order

let test_binheap_pop_until () =
  let h = Binheap.create () in
  List.iter (fun k -> Binheap.push h k ()) [ 10.0; 1.0; 5.0; 7.0; 2.0 ];
  let popped = Binheap.pop_until h 5.0 in
  check_int "popped three" 3 (List.length popped);
  check_int "two remain" 2 (Binheap.length h)

let test_binheap_property =
  qcheck
    (QCheck.Test.make ~name:"binheap_pops_sorted" ~count:200
       QCheck.(list (float_bound_exclusive 1000.0))
       (fun keys ->
         let h = Binheap.create () in
         List.iter (fun k -> Binheap.push h k ()) keys;
         let rec drain acc =
           match Binheap.pop h with Some (k, ()) -> drain (k :: acc) | None -> List.rev acc
         in
         let popped = drain [] in
         popped = List.sort compare keys))

let test_binheap_peek () =
  let h = Binheap.create () in
  Alcotest.(check bool) "empty peek" true (Binheap.peek h = None);
  Binheap.push h 3.0 "x";
  Binheap.push h 1.0 "y";
  (match Binheap.peek h with
  | Some (k, v) ->
    check_float "peek min key" 1.0 k;
    Alcotest.(check string) "peek min value" "y" v
  | None -> Alcotest.fail "expected peek");
  check_int "peek does not remove" 2 (Binheap.length h)

(* {1 Clock} *)

let test_clock_advance () =
  let c = Clock.create () in
  check_float "starts at zero" 0.0 (Clock.now c);
  Clock.advance c 100.0;
  check_float "advanced" 100.0 (Clock.now c);
  Clock.advance_to c 50.0;
  check_float "no going back" 100.0 (Clock.now c)

let test_clock_ticker_fires () =
  let c = Clock.create () in
  let fired = ref [] in
  Clock.every c ~period:10.0 (fun now -> fired := now :: !fired);
  Clock.advance c 35.0;
  Alcotest.(check (list (float 0.0))) "fired at periods" [ 30.0; 20.0; 10.0 ] !fired

let test_clock_interleaved_tickers () =
  let c = Clock.create () in
  let log = ref [] in
  Clock.every c ~period:3.0 (fun _ -> log := `A :: !log);
  Clock.every c ~period:5.0 (fun _ -> log := `B :: !log);
  Clock.advance c 10.0;
  (* A at 3,6,9; B at 5,10 *)
  check_int "total fires" 5 (List.length !log)

(* {1 Int_stack} *)

let test_int_stack_lifo () =
  let s = Int_stack.create () in
  Int_stack.push s 1;
  Int_stack.push s 2;
  Int_stack.push s 3;
  check_int "pop 3" 3 (Int_stack.pop s);
  check_int "pop 2" 2 (Int_stack.pop s);
  check_int "length" 1 (Int_stack.length s)

let test_int_stack_pop_into () =
  let s = Int_stack.create () in
  List.iter (Int_stack.push s) [ 1; 2; 3; 4; 5 ];
  let buf = Array.make 6 0 in
  check_int "pop 3 most recent" 3 (Int_stack.pop_into s buf ~pos:0 ~n:3);
  check_int "pop beyond size" 2 (Int_stack.pop_into s buf ~pos:3 ~n:10);
  Alcotest.(check (array int)) "most recent first, from pos" [| 5; 4; 3; 2; 1; 0 |] buf;
  check_int "emptied" 0 (Int_stack.length s)

let test_int_stack_growth =
  qcheck
    (QCheck.Test.make ~name:"int_stack_push_pop_roundtrip" ~count:100
       QCheck.(list int)
       (fun xs ->
         let s = Int_stack.create ~initial_capacity:1 () in
         List.iter (Int_stack.push s) xs;
         let popped = List.init (Int_stack.length s) (fun _ -> Int_stack.pop s) in
         popped = List.rev xs))

(* {1 Table} *)

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let rendered = Table.render t in
  check_bool "has title" true
    (String.length rendered > 0
    && String.sub rendered 0 11 = "== demo ==\n");
  check_bool "contains row" true
    (String.length rendered > 0
    &&
    let lines = String.split_on_char '\n' rendered in
    List.exists (fun l -> String.trim l <> "" && String.length l >= 5 && String.sub l 0 5 = "alpha") lines)

let test_table_cells () =
  Alcotest.(check string) "pct" "1.40%" (Table.cell_pct 1.4);
  Alcotest.(check string) "signed pct" "+1.40%" (Table.cell_signed_pct 1.4);
  Alcotest.(check string) "signed neg" "-0.82%" (Table.cell_signed_pct (-0.82));
  Alcotest.(check string) "float" "3.14" (Table.cell_f 3.14159)

let suite =
  [
    ( "units",
      [
        Alcotest.test_case "constants" `Quick test_units_constants;
        Alcotest.test_case "pp_bytes" `Quick test_units_pp_bytes;
        Alcotest.test_case "pp_duration" `Quick test_units_pp_duration;
      ] );
    ( "rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_rng_different_seeds;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "copy replays" `Quick test_rng_copy;
        test_rng_int_bounds;
        test_rng_unit_float_bounds;
        Alcotest.test_case "uniformity" `Slow test_rng_uniformity;
        Alcotest.test_case "bernoulli" `Slow test_rng_bernoulli;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
      ] );
    ( "dist",
      [
        Alcotest.test_case "constant" `Quick test_dist_constant;
        Alcotest.test_case "uniform mean" `Slow test_dist_uniform_mean;
        Alcotest.test_case "exponential mean" `Slow test_dist_exponential_mean;
        Alcotest.test_case "lognormal median" `Slow test_dist_lognormal_median;
        test_dist_pareto_minimum;
        Alcotest.test_case "mixture weights" `Slow test_dist_mixture_weights;
        Alcotest.test_case "mixture empty" `Quick test_dist_mixture_empty;
        Alcotest.test_case "empirical range" `Quick test_dist_empirical_interpolation;
        test_dist_clamped;
        Alcotest.test_case "shifted" `Slow test_dist_shifted;
        Alcotest.test_case "zipf weights" `Quick test_zipf_weights;
        Alcotest.test_case "zipf sampling" `Slow test_zipf_sampling;
        Alcotest.test_case "categorical" `Slow test_categorical;
      ] );
    ( "stats",
      [
        Alcotest.test_case "running moments" `Quick test_running_moments;
        test_running_merge;
        Alcotest.test_case "sample quantiles" `Quick test_sample_quantiles;
        Alcotest.test_case "quantile empty raises" `Quick test_sample_quantile_empty;
        Alcotest.test_case "spearman monotone" `Quick test_spearman_perfect;
        Alcotest.test_case "spearman inverse" `Quick test_spearman_inverse;
        Alcotest.test_case "spearman ties" `Quick test_spearman_ties;
        Alcotest.test_case "pearson linear" `Quick test_pearson_linear;
        Alcotest.test_case "percent change" `Quick test_percent_change;
        Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
      ] );
    ( "histogram",
      [
        Alcotest.test_case "binning" `Quick test_histogram_binning;
        test_histogram_cdf_monotone;
        Alcotest.test_case "fraction below" `Quick test_histogram_fraction_below;
        Alcotest.test_case "weighted" `Quick test_histogram_weighted;
        Alcotest.test_case "merge" `Quick test_histogram_merge;
        Alcotest.test_case "merge mismatch" `Quick test_histogram_merge_mismatch;
        Alcotest.test_case "quantile" `Quick test_histogram_quantile;
      ] );
    ( "binheap",
      [
        Alcotest.test_case "ordering" `Quick test_binheap_ordering;
        Alcotest.test_case "pop_until" `Quick test_binheap_pop_until;
        test_binheap_property;
        Alcotest.test_case "peek" `Quick test_binheap_peek;
      ] );
    ( "clock",
      [
        Alcotest.test_case "advance" `Quick test_clock_advance;
        Alcotest.test_case "ticker fires" `Quick test_clock_ticker_fires;
        Alcotest.test_case "interleaved tickers" `Quick test_clock_interleaved_tickers;
      ] );
    ( "int_stack",
      [
        Alcotest.test_case "lifo" `Quick test_int_stack_lifo;
        Alcotest.test_case "pop_into" `Quick test_int_stack_pop_into;
        test_int_stack_growth;
      ] );
    ( "table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "cells" `Quick test_table_cells;
      ] );
  ]
