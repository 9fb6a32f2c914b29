open Wsc_substrate

type t = {
  name : string;
  size_dist : Dist.t;
  lifetime_table : (int * Dist.t) list;
  allocs_per_request : float;
  requests_per_thread_per_sec : float;
  cross_thread_free_fraction : float;
  size_drift_amplitude : float;
  size_drift_period_ns : float;
  startup_burst_allocs : int;
  threads : Threads.t;
  productivity : Wsc_hw.Productivity.params;
}

(* Toplevel recursion (not a local closure capturing [size]) keeps the
   per-allocation lookup allocation-free. *)
let rec pick_lifetime table size =
  match table with
  | [] -> invalid_arg "Profile.lifetime_dist: empty lifetime table"
  | [ (_, d) ] -> d
  | (bound, d) :: rest -> if size <= bound then d else pick_lifetime rest size

let[@inline] lifetime_dist t ~size = pick_lifetime t.lifetime_table size

(* The drift multiplier depends only on [now], so the driver computes it
   once per tick instead of paying a [sin] per allocation. *)
let[@inline] size_drift_factor t ~now =
  if t.size_drift_amplitude <= 0.0 then 1.0
  else begin
    let phase = 2.0 *. Float.pi *. now /. t.size_drift_period_ns in
    1.0 +. (t.size_drift_amplitude *. sin phase)
  end

let[@inline] sample_size_drifted t rng ~drift =
  let v = Dist.sample t.size_dist rng in
  (* Drift shifts the small-object mix across neighbouring size classes;
     large buffers keep their standard sizes. *)
  let v = if drift = 1.0 || v > 262144.0 then v else v *. drift in
  Int.max 1 (int_of_float (Float.round v))

let sample_size ?(now = 0.0) t rng =
  sample_size_drifted t rng ~drift:(size_drift_factor t ~now)

let[@inline] sample_lifetime t rng ~size = Dist.sample (lifetime_dist t ~size) rng

(* Fleet object-size inverse CDF, numerically calibrated (Monte-Carlo) so
   the count CDF has ~98% of objects below 1 KiB while bytes split
   ~28% / ~22% / ~28% / ~22% across (<=1K / 1K-8K / 8K-256K / >256K) —
   Fig. 7's anchors.  The multi-GiB extreme of the paper's axis cannot be
   represented at simulation scale: a single such draw would dominate the
   byte CDF of a run with millions (not billions) of allocations, so the
   tail tops out at ~10 MiB (see EXPERIMENTS.md). *)
let fleet_size_dist =
  Dist.empirical
    [
      (0.00, 8.0);
      (0.35, 24.0);
      (0.65, 64.0);
      (0.85, 160.0);
      (0.95, 448.0);
      (0.98, 1024.0);
      (0.9885, 2048.0);
      (0.99926, 8192.0);
      (0.99946, 65536.0);
      (0.999975, 262144.0);
      (1.0, 1.0e7);
    ]

let exp_ms mean_ms = Dist.exponential ~mean:(mean_ms *. Units.ms)

(* Size-conditioned lifetime mixtures (Fig. 8): small objects skew very
   short (46% under 1 ms) but retain a heavy tail; multi-GiB objects mostly
   live for days. *)
let fleet_lifetime_table =
  let kib = Units.kib and mib = Units.mib and gib = Units.gib in
  [
    ( kib,
      Dist.mixture
        [
          (0.46, exp_ms 0.3);
          (0.22, exp_ms 50.0);
          (0.16, exp_ms 5_000.0);
          (0.10, exp_ms 300_000.0);
          (0.06, Dist.exponential ~mean:(2.0 *. Units.day));
        ] );
    ( 64 * kib,
      Dist.mixture
        [
          (0.30, exp_ms 1.0);
          (0.25, exp_ms 100.0);
          (0.20, exp_ms 10_000.0);
          (0.15, exp_ms 600_000.0);
          (0.10, Dist.exponential ~mean:(2.0 *. Units.day));
        ] );
    ( mib,
      Dist.mixture
        [
          (0.20, exp_ms 5.0);
          (0.25, exp_ms 500.0);
          (0.25, exp_ms 30_000.0);
          (0.15, Dist.exponential ~mean:(30.0 *. Units.minute));
          (0.15, Dist.exponential ~mean:(3.0 *. Units.day));
        ] );
    ( 64 * mib,
      Dist.mixture
        [
          (0.10, exp_ms 20.0);
          (0.20, exp_ms 2_000.0);
          (0.30, Dist.exponential ~mean:(2.0 *. Units.minute));
          (0.20, Dist.exponential ~mean:(1.0 *. Units.hour));
          (0.20, Dist.exponential ~mean:(3.0 *. Units.day));
        ] );
    ( gib,
      Dist.mixture
        [
          (0.05, exp_ms 100.0);
          (0.15, exp_ms 10_000.0);
          (0.25, Dist.exponential ~mean:(10.0 *. Units.minute));
          (0.25, Dist.exponential ~mean:(2.0 *. Units.hour));
          (0.30, Dist.exponential ~mean:(2.0 *. Units.day));
        ] );
    ( max_int,
      Dist.mixture
        [
          (0.05, exp_ms 1_000.0);
          (0.10, Dist.exponential ~mean:(1.0 *. Units.minute));
          (0.20, Dist.exponential ~mean:(1.0 *. Units.hour));
          (0.65, Dist.exponential ~mean:(3.0 *. Units.day));
        ] );
  ]

let scale_lifetimes factor table =
  List.map (fun (bound, d) -> (bound, Dist.scaled factor d)) table
