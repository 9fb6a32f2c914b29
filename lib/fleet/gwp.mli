(** Google-Wide-Profiling-style fleet telemetry aggregation (Sec. 2.2).

    Collects per-job allocator telemetry and aggregates it into the
    fleet-level views behind the characterization figures: malloc CPU cycle
    fractions (Fig. 5a), per-component cycle breakdowns (Fig. 6a),
    fragmentation ratios and breakdowns (Figs. 5b/6b), object-size CDFs
    (Fig. 7), size-conditioned lifetime distributions (Fig. 8), and
    per-binary usage totals (Fig. 3).

    Application CPU time is reconstructed from the productivity model:
    [requests x instructions_per_request x baseline CPI / frequency]. *)

val malloc_cycle_fraction : Machine.job -> float
(** Fraction of the job's CPU spent in the allocator (Fig. 5a). *)

val fleet_malloc_cycle_fraction : Machine.job list -> float
(** CPU-weighted aggregate across jobs. *)

type cycle_breakdown = {
  cpu_cache : float;
  transfer_cache : float;
  central_free_list : float;
  pageheap : float;  (** Includes mmap system time. *)
  sampled : float;
  prefetch : float;
  other : float;
}
(** Shares of total malloc cycles; sums to 1 (Fig. 6a). *)

val cycle_breakdown : Machine.job list -> cycle_breakdown

type fragmentation_breakdown = {
  fb_cpu_cache : float;
  fb_transfer_cache : float;
  fb_central_free_list : float;
  fb_pageheap : float;
  fb_internal : float;
}
(** Shares of total (external + internal) fragmentation; sums to 1
    (Fig. 6b). *)

val fragmentation_breakdown : Machine.job list -> fragmentation_breakdown

val fragmentation_ratio : Machine.job list -> float * float
(** [(external_ratio, internal_ratio)] relative to live application bytes,
    aggregated across jobs (Fig. 5b). *)

val merged_size_histograms :
  Machine.job list -> Wsc_substrate.Histogram.t * Wsc_substrate.Histogram.t
(** [(by_count, by_bytes)] object-size histograms over all jobs (Fig. 7). *)

val merged_lifetime_bins :
  Machine.job list -> (int * Wsc_substrate.Histogram.t) list
(** Size-binned lifetime histograms over all jobs (Fig. 8). *)

type binary_usage = {
  binary : string;
  malloc_ns : float;
  allocated_bytes : float;
}

val binary_usage : Machine.job list -> binary_usage list
(** Per-binary malloc time and bytes allocated, descending by malloc time
    (Fig. 3); jobs of the same binary are summed. *)
