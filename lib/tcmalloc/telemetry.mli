(** Allocator telemetry.

    Mirrors the counters behind the paper's characterization figures: CPU
    cycles per allocator component (Fig. 6a), tier hit counts (Fig. 4
    context), object-size distributions by count and by bytes (Fig. 7),
    size-conditioned lifetime distributions (Fig. 8), per-vCPU front-end
    misses (Fig. 9b), NUCA object-reuse locality (Table 1), and the running
    internal-fragmentation balance (Fig. 5b/6b).  Time is charged in
    nanoseconds of allocator work; callers convert to cycle fractions using
    the platform frequency and total runtime. *)

type t

val create : unit -> t

(** {2 Cost charging (ns of allocator CPU)} *)

val charge_tier : t -> Wsc_hw.Cost_model.tier -> float -> unit
val charge_prefetch : t -> float -> unit
val charge_sampled : t -> float -> unit
val charge_other : t -> float -> unit

val tier_ns : t -> Wsc_hw.Cost_model.tier -> float
val prefetch_ns : t -> float

val total_malloc_ns : t -> float
(** Sum of all charged allocator time. *)

(** {2 Measurement windows}

    Profiling windows exclude warmup: {!mark} snapshots every cycle
    category, and the [*_since_mark] accessors report deltas since the
    last mark (since creation if never marked). *)

val mark : t -> unit
val tier_ns_since_mark : t -> Wsc_hw.Cost_model.tier -> float
val prefetch_ns_since_mark : t -> float
val sampled_ns_since_mark : t -> float
val other_ns_since_mark : t -> float

(** {2 Allocation stream} *)

val record_alloc : t -> requested:int -> rounded:int -> unit
(** One successful allocation: [requested] bytes asked, [rounded] bytes
    granted (size-class size, or page-rounded for large objects). *)

val record_free : t -> requested:int -> rounded:int -> unit

val record_hit : t -> Wsc_hw.Cost_model.tier -> unit
(** Deepest tier touched while satisfying one allocation. *)

val alloc_count : t -> int
val free_count : t -> int
val live_requested_bytes : t -> int
(** Application-live bytes as requested. *)

val live_rounded_bytes : t -> int
(** Application-live bytes as granted (>= requested). *)

val internal_fragmentation_bytes : t -> int
(** [live_rounded - live_requested]: the size-class rounding slack. *)

val hits : t -> Wsc_hw.Cost_model.tier -> int

(** {2 Distributions} *)

val size_histogram_count : t -> Wsc_substrate.Histogram.t
(** Allocations by object size, weighted by count (Fig. 7 "Object Count"). *)

val size_histogram_bytes : t -> Wsc_substrate.Histogram.t
(** Allocations by object size, weighted by bytes (Fig. 7 "Memory"). *)

val record_lifetime : t -> size:int -> lifetime_ns:float -> unit
(** One sampled object's (size, lifetime) pair (Fig. 8). *)

val lifetime_bins : t -> (int * Wsc_substrate.Histogram.t) list
(** [(size_bin_lower_bound, lifetime histogram)] pairs, ascending by size;
    only bins with samples appear. *)

val lifetime_fraction :
  t -> size_min:int -> size_max:int -> lifetime_below_ns:float -> float
(** Fraction of sampled objects in the given size range whose lifetime is
    below the bound (e.g. "46% of <1 KiB objects live < 1 ms"). *)

(** {2 Front-end miss accounting (Fig. 9b)} *)

val record_front_end_miss : t -> vcpu:int -> unit
val front_end_misses : t -> int array
(** Cumulative misses per vCPU id (index = vCPU). *)

(** {2 Transfer-cache locality (Table 1)} *)

val record_object_reuse : t -> remote:bool -> unit
(** An allocation was satisfied with an object freed on another LLC domain
    ([remote = true]) or the local one. *)

val remote_reuse_fraction : t -> float
(** [remote / (remote + local)]; 0 when no reuse occurred. *)

(** {2 Reclaim cascade (memory-pressure survival)} *)

type reclaim_tier =
  | Front_end  (** Per-CPU cache objects flushed to the transfer cache. *)
  | Transfer  (** Transfer-cache objects (all shards) drained to the CFL. *)
  | Cfl_spans  (** Bytes of spans that drained and returned to the pageheap. *)
  | Os_release  (** Bytes actually given back to the OS (resident drop). *)

val reclaim_tier_name : reclaim_tier -> string
val all_reclaim_tiers : reclaim_tier list

val record_reclaim : t -> reclaim_tier -> int -> unit
(** Bytes moved out of one tier by a cascade invocation. *)

val record_reclaim_event : t -> unit
(** One invocation of the reclaim cascade. *)

val record_reclaim_retry : t -> unit
(** One allocation retry after an mmap failure triggered the cascade. *)

val record_oom : t -> unit
(** The retry budget ran out and [Out_of_memory] surfaced. *)

val reclaimed_bytes : t -> reclaim_tier -> int
val reclaim_events : t -> int
val reclaim_retries : t -> int
val oom_events : t -> int

(** {2 Restartable sequences (preemption-safe fast path)} *)

val record_rseq_op : t -> restarts:int -> fell_back:bool -> unit
(** One fast-path operation run under {!Wsc_os.Rseq}: [restarts] aborted
    attempts preceded it, and [fell_back] means the restart budget ran out
    and the operation took the transfer-cache slow path instead. *)

val rseq_ops : t -> int
val rseq_restarts : t -> int
(** Total aborted attempts — each one re-ran the 3.1 ns fast path
    (Fig. 4), which is the restart overhead the CLI quantifies. *)

val rseq_fallbacks : t -> int

val record_stranded_reclaim : t -> bytes:int -> unit
(** One stranded-cache drain: a per-CPU cache whose vCPU id was retired
    by churn or pool shrink gave [bytes] back to the transfer cache. *)

val stranded_reclaim_bytes : t -> int
val stranded_reclaim_events : t -> int
