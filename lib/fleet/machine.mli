(** A simulated server: one hardware platform running co-located jobs.

    Each job is one process — an allocator instance plus a workload driver —
    confined by the control plane to a slice of the machine's CPUs (Sec. 3:
    "workloads are often co-located, and constrained to run on a subset of
    CPUs").  All processes share the machine's simulated clock, so their
    background allocator activities interleave in time exactly as the
    drivers do. *)

type t

val create :
  ?seed:int ->
  ?config:Wsc_tcmalloc.Config.t ->
  ?soft_limit_bytes:int ->
  ?hard_limit_bytes:int ->
  ?faults:Wsc_os.Fault.config ->
  ?rseq:Wsc_os.Rseq.config ->
  ?audit_interval_ns:float ->
  platform:Wsc_hw.Topology.t ->
  jobs:Wsc_workload.Profile.t list ->
  unit ->
  t
(** Co-locate [jobs] on a machine of the given platform.  CPU slices are
    carved contiguously (and wrap), so co-located jobs overlap on big
    machines only when they need more CPUs than exist.

    [soft_limit_bytes]/[hard_limit_bytes] apply per process: exceeding the
    soft limit triggers each allocator's reclaim cascade; the hard limit
    makes mmap fail (the allocator reclaims and retries before OOM).
    [faults] instantiates one {!Wsc_os.Fault} stream per job (perturbed by
    job index, so co-located processes fail independently while pressure
    spikes stay machine-wide) and installs its hooks into the job's VM.
    [rseq] instantiates one preemption injector per job (likewise
    index-perturbed) and runs that job's allocator fast path under the
    restartable-sequence protocol.
    [audit_interval_ns] enables periodic heap audits in every driver. *)

val run : t -> duration_ns:float -> epoch_ns:float -> unit
(** Advance the machine's clock, stepping every job each epoch. *)

val platform : t -> Wsc_hw.Topology.t

type job = {
  profile : Wsc_workload.Profile.t;
  driver : Wsc_workload.Driver.t;
  backend : Wsc_backend.Backend.t;
  fault : Wsc_os.Fault.t option;  (** Present when the machine injects faults. *)
}

val jobs : t -> job list
val clock : t -> Wsc_substrate.Clock.t

val total_rss : t -> int
(** Sum of simulated RSS across jobs. *)

(** {2 Result summaries}

    A machine's post-run outcome, compacted into a closure-free record a
    campaign can aggregate and checkpoint without holding the machine
    itself alive.  Everything is plain data ([Marshal] without flags), so
    summaries stream through {!Wsc_persist}'s container unchanged. *)

type job_summary = {
  js_profile : string;
  js_requests : float;
  js_allocations : int;
  js_frees : int;
  js_live_objects : int;
  js_heap : Wsc_tcmalloc.Malloc.heap_stats;
  js_malloc_ns : float;  (** Measured allocator ns since the last reset. *)
  js_cpu_ns : float;  (** Modeled request CPU ({!Gwp}'s formula). *)
  js_allocated_bytes : float;
  js_avg_rss_bytes : float;
  js_hugepage_coverage : float;
  js_size_count : Wsc_substrate.Histogram.t;
  js_size_bytes : Wsc_substrate.Histogram.t;
}

type summary = {
  sm_now_ns : float;  (** The machine clock when the summary was taken. *)
  sm_jobs : job_summary list;  (** Creation order (same as {!jobs}). *)
  sm_digest : string;  (** Integrity digest over the fields above. *)
}

val summary : t -> summary
(** Snapshot the machine's results.  Pure read: the machine can keep
    running afterwards. *)

val summary_valid : summary -> bool
(** Recompute the digest and compare — how a supervisor detects a
    corrupted result before merging it into an aggregate. *)

(** {2 Warm-state checkpointing} *)

val step : t -> dt:float -> unit
(** Step every job for one epoch; the caller must have advanced the
    machine's clock by [dt] first (what {!run} does internally).  Exposed
    so checkpoint-aware run loops ({!Wsc_persist}) can interleave
    snapshots between epochs without perturbing the epoch sequence. *)

val checkpoint : t -> string
(** Serialize the whole machine — every job's driver, allocator, OS
    state, the shared clock and its background tickers — into one blob
    such that [resume] + continue is bit-identical to an uninterrupted
    run ([machine bit-identity] in test/test_persist.ml).  Driver probes are omitted (they may capture channels).  The
    blob is [Marshal]-based and same-binary only; {!Wsc_persist} wraps it
    in a versioned, checksummed container for on-disk use. *)

val resume : string -> t
(** Inverse of {!checkpoint}. *)
