(** The allocator facade: TCMalloc's public malloc/free, wired through the
    full cache hierarchy (Fig. 1).

    [malloc] rounds small requests (<= 256 KiB) to a size class and serves
    them per-CPU cache -> transfer cache -> central free list -> pageheap,
    charging the calibrated per-tier latencies (Fig. 4) into {!Telemetry}.
    Large requests go straight to the pageheap.  [free] retraces the same
    path downward.  Callers identify the physical CPU issuing each call; the
    facade maps it to a dense vCPU id and maintains every background
    activity (dynamic cache resizing, NUCA shard release, gradual pageheap
    release) as tickers on the supplied {!Wsc_substrate.Clock}. *)

type addr = int

type t

val create :
  ?config:Config.t ->
  ?rseq:Wsc_os.Rseq.t ->
  ?span_snapshot_interval_ns:float ->
  topology:Wsc_hw.Topology.t ->
  clock:Wsc_substrate.Clock.t ->
  unit ->
  t
(** A fresh allocator instance (one simulated process).  When
    [span_snapshot_interval_ns] is given, a {!Span_stats} collector records
    every span the central free list creates and releases, and span
    occupancy is observed into it at that period (Figs. 13/16).  Without it
    no span statistics are kept and {!span_stats} is [None].

    When [rseq] is given, every per-CPU step — the per-event pop or push,
    and a cache miss's batch fill or flush — runs under the
    restartable-sequence protocol: the injector may preempt it at any of
    the four steps, forcing abort-and-restart up to
    {!Config.t.rseq_max_restarts} times, after which the operation
    bypasses the front end to the transfer cache.  The injector decides
    first and the step runs once, only if the operation commits; every
    attempt reads the same vCPU id.  The batch moves to and from the
    transfer cache are the same with or without it.  Restart counts,
    restart CPU overhead (one extra fast-path hit per restart, Fig. 4), and
    fallbacks are recorded in {!Telemetry}.  Without it the fast path
    commits atomically (identical to the pre-rseq model). *)

val malloc : ?thread:int -> t -> cpu:int -> size:int -> addr
(** Allocate [size > 0] bytes from a thread running on physical [cpu].
    [thread] identifies the calling software thread; it is only consulted
    by the legacy {!Config.Per_thread_caches} front-end, which indexes its
    caches by thread instead of vCPU (and without it falls back to vCPU
    indexing).  This is the only malloc entry point.  A per-event caller
    that has thread ids keeps one [Some id] per thread, built when the
    thread gets its identity, and passes it with [?thread:], so no call
    allocates.

    When the simulated VM refuses backing memory (injected transient fault
    or hard memory limit), the allocator runs the {!release_memory} reclaim
    cascade and retries up to {!Config.t.reclaim_retries} times before
    surfacing [Out_of_memory]. *)

val free : ?thread:int -> t -> cpu:int -> addr -> size:int -> unit
(** Free a block previously returned by {!malloc} with the same [size].
    [thread] is passed as for {!malloc}.
    @raise Invalid_argument on erroneous frees, with a message naming the
    defect, the address, the size, and the deepest tier consulted:
    wild pointers, size mismatches (wrong class or wrong large page count),
    misaligned interior pointers, and double frees — whether the object is
    free in its span or still cached in the per-CPU/transfer tiers.  Both
    are read from the object's {!Span.slot_state}: [malloc] marks the
    object it returns held, and [free] accepts only a held object and
    marks it cached. *)

(** {2 Memory pressure} *)

type reclaim_outcome = {
  front_end_bytes : int;  (** Drained from per-CPU caches into the TC. *)
  transfer_bytes : int;  (** Drained from the transfer cache to spans. *)
  cfl_span_bytes : int;  (** Idle span bytes returned to the pageheap. *)
  os_released_bytes : int;  (** Bytes actually unmapped/subreleased. *)
}

val release_memory : t -> target_bytes:int -> reclaim_outcome
(** Run the graceful reclaim cascade for [target_bytes]: drain per-CPU
    caches into the transfer cache, drain the transfer cache back to spans
    (idle spans fall to the pageheap), then release hugepages and
    subrelease filler tail pages to the OS.  The cache-drain stages are
    skipped when the pageheap's immediately-releasable backlog already
    covers the target.  Each tier's contribution is recorded in
    {!Telemetry} and returned.  [target_bytes <= 0] is a no-op.

    Also runs automatically from the soft-limit watchdog ticker (period
    {!Config.t.soft_limit_check_interval_ns}) whenever
    {!Wsc_os.Vm.soft_limit_excess} is positive, and from [malloc]'s
    retry-with-reclaim loop after an mmap failure. *)

val zero_reclaim : reclaim_outcome
(** What a reclaim with [target_bytes <= 0] returns: nothing released. *)

val record_reclaim : Telemetry.t -> reclaim_outcome -> unit
(** Count one reclaim event and each tier's contribution: the telemetry
    every backend's reclaim records. *)

val cpu_idle : ?flush:bool -> t -> cpu:int -> unit
(** Tell the allocator a physical CPU stopped running this process's
    threads (its vCPU id becomes reusable).  With [flush:true] — what CPU
    churn should do — the retired cache's contents are drained to the
    transfer cache immediately; otherwise a populated cache is registered
    for the background stranded-cache reclaim pass (period
    {!Config.t.stranded_reclaim_interval_ns}), which drains every
    registered cache whose id is still inactive.  Either way the bytes are
    recorded as stranded reclaim in {!Telemetry}.  When an rseq injector is
    live, the retirement also arms a forced abort of the next fast-path
    attempt (the thread migrated; its CPU id is stale). *)

val rseq : t -> Wsc_os.Rseq.t option
(** The preemption injector the allocator runs under, if any. *)

val stranded_pending_ids : t -> int list
(** vCPU ids retired with a populated cache and not yet drained or reused,
    ascending (the stranded-cache reclaim pass's work list). *)

(** {2 Introspection} *)

type heap_stats = {
  live_requested_bytes : int;  (** Application-requested live bytes. *)
  live_rounded_bytes : int;  (** Live bytes after size-class rounding. *)
  front_end_cached_bytes : int;
  transfer_cached_bytes : int;
  cfl_fragmented_bytes : int;
  pageheap_fragmented_bytes : int;
  internal_fragmentation_bytes : int;
  external_fragmentation_bytes : int;  (** Sum of the four cache tiers. *)
  resident_bytes : int;  (** Simulated RSS. *)
}

val heap_stats : t -> heap_stats
(** Cheap (O(size classes + vCPUs)) snapshot, safe to sample every epoch. *)

val stats_of_tiers :
  Telemetry.t ->
  Wsc_os.Vm.t ->
  front_end:int ->
  transfer:int ->
  cfl:int ->
  pageheap:int ->
  heap_stats
(** The stats of a heap whose four cache tiers hold these bytes: the live
    and internal-fragmentation bytes come from the telemetry, resident
    bytes from the VM.  Every backend's {!heap_stats} is built here. *)

val hugepage_coverage : t -> float
(** Fraction of in-use bytes on intact hugepages (Fig. 17a).  Walks every
    hugepage and span placement — call sparingly. *)

val fragmentation_ratio : heap_stats -> float
(** (external + internal) / live requested — the Fig. 5b metric. *)

val fragmentation_of : Telemetry.t -> external_bytes:int -> float
(** {!fragmentation_ratio} of a heap whose four cache tiers hold
    [external_bytes], without building the stats record: the
    allocation-free form for per-epoch sampling loops, shared by every
    backend. *)

val live_fragmentation_ratio : t -> float
(** [fragmentation_ratio (heap_stats t)], through {!fragmentation_of}. *)

val telemetry : t -> Telemetry.t

val span_stats : t -> Span_stats.t option
(** [Some] exactly when {!create} was given [span_snapshot_interval_ns]. *)

val per_cpu_caches : t -> Per_cpu_cache.t
val transfer_cache : t -> Transfer_cache.t
val central_free_list : t -> Central_free_list.t
val pageheap : t -> Pageheap.t
val vm : t -> Wsc_os.Vm.t
val vcpus : t -> Wsc_os.Vcpu.t
val sampler : t -> Sampler.t
val config : t -> Config.t
val clock : t -> Wsc_substrate.Clock.t
