(** The workload driver: turns a {!Profile} into a live allocation stream
    against one allocator instance.

    The driver is a discrete-event simulation: every allocated object draws
    a lifetime and is entered into a pending-free heap; each [step] first
    retires the frees that came due, then issues the epoch's new allocations
    from the currently-active worker threads (whose count follows the
    profile's {!Threads} model, releasing vCPUs when the pool shrinks).
    Cross-thread frees happen with the profile's configured probability and
    are what drives traffic through the transfer cache.

    Besides driving the allocator, the driver records the observability
    streams the paper's figures need: thread-count time series (Fig. 9a),
    RSS and fragmentation averages (Figs. 10/14, Tables 1/2), and sampled
    (size, lifetime) pairs fed into the allocator's telemetry (Fig. 8 —
    drawn lifetimes are recorded so that lifetimes longer than the simulated
    horizon are represented; the in-allocator sampler only sees frees that
    actually happen). *)

type t

type probe = {
  on_alloc : addr:int -> size:int -> cpu:int -> unit;
  on_free : addr:int -> cpu:int -> unit;
  on_advance : dt_ns:float -> unit;
  on_retire : cpu:int -> flush:bool -> unit;
}
(** Passive observation hooks fired for every allocator-visible action the
    driver takes, in exact issue order: [on_advance] at the top of each
    {!step} (after the caller advanced the shared clock), then one callback
    per vCPU retirement, free, and allocation.  A probe must not touch the
    allocator; it exists so a trace recorder ({!Wsc_trace.Recorder}) can
    capture a {e real} driver run — threads, churn, faults and all — as a
    replayable event stream. *)

val job_sched : Wsc_hw.Topology.t -> first_cpu:int -> Profile.t -> Wsc_os.Sched.t
(** The CPU quota the control plane gives one job of [profile] whose slice
    starts at [first_cpu]: the profile's thread ceiling bounded by the
    machine ({!Wsc_os.Sched.quota_size} of the result), spread across up
    to four LLC domains when that ceiling exceeds half a domain.  The one
    placement rule behind both {!Wsc_fleet.Machine} and
    {!Wsc_trace.Recorder.record_app}, so a recorded solo run is the
    one-job machine's run. *)

val create :
  ?seed:int ->
  ?lifetime_sample_every:int ->
  ?series_cap:int ->
  ?faults:Wsc_os.Fault.t ->
  ?probe:probe ->
  ?audit_interval_ns:float ->
  profile:Profile.t ->
  sched:Wsc_os.Sched.t ->
  backend:Wsc_backend.Backend.t ->
  clock:Wsc_substrate.Clock.t ->
  unit ->
  t
(** The startup burst (if the profile has one) is issued on the first
    step.

    [series_cap] bounds the {!thread_series}/{!rseq_series} accumulators:
    once a series reaches the cap, every other sample is dropped in place
    and the recording stride doubles, so arbitrarily long runs keep at most
    [series_cap] evenly spaced samples per series instead of growing
    without bound.  [0] (the default) keeps every sample.  Only the
    recording cadence changes; the simulation is unaffected.

    [faults] makes the driver consume the stream's CPU-churn bursts: when
    one fires, every active vCPU retires with its cache flushed to the
    transfer cache ({!Wsc_backend.Backend.cpu_idle} with [flush:true]) and
    the next thread update re-acquires CPUs.  Installing the
    stream's mmap/pressure hooks into the allocator's VM is the caller's
    job ({!Wsc_os.Fault.install}).

    [audit_interval_ns] runs the backend's self-audit ({!Wsc_backend.Backend.audit})
    every interval of simulated time; reports accumulate for {!audit_reports}. *)

val step : t -> dt:float -> unit
(** Process one epoch ending at the clock's current time: the caller (or
    {!run}) must have advanced the shared clock by [dt] beforehand. *)

val run : t -> duration_ns:float -> epoch_ns:float -> unit
(** Convenience for single-process experiments: repeatedly advance the
    driver's clock by [epoch_ns] and step, for [duration_ns]. *)

(** {2 Results} *)

val requests_completed : t -> float
val allocations : t -> int
val live_objects : t -> int
(** Objects allocated and not yet freed (pending-free heap size). *)

val thread_series : t -> (float * int) list
(** [(time, active_threads)] samples, ascending. *)

val rseq_series : t -> (float * int * int) list
(** [(time, cumulative rseq restarts, cumulative stranded-reclaim bytes)]
    samples taken alongside {!thread_series} — the restart-overhead and
    stranded-memory trajectories under churn.  All-zero counters without a
    live injector. *)

val series_samples : t -> int
(** Samples currently kept per series (both series share the cadence). *)

val series_stride : t -> int
(** Current recording stride: 1 until [series_cap] is first hit, then
    doubling at each subsequent halving. *)

val avg_rss_bytes : t -> float
val peak_rss_bytes : t -> int
val avg_fragmentation_ratio : t -> float

val avg_hugepage_coverage : t -> float
(** Time-averaged hugepage coverage (sampled every 0.5 s of simulated
    time); falls back to the instantaneous value before the first sample. *)

val profile : t -> Profile.t
val backend : t -> Wsc_backend.Backend.t
val faults : t -> Wsc_os.Fault.t option

val audit_reports : t -> Wsc_tcmalloc.Audit.report list
(** Every audit taken so far, oldest first (empty without
    [audit_interval_ns]). *)

val audit_violations : t -> int
(** Total violations across all audits (0 = heap consistent throughout). *)

val reset_measurements : t -> unit
(** Zero the request counter and the RSS/fragmentation accumulators
    (call after a warmup phase so steady-state metrics exclude the
    transient heap build-up).  The allocator state itself is untouched. *)

val measured_malloc_ns : t -> float
(** Allocator CPU time accumulated since the last {!reset_measurements}
    (or since creation). *)

val drain : t -> unit
(** Free every pending object immediately (end-of-run cleanup for leak
    checks in tests). *)

(** {2 Warm-state checkpointing} *)

val checkpoint : t -> string
(** Serialize the driver and everything it drives — the allocator (the
    {!Wsc_backend.Backend.t} value itself), the shared clock
    and its tickers, the pending-free event heap, the thread pool and
    vCPU occupancy, fault stream, audit history, and the driver's RNG
    cursor — into one [Marshal]-with-closures blob.  Resuming
    ({!resume}) and continuing is bit-identical to never having
    checkpointed ([driver bit-identity] in test/test_persist.ml).  A {!probe} is {e not} captured (it may hold an output
    channel); the restored driver runs without one.  Same-binary only;
    {!Wsc_persist} adds the durable, checked file container. *)

val resume : string -> t
(** Inverse of {!checkpoint}.  The restored driver owns private copies of
    the clock/allocator it shared at checkpoint time; resume co-located
    jobs at the machine level ({!Wsc_fleet.Machine}) to keep sharing. *)

val with_probe_detached : t -> (unit -> 'a) -> 'a
(** Run [f] with the probe unhooked (restored afterwards, also on raise).
    Used by machine- and fleet-level checkpointing. *)
