(** The allocator backend: one value type covering every allocator model
    the simulator can run a process on.

    The rest of the repo (driver, machine, fleet, traces, persistence)
    consumes allocators exclusively through this module.  Selection rides
    in {!Wsc_tcmalloc.Config.t.backend}, so a config value names both the
    allocator and its knobs and flows unchanged through fleet campaigns,
    A/B arms and trace replays.

    A backend holds its model next to the process state every model
    shares: config, topology, clock, VM, vCPU table and telemetry.  Reading
    those, and {!resident_bytes}, dispatches on nothing.  What the models
    share has one implementation each: the rivals' reclaim-retry loop
    (here), the stats record ({!Wsc_tcmalloc.Malloc.stats_of_tiers}), the
    fragmentation ratio ({!Wsc_tcmalloc.Malloc.fragmentation_of}), the
    reclaim telemetry ({!Wsc_tcmalloc.Malloc.record_reclaim}) and the
    audit's VM checks ({!Wsc_tcmalloc.Audit.of_walk}).

    The contract every backend satisfies:
    - [malloc]/[free] with physical-CPU context and the same erroneous-free
      diagnostics (wild pointer, size mismatch, misaligned interior
      pointer, double free);
    - under {!Wsc_os.Vm} memory pressure, a failed mapping counts a retry
      and runs a reclaim, up to {!Wsc_tcmalloc.Config.t.reclaim_retries}
      times, and the next failure raises [Out_of_memory].  TCMalloc
      reclaims once more before it raises, and asks for twice the size, so
      one forced OOM records 4 reclaim events on it against 3 on each rival
      ([reclaim_retry_protocol] in test/test_backend.ml);
    - [release_memory] running a reclaim cascade with its contributions
      recorded in {!Wsc_tcmalloc.Telemetry};
    - [cpu_idle] retiring a physical CPU's vCPU id (with optional flush);
    - O(1)-ish {!heap_stats} whose [external_fragmentation_bytes] is the
      sum of the four cache-tier fields and whose byte conservation
      ([resident = live_rounded + the four tiers]) is checked by {!audit};
    - a self-audit returning the shared {!Wsc_tcmalloc.Audit.report}, with
      the same VM-counter and hard-limit checks on every backend;
    - full determinism: no wall clock, no unseeded randomness, so any
      [--jobs N] fleet run is bit-identical to [--jobs 1] (the
      [fleet_<backend>_jobs4_eq_jobs1] properties in test/test_backend.ml).

    To add a backend: write a model with the rivals' surface (see
    [Rpmalloc_model]): [create ~vm ~vcpus ~tel], one [malloc] attempt that
    lets {!Wsc_os.Vm.Mmap_failed} escape, [free], a [release] sweep,
    [cpu_idle], [heap_stats] built by
    {!Wsc_tcmalloc.Malloc.stats_of_tiers}, [external_bytes], and an [audit]
    walk of its own structures.  Add a constructor to the model type in
    backend.ml and a {!Wsc_tcmalloc.Config.backend_kind} case; the
    compiler's exhaustiveness check walks you through the dispatches.  Then
    add it to {!Config.all_backends} so the qcheck conformance suite
    (test/conformance.ml) and the arena cover it. *)

module Config = Wsc_tcmalloc.Config
module Malloc = Wsc_tcmalloc.Malloc

type kind = Config.backend_kind = Tcmalloc | Rpmalloc | Jemalloc

val kind_name : kind -> string

type t

type heap_stats = Malloc.heap_stats
(** All backends report the same stats record; rivals map their tiers onto
    it (rpmalloc: deferred frees in [transfer_cached_bytes], span slack in
    [cfl_fragmented_bytes]; jemalloc: tcaches in [front_end_cached_bytes],
    slab free+slack in [cfl_fragmented_bytes], free extents in
    [pageheap_fragmented_bytes]). *)

val create :
  ?config:Config.t ->
  ?rseq:Wsc_os.Rseq.t ->
  ?span_snapshot_interval_ns:float ->
  topology:Wsc_hw.Topology.t ->
  clock:Wsc_substrate.Clock.t ->
  unit ->
  t
(** Dispatches on [config.backend].  [rseq] models TCMalloc's restartable
    sequences and is rejected ([Invalid_argument]) for the rival backends;
    [span_snapshot_interval_ns] is likewise TCMalloc-only and ignored by
    rivals.  Span statistics ({!Malloc.span_stats}) are recorded only when
    it is given. *)

val kind : t -> kind

val tc_exn : t -> Malloc.t
(** The underlying TCMalloc instance, for tcmalloc-only introspection
    (span stats, per-CPU caches, pageheap).
    @raise Invalid_argument on a rival backend. *)

val malloc : ?thread:int -> t -> cpu:int -> size:int -> int
val free : ?thread:int -> t -> cpu:int -> int -> size:int -> unit
(** The one malloc/free form.  [thread] reaches {!Malloc.malloc} and
    {!Malloc.free} unchanged; rival backends have no per-thread mode and
    ignore it.  Passing a prebuilt [Some id] with [?thread:] allocates
    nothing per call. *)

val release_memory : t -> target_bytes:int -> Malloc.reclaim_outcome
(** [target_bytes <= 0] is a no-op.  A rival sweeps everything it can,
    whatever the target. *)

val cpu_idle : ?flush:bool -> t -> cpu:int -> unit

val heap_stats : t -> heap_stats
val resident_bytes : t -> int

val live_fragmentation_ratio : t -> float
(** [fragmentation_ratio (heap_stats t)] without building the record. *)

val hugepage_coverage : t -> float
(** TCMalloc's {!Malloc.hugepage_coverage}; a rival never subreleases, so
    its coverage is {!Wsc_os.Vm.hugepage_coverage}. *)

val fragmentation_ratio : heap_stats -> float
(** (external + internal) / live requested — backend-independent. *)

val telemetry : t -> Wsc_tcmalloc.Telemetry.t
val vm : t -> Wsc_os.Vm.t
val vcpus : t -> Wsc_os.Vcpu.t
val config : t -> Config.t
val topology : t -> Wsc_hw.Topology.t
val clock : t -> Wsc_substrate.Clock.t

val rseq : t -> Wsc_os.Rseq.t option
(** The preemption injector, if any (always [None] on rivals). *)

val sampler : t -> Wsc_tcmalloc.Sampler.t option
(** The GWP-style heap sampler (TCMalloc only). *)

val stranded_pending_ids : t -> int list
(** Stranded-cache work list (TCMalloc only; rivals flush inline). *)

val audit : t -> Wsc_tcmalloc.Audit.report
(** Whole-heap invariant walk in the shared report format. *)
