(** The allocator backend dispatcher: one value type covering every
    allocator model the simulator can run a process on.

    The rest of the repo (driver, machine, fleet, traces, persistence)
    consumes allocators exclusively through this module.  Selection rides
    in {!Wsc_tcmalloc.Config.t.backend}, so a config value names both the
    allocator and its knobs and flows unchanged through fleet campaigns,
    A/B arms and trace replays.

    The contract every backend satisfies:
    - [malloc]/[free] with physical-CPU context, the same erroneous-free
      diagnostics (wild pointer, size mismatch, misaligned interior
      pointer, double free), and the reclaim-retry-then-[Out_of_memory]
      protocol under {!Wsc_os.Vm} memory pressure;
    - [release_memory] running a graceful reclaim cascade with its
      contributions recorded in {!Wsc_tcmalloc.Telemetry};
    - [cpu_idle] retiring a physical CPU's vCPU id (with optional flush);
    - O(1)-ish {!heap_stats} whose [external_fragmentation_bytes] is the
      sum of the four cache-tier fields and whose byte conservation
      ([resident = live_rounded + the four tiers]) is checked by {!audit};
    - a self-audit returning the shared {!Wsc_tcmalloc.Audit.report};
    - full determinism: no wall clock, no unseeded randomness, so any
      [--jobs N] fleet run is bit-identical to [--jobs 1] (the
      [fleet_<backend>_jobs4_eq_jobs1] properties in test/test_backend.ml).

    To add a backend: write a model exposing the surface consumed here
    (see [Rpmalloc_model] for the shape), add a constructor to {!t} and a
    {!Wsc_tcmalloc.Config.backend_kind} case, and extend every dispatch
    below — the compiler's exhaustiveness check walks you through the
    rest.  Then add it to {!Config.all_backends} so the qcheck
    conformance suite (test/conformance.ml) and the arena cover it. *)

module Config = Wsc_tcmalloc.Config
module Malloc = Wsc_tcmalloc.Malloc

type kind = Config.backend_kind = Tcmalloc | Rpmalloc | Jemalloc

val kind_name : kind -> string

type t =
  | Tc of Malloc.t
  | Rp of Rpmalloc_model.t
  | Je of Jemalloc_model.t

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
val cpu_idle : ?flush:bool -> t -> cpu:int -> unit

val heap_stats : t -> heap_stats
val resident_bytes : t -> int
val live_fragmentation_ratio : t -> float
val hugepage_coverage : t -> float

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
