(** Allocator operation cost model, calibrated to the paper's Fig. 4.

    Latencies are for a *hit* at the given tier; a miss at tier k pays tier
    k's cost plus the refill path below it.  The mmap figure is the syscall
    cost of requesting a zero-initialized 2 MiB hugepage from the kernel and
    dominates everything else, which is the paper's argument for userspace
    caching.

    The transfer-cache and central-free-list bar labels are illegible in the
    paper scan; the values here interpolate between the adjacent tiers and
    are flagged as assumptions in EXPERIMENTS.md. *)

val per_cpu_cache_ns : float
(** 3.1 ns — the rseq fast path (~40 hand-coded x86 instructions). *)

val pageheap_ns : float
(** 137.0 ns — hugepage-aware span carving. *)

val mmap_ns : float
(** 12916.7 ns — kernel hugepage request, measured with strace. *)

val prefetch_ns : float
(** Cost of the next-object prefetch issued on every size-class allocation
    (16% of fleet malloc cycles, Fig. 6a). *)

val sampling_ns : float
(** Extra cost of recording a stack trace on a sampled allocation. *)

type tier = Per_cpu_cache | Transfer_cache | Central_free_list | Pageheap | Mmap

val tier_hit_ns : tier -> float
(** Hit latency for one tier (not cumulative). *)

val tier_name : tier -> string

val all_tiers : tier list
(** Fastest first. *)
