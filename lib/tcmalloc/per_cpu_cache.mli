(** The per-CPU (front-end) caches (Sec. 2.1 item 1, Sec. 4.1).

    One cache per virtual CPU, indexed by the dense vCPU ids of
    {!Wsc_os.Vcpu}; each holds per-size-class stacks of object pointers and
    serves the lock-free fast path (3.1 ns in Fig. 4).  A cache is populated
    lazily the first time its vCPU allocates, with a byte budget of
    {!Config.t.per_cpu_cache_bytes} (statically 3 MiB).

    An allocation miss means the class stack is empty; a deallocation miss
    means the cache is at its byte budget.  Both spill to the transfer
    cache and are counted per vCPU — the skew of these counts across vCPU
    ids is Fig. 9b.

    With {b dynamic sizing} ({!Config.t.dynamic_per_cpu_caches}), a
    background pass every 5 s grows the budgets of the
    {!Config.t.resize_grow_candidates} caches with the most misses in the
    last interval, stealing budget round-robin from the others and evicting
    from their largest size classes first (small objects dominate
    allocations, Fig. 7).

    Every operation is a {b restartable sequence}: a [prepare_*] reads the
    cache and records its decision in the cache's op buffer, and
    {!commit_staged} holds all mutation, so {!Wsc_os.Rseq.run_op} can abort
    a preempted attempt without tearing the cache.  With rseq off the batch
    ops ({!fill_from}, {!flush_batch_into}) prepare and commit in one call.
    Only the per-event {!alloc}/{!dealloc}, the hottest path, fuse the two
    halves into one direct step.  The per-event and batch ops allocate
    nothing once a cache is populated (batches move through caller-owned
    buffers), and evictions pop into a buffer the cache owns instead of a
    list. *)

type addr = int

type t

val create : ?config:Config.t -> unit -> t

val alloc : t -> vcpu:int -> cls:int -> addr
(** Fast-path allocation; [-1] is a front-end miss (counted). *)

val dealloc : t -> vcpu:int -> cls:int -> addr -> bool
(** Fast-path deallocation; [false] means the cache is full (counted as a
    miss) and the caller must flush a batch to the transfer cache. *)

val fill_from : t -> vcpu:int -> cls:int -> buf:addr array -> lo:int -> hi:int -> int
(** {!prepare_fill} then {!commit_staged}: returns how many objects were
    cached. *)

val flush_batch_into : t -> vcpu:int -> cls:int -> n:int -> buf:addr array -> pos:int -> int
(** {!prepare_flush} then {!commit_staged}: returns how many objects landed
    in [buf]. *)

(** {2 Restartable operations — the op buffer}

    Protocol: call one [prepare_*] (pure, allocation-free — it only
    records the decision in the cache-wide op buffer), then
    {!commit_staged} to apply it.  A restart overwrites the buffer with a
    fresh [prepare_*]; an abort that never commits leaves the cache
    untouched.  At most one staged op may be outstanding. *)

val prepare_alloc : t -> vcpu:int -> cls:int -> addr
(** Stage one allocation; returns the address committing would pop, or
    [-1] to stage a miss (whose commit only bumps the miss counter). *)

val prepare_dealloc : t -> vcpu:int -> cls:int -> addr -> bool
(** Stage one deallocation; [false] stages a cache-full miss. *)

val prepare_fill : t -> vcpu:int -> cls:int -> buf:addr array -> lo:int -> hi:int -> int
(** Stage a refill offering [buf.(lo) .. buf.(hi-1)] in order; returns how
    many committing will cache.  The cache accepts the prefix its byte
    budget and per-class object cap allow, so the suffix from
    [buf.(lo + accepted)] is rejected.  [buf] is read at commit. *)

val prepare_flush : t -> vcpu:int -> cls:int -> n:int -> buf:addr array -> pos:int -> int
(** Stage a batch flush of up to [n] cached objects of a class; returns how
    many committing will pop into [buf.(pos) ..], most recent first.
    Staging writes nothing into [buf]. *)

val commit_staged : t -> unit
(** Apply the op staged by the last [prepare_*]; no-op if none pending. *)

(** {2 Evictions}

    Each eviction pops one (vCPU, class) stack into the cache's own
    eviction buffer, most recent first, and hands [evict] the buffer and
    the count: [buf.(0) .. buf.(n-1)] is only valid during the call.  The
    buffer, allocated at the first eviction, holds
    {!Config.t.per_cpu_class_cap_objects} objects, the cap on every class
    stack. *)

type evict = vcpu:int -> cls:int -> buf:addr array -> n:int -> unit

val decay_tick : t -> evict:evict -> unit
(** Demand-based capacity decay (TCMalloc shrinks per-class capacity that
    goes unused): flush half of each (vCPU, class) stack's low watermark —
    the objects that sat untouched for the whole previous interval.  Runs
    in both baseline and optimized configs. *)

val drain : t -> evict:evict -> int
(** Memory-pressure shrink (first stage of the reclaim cascade): flush every
    cached object of every vCPU to [evict] and return the bytes drained.
    Capacity budgets are preserved; only contents are evicted. *)

val drain_vcpu : t -> vcpu:int -> evict:evict -> int
(** Stranded-cache reclaim: flush every cached object of {e one} vCPU to
    [evict] and return the bytes drained (0 for an unpopulated id).  The
    cache keeps its capacity budget, so a reused id finds it warm. *)

val resize : t -> evict:evict -> unit
(** One dynamic-sizing pass (no-op when the config disables it).  Evicted
    objects from shrunk caches are handed to [evict] for routing to the
    transfer cache.  Resets the per-interval miss counters. *)

val used_bytes : t -> vcpu:int -> int
val capacity_bytes : t -> vcpu:int -> int
val cached_bytes : t -> int
(** Total bytes cached across vCPUs (front-end external fragmentation). *)

val populated_vcpus : t -> int list
(** vCPU ids whose caches have been populated, ascending. *)

val iter_addrs : t -> (vcpu:int -> cls:int -> addr -> unit) -> unit
(** Walk every cached object address (the auditor's torn-operation and
    duplicate detection). *)

val misses_per_vcpu : t -> int array
(** Cumulative (allocation + deallocation) misses per vCPU id. *)
