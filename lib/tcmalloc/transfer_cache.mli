(** The transfer cache (Sec. 2.1 item 2, Sec. 4.2).

    A mutex-protected flat array of free-object pointers per size class,
    letting memory flow rapidly between per-CPU caches (CPU 0 frees what
    CPU 1 later allocates).  Objects are moved in batches.

    The legacy design is one machine-wide (per-process) cache; on chiplet
    platforms it silently hands objects across LLC domains, so the consumer
    pays the ~2x inter-domain transfer latency on first touch.  The
    {b NUCA-aware} design ({!Config.t.nuca_aware_transfer_cache}) shards the
    cache per LLC domain, serving each domain's traffic from objects freed
    in that domain, with the legacy central cache retained as a second level
    (still cheaper than the central free list).  A periodic release tick
    drains half of each shard into the central cache so objects cannot
    strand in idle domains.

    Every cached entry remembers the LLC domain that freed it; removals
    report how many reused objects were domain-local vs remote, which feeds
    the locality/MPKI model behind Table 1. *)

type addr = int

type t

val create :
  ?config:Config.t -> topology:Wsc_hw.Topology.t -> Central_free_list.t -> t

(** Mutable scratch record that {!remove_into} fills: how many objects it
    delivered and where they came from. *)
type remove_stats = {
  mutable rs_count : int;  (** Objects delivered into the buffer. *)
  mutable rs_local : int;  (** Objects reused from the requesting LLC domain. *)
  mutable rs_remote : int;  (** Objects that must migrate across domains. *)
  mutable rs_from_cfl : int;  (** Objects that fell through to the central free list. *)
  mutable rs_mmaps : int;  (** mmap calls incurred below the central free list. *)
}

val make_remove_stats : unit -> remove_stats

val remove_into :
  t ->
  cls:int ->
  n:int ->
  domain:int ->
  now:float ->
  buf:addr array ->
  stats:remove_stats ->
  unit
(** Fetch up to [n] objects of a class for a consumer in [domain]: the
    requester's NUCA shard first, then the central cache, then the central
    free list.  They land in [buf.(0) .. stats.rs_count): the central free
    list's objects in span pop order, then the cached objects with the last
    one popped first.  [buf] must have room for [n] objects. *)

val insert_from :
  t -> cls:int -> domain:int -> now:float -> buf:addr array -> lo:int -> hi:int -> int
(** Store the freed objects [buf.(lo) .. buf.(hi-1)], in that order, coming
    from [domain]; returns how many overflowed to the central free list (0
    when the cache had room). *)

val insert_rev_from :
  t -> cls:int -> domain:int -> now:float -> buf:addr array -> lo:int -> hi:int -> int
(** {!insert_from} walking [buf.(hi-1) .. buf.(lo)] (the refill path
    stores its rejected suffix reversed); returns the overflow count. *)

val release_tick : t -> now:float -> unit
(** Background release: every NUCA shard drains half of its untouched
    surplus (low watermark) to the central cache, and the central cache
    drains half of its own untouched surplus to the central free list —
    TCMalloc's defense against idle size classes stranding memory in the
    middle tier.  Runs in both legacy and NUCA modes. *)

val drain : t -> now:float -> int
(** Memory-pressure drain (second stage of the reclaim cascade): return
    every cached object in every shard to the central free list and report
    the bytes moved.  Spans whose last object comes home are released to the
    pageheap as a side effect. *)

val cached_bytes : t -> int
(** Bytes of objects currently cached (external fragmentation in this
    tier). *)

val cached_objects : t -> cls:int -> int

val iter_addrs : t -> (cls:int -> addr -> unit) -> unit
(** Walk every cached object address across the central cache and every
    NUCA shard (the auditor's duplicate detection). *)

val shard_count : t -> int
(** Number of NUCA shards (0 for the legacy design). *)
