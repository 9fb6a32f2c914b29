(** The central free lists (Sec. 2.1 item 3, Sec. 4.3).

    One logical free list per size class manages that class's spans and
    serves batch requests from the transfer cache by extracting objects from
    spans (and returning freed objects to their spans).  A span goes back to
    the pageheap only when every object it issued has come home — so a
    single long-lived object pins a whole span (the paper's central source
    of middle-tier fragmentation).

    The baseline keeps one list per class and draws from an arbitrary
    non-exhausted span.  With {b span prioritization}
    ({!Config.t.span_prioritization}), each class keeps L occupancy-indexed
    lists: a span with A outstanding objects lives in list
    [clamp(0, L-1, L-1-floor(log2 A))], and allocation always draws from the
    lowest-indexed (fullest) available list, steering allocations away from
    nearly-free spans so those can drain and be released. *)

type addr = int

type t

val create : ?config:Config.t -> ?span_stats:Span_stats.t -> Pageheap.t -> t
(** One structure managing every size class, backed by the given pageheap.
    When [span_stats] is supplied, span creation/release events and
    {!snapshot} observations feed it. *)

val remove_objects_into :
  t -> cls:int -> n:int -> now:float -> buf:addr array -> pos:int -> mmaps:int ref -> int
(** Extract up to [n] objects of the class into [buf.(pos) ..], in the
    order they are popped from their spans, pulling fresh spans from the
    pageheap as needed; mmap calls incurred below accumulate into [mmaps]
    and the count gathered is returned.  When a span grow fails with
    {!Wsc_os.Vm.Mmap_failed} (memory pressure or an injected fault), the
    failure is absorbed and whatever was gathered so far counts — possibly
    [0], which callers must treat as "reclaim and retry". *)

val return_objects : t -> cls:int -> addrs:addr list -> now:float -> unit
(** Give objects back to their spans; spans whose last object returns are
    released to the pageheap. *)

val fragmented_bytes : t -> int
(** Free-object bytes sitting in partially-used spans across all classes. *)

val released_span_bytes : t -> int
(** Cumulative bytes of spans that fully drained and went back to the
    pageheap; the reclaim cascade diffs this across stages to attribute
    span returns to pressure. *)

val iter_spans : t -> (Span.t -> unit) -> unit
(** Visit every span currently owned by any class (listed or exhausted);
    used by the heap auditor. *)

val span_count : t -> cls:int -> int
(** Spans currently held (listed + exhausted) for a class. *)

val snapshot : t -> now:float -> unit
(** Record a (span, outstanding) observation for every held span into the
    attached {!Span_stats} collector (no-op without one). *)
