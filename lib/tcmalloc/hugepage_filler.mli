(** The hugepage filler (Sec. 4.4).

    The filler packs sub-hugepage span allocations into 2 MiB hugepages.  It
    prioritizes carving spans out of the hugepages that already have the
    most allocations ("densest first", per Hunter et al. OSDI'21), so that
    sparsely-used hugepages drain and become releasable.

    The lifetime-aware variant adds a second, disjoint set of hugepages:
    spans whose object capacity is below the threshold C are statistically
    short-lived (Fig. 16) and are packed together on dedicated hugepages so
    those hugepages become *entirely* free soon and can be released intact —
    raising hugepage coverage instead of forcing subrelease.

    Page states inside a tracked hugepage: free (allocatable), used (owned
    by a span), or released (subreleased to the OS; unavailable until the
    hugepage empties and is unmapped).

    Each set files its hugepages in buckets by free-page count (0..256)
    and keeps a bitmap of the non-empty buckets, so {!allocate} and
    {!subrelease} jump between occupied buckets: placement cost depends on
    the candidates visited, not on the 257 buckets.  Each hugepage also
    records its lowest free page, where the run search starts.  Neither
    index changes which hugepage or run is chosen. *)

type addr = int

type set_kind =
  | Long_lived  (** Spans with capacity >= C; the only set in baseline mode. *)
  | Short_lived  (** Spans with capacity < C (lifetime-aware mode). *)

type t

val create : unit -> t

val add_hugepage : t -> base:addr -> kind:set_kind -> donated:bool -> t_used:int -> unit
(** Start tracking a hugepage whose first [t_used] pages are already used
    (nonzero only for donated slack tails of large allocations). *)

val allocate : t -> kind:set_kind -> pages:int -> addr option
(** Carve a contiguous run of [pages] (< 256) from the densest hugepage of
    the requested set that can hold it: the occupied buckets are visited
    from [pages] free pages up, each in its table's iteration order, and
    the first hugepage with a long-enough free run gives its lowest such
    run.  [None] when no tracked hugepage has a large-enough free run — the
    pageheap then feeds a fresh hugepage in via {!add_hugepage} and
    retries. *)

type free_outcome =
  | Still_tracked  (** The hugepage retains other used pages. *)
  | Hugepage_empty of addr
      (** The hugepage holds no used pages anymore; the filler stopped
          tracking it and the caller must unmap it or hand it to the
          hugepage cache. *)

val free : t -> addr -> pages:int -> free_outcome
(** Return a page run previously obtained from {!allocate} (or the used tail
    of a donated hugepage).  @raise Invalid_argument if any page is not
    currently used. *)

val subrelease : t -> Wsc_os.Vm.t -> max_pages:int -> int
(** Break the sparsest partially-used hugepages, subreleasing up to
    [max_pages] free pages to the OS.  Returns pages actually released.
    Released pages stop being allocatable and the hugepage loses THP
    backing. *)

(** {2 Introspection} *)

val tracked_hugepages : t -> int
val used_pages : t -> int
val free_pages : t -> int
(** Allocatable (not used, not released) pages across tracked hugepages. *)

val released_pages : t -> int

val used_bytes : t -> int
val free_bytes : t -> int

val iter_hugepages : t -> (base:addr -> used_pages:int -> unit) -> unit
(** For hugepage-coverage accounting. *)
