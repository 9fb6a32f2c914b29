(** Simulated per-process virtual memory with transparent hugepages.

    The pageheap requests hugepage-aligned blocks via {!mmap}; the kernel
    model backs each mapped 2 MiB region with a transparent hugepage.  A
    region loses its hugepage backing when the allocator {!subrelease}s part
    of it (returning non-hugepage-aligned pieces to the OS breaks the THP,
    Sec. 2.1/4.4) and regains it only if unmapped and remapped.

    Addresses are plain integers in a flat 63-bit space; nothing is ever
    actually stored at them — the simulator tracks placement, not contents. *)

type addr = int

type mmap_failure =
  | Transient_fault
      (** Injected by the fault layer: the kernel transiently refused the
          mapping (overcommit pressure, compaction stall).  Retryable. *)
  | Hard_limit_exceeded
      (** Mapping would push resident bytes (plus any co-located pressure)
          past the process's hard memory limit. *)

exception Mmap_failed of mmap_failure

type t

val create : unit -> t

val mmap : t -> hugepages:int -> addr
(** Map a run of [hugepages] contiguous, 2 MiB-aligned hugepages and return
    the base address.  Each hugepage starts intact (THP-backed).
    @raise Invalid_argument when [hugepages <= 0].
    @raise Mmap_failed when the fault hook injects a transient failure or
    the mapping would exceed the hard memory limit. *)

(** {2 Memory limits and fault hooks} *)

val set_soft_limit : t -> int option -> unit
(** Advisory limit: crossing it never fails an mmap, but
    {!soft_limit_excess} becomes positive so the allocator can start
    reclaiming.  @raise Invalid_argument on non-positive limits. *)

val set_hard_limit : t -> int option -> unit
(** Enforced limit: an {!mmap} that would leave resident bytes (plus
    external pressure) above it raises [Mmap_failed Hard_limit_exceeded]. *)

val hard_limit : t -> int option

val soft_limit_excess : t -> int
(** Bytes by which resident + external pressure currently exceed the soft
    limit (0 without a soft limit or under it). *)

val set_fault_hook : t -> (bytes:int -> bool) option -> unit
(** Consulted on every {!mmap} before any state changes; returning [true]
    injects a [Transient_fault] failure.  Used by {!Fault}. *)

val set_pressure_hook : t -> (unit -> int) option -> unit
(** Bytes of machine memory transiently consumed by co-located jobs; they
    count against both limits but are not part of this process's RSS. *)

val mmap_failures : t -> int
(** Total failed {!mmap} calls (both failure kinds). *)

val transient_mmap_failures : t -> int
val limit_mmap_failures : t -> int

val munmap : t -> addr -> hugepages:int -> unit
(** Unmap whole hugepages previously obtained from {!mmap}.  [addr] must be
    hugepage-aligned and every hugepage in the run must currently be mapped.
    @raise Invalid_argument on misaligned or unmapped ranges. *)

val subrelease : t -> addr -> pages:int -> unit
(** Return [pages] TCMalloc pages inside the hugepage containing [addr] to
    the OS without unmapping the hugepage.  Breaks that hugepage's THP
    backing permanently (until remapped).  The pages remain addressable (the
    allocator may re-use them) but are not counted as resident.  The
    subreleased count saturates at the hugepage's page count: subreleasing
    more pages than remain resident releases only what is left.
    @raise Invalid_argument if the hugepage is not mapped or [pages <= 0]. *)

val reclaim : t -> addr -> pages:int -> unit
(** Fault back [pages] previously subreleased pages of the hugepage
    containing [addr] (the allocator reused them).  The hugepage stays
    broken.  Reclaiming more pages than were subreleased (including from a
    never-subreleased hugepage) clamps at zero.
    @raise Invalid_argument if the hugepage is not mapped or [pages <= 0]. *)

val is_mapped : t -> addr -> bool
(** Whether the hugepage containing [addr] is mapped. *)

val is_huge_backed : t -> addr -> bool
(** Whether the hugepage containing [addr] is mapped and still THP-backed. *)

val mapped_bytes : t -> int
(** Total bytes in mapped hugepages (whether intact or broken). *)

val resident_bytes : t -> int
(** Mapped bytes minus subreleased ones: the RSS the kernel would report. *)

val huge_backed_bytes : t -> int
(** Bytes residing in intact (THP-backed) hugepages. *)

val mmap_calls : t -> int
val munmap_calls : t -> int
val subrelease_calls : t -> int
val reclaim_calls : t -> int

val iter_hugepages : t -> (base:addr -> huge:bool -> subreleased_pages:int -> unit) -> unit
(** Visit every mapped hugepage (order unspecified); used by the heap
    auditor to re-derive the aggregate counters. *)
