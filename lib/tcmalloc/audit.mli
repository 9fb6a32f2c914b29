(** Heap auditor: a whole-heap invariant checker for the simulated
    allocator.

    [run] walks every registered span and every mapped hugepage and checks
    the structural invariants that memory-pressure machinery (reclaim
    cascade, fault injection, hard limits) is most likely to corrupt:

    - {b byte-conservation} — every carved object byte is live, cached in
      the per-CPU/transfer tiers, or free in its span;
    - {b cfl-accounting} — the central free list's fragmentation counter
      and span census match a direct heap walk;
    - {b page-map-coverage} — every span page resolves back to its span,
      and the span count matches the pageheap's placement table;
    - {b span-disjointness} — no two spans overlap in the address space;
    - {b vm-backing} — every span page lies on a mapped hugepage;
    - {b vm-accounting} — the VM's O(1) resident/huge-backed aggregates
      agree with a full hugepage walk;
    - {b hard-limit} — resident bytes never exceed the configured hard
      limit;
    - {b filler-accounting} — filler used + free + released pages cover
      its tracked hugepages exactly;
    - {b front-end-accounting} — each per-CPU cache's used_bytes counter
      equals a direct walk of its class stacks;
    - {b torn-operation} — every small object is in exactly one place: no
      address is cached twice across the per-CPU and transfer tiers
      (duplicated object); every cached address is a {!Span.Cached} slot
      of a matching-class small span (a lost commit leaves it free in the
      span); the spans' cached slots number exactly the cached addresses;
      and each small span's held plus cached slots equal its outstanding
      count;
    - {b stranded-ownership} — every populated cache of a retired vCPU id
      is on the stranded-reclaim work list.

    Violations come back as a structured report (never asserts), so a
    damaged heap can be inspected rather than aborting the simulation. *)

type violation = { check : string;  (** Invariant family, e.g. ["byte-conservation"]. *)
                   detail : string  (** Human-readable specifics with addresses/sizes. *) }

type report = {
  time : float;  (** Simulated time of the audit. *)
  spans_walked : int;
  hugepages_walked : int;
  stranded_bytes : int;
      (** Bytes cached by retired vCPU ids awaiting stranded reclaim —
          informational, not a violation when properly registered. *)
  violations : violation list;  (** Empty iff the heap is consistent. *)
}

val run : Malloc.t -> report
(** Full heap walk — O(spans x pages + hugepages); call at audit points,
    not per allocation. *)

val is_clean : report -> bool

val to_string : report -> string
(** One line when clean; a header plus one indented line per violation
    otherwise. *)
