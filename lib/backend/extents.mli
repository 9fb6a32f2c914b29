(** The free page extents of one jemalloc arena ({!Jemalloc_model}).

    Extents are kept in address order in flat arrays: a first fit scans
    one int array, and a free finds its place by binary search and
    coalesces with its two neighbours only.  The list version this
    replaced is kept as test/extent_reference.ml, and a qcheck
    differential in test/test_properties.ml holds the two to the same
    results after every operation. *)

type chunk = { c_base : int; c_hugepages : int; c_pages : int }
(** A mapped run of hugepages, the unit the arena maps and unmaps.
    Extents coalesce only within one chunk (compared physically). *)

type t

val create : page_size:int -> t

val add_chunk : t -> chunk -> unit
(** A freshly mapped chunk: its whole page run becomes one free extent,
    placed by address and not coalesced.  The caller allocates from it
    next, so no free extent covers a whole chunk between calls. *)

val alloc : t -> pages:int -> (int * chunk) option
(** First fit: the lowest-address extent with at least [pages] pages
    gives up its first [pages] pages.  Returns their base and chunk, or
    [None] when no extent is large enough. *)

val free : t -> base:int -> pages:int -> chunk -> bool
(** Return a run to the free extents, coalescing it with the
    address-adjacent free extents of the same chunk.  [true] when the
    chunk has coalesced back whole: its extent is then removed and the
    caller unmaps the chunk. *)

val iter : t -> (base:int -> pages:int -> chunk -> unit) -> unit
(** Every free extent, lowest address first (the auditor's walk). *)
