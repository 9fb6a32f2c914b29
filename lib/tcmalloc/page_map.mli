(** The pagemap: object address -> owning span.

    [free(ptr)] must recover the span (and hence size class) of an arbitrary
    address.  As in real TCMalloc, the model keeps a two-level radix tree
    over TCMalloc page numbers, registering every page of a span when the
    pageheap carves it and unregistering on return. *)

type t

val leaf_pages : int
(** Pages per radix-tree leaf (a constant, 2^9).  A leaf's storage is
    created at the first span registered on its pages. *)

val create : unit -> t

val register : t -> Span.t -> unit
(** Map all pages of the span.  @raise Invalid_argument if any page is
    already owned (overlapping spans indicate allocator corruption); the
    map is then left unchanged. *)

val unregister : t -> Span.t -> unit
(** Remove the span's pages.  @raise Invalid_argument if a page was not
    registered to this span; the map is then left unchanged. *)

val lookup : t -> int -> Span.t option
(** Span owning the page that contains the given address. *)

val span_count : t -> int
(** Number of distinct registered spans. *)

val iter_spans : t -> (Span.t -> unit) -> unit
(** Visit each registered span exactly once (order unspecified); used by
    the heap auditor to walk the whole heap. *)
