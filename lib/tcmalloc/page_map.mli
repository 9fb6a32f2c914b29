(** The pagemap: object address -> owning span.

    [free(ptr)] must recover the span (and hence size class) of an arbitrary
    address.  Real TCMalloc uses a radix tree over page numbers; the model
    uses a hash table keyed by TCMalloc page index, registering every page
    of a span when the pageheap carves it and unregistering on return. *)

type t

val create : unit -> t

val register : t -> Span.t -> unit
(** Map all pages of the span.  @raise Invalid_argument if any page is
    already owned (overlapping spans indicate allocator corruption). *)

val unregister : t -> Span.t -> unit
(** Remove the span's pages.  @raise Invalid_argument if a page was not
    registered to this span. *)

val lookup : t -> int -> Span.t option
(** Span owning the page that contains the given address. *)

val span_count : t -> int
(** Number of distinct registered spans. *)

val iter_spans : t -> (Span.t -> unit) -> unit
(** Visit each registered span exactly once (order unspecified); used by
    the heap auditor to walk the whole heap. *)
