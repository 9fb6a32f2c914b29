(** The size-class table (Sec. 2.1).

    Small allocations (<= 256 KiB) round up to one of ~85 size classes.  The
    table is generated with TCMalloc-style spacing: 8-byte granularity for
    tiny sizes, then eight classes per power-of-two octave up to 4 KiB, then
    four per octave up to the 256 KiB ceiling.  Each class carries the pages
    per span (chosen to bound tail waste), the resulting objects-per-span
    capacity, and the batch size used when moving objects between cache
    tiers (TCMalloc's [num_objects_to_move]). *)

type info = {
  index : int;
  size : int;  (** Object size in bytes. *)
  pages : int;  (** TCMalloc pages per span of this class. *)
  capacity : int;  (** Objects per span: [pages * page_size / size]. *)
  batch : int;  (** Objects moved per inter-tier transfer. *)
}

val count : int
(** Number of classes (between 80 and 90, per the paper). *)

val info : int -> info
(** @raise Invalid_argument on an out-of-range index. *)

val size : int -> int
(** Object size of a class. *)

val capacity : int -> int
val batch : int -> int
val pages : int -> int

val index_of_size : int -> int
(** [index_of_size n] is the smallest class whose size is [>= n], or [-1]
    when [n] exceeds the largest class (the request then bypasses the cache
    hierarchy and goes to the pageheap).  [n] must be positive.  O(1) via a
    lookup table, and allocation-free. *)

val max_size : int
(** Size of the largest class: 256 KiB. *)

val internal_slack : requested:int -> int
(** Bytes wasted by rounding [requested] up to its class (0 for pageheap
    allocations, which round to whole pages instead). *)

val all : info array
(** The whole table, ascending by size. *)
