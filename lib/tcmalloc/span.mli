(** Spans: contiguous runs of TCMalloc pages carved into same-class objects
    (Sec. 2.1, Fig. 2).

    A small-object span belongs to exactly one size class and tracks which
    of its [capacity] object slots are outstanding.  "Outstanding" counts
    objects held anywhere above the central free list — by the application
    *or* cached in the per-CPU/transfer tiers; only objects returned to the
    central free list are free within the span.  A span whose outstanding
    count drops to zero may be returned to the pageheap.

    A large span (one allocation > 256 KiB) bypasses the object machinery:
    it has no size class and is returned whole. *)

type addr = int

type t = private {
  id : int;
  base : addr;
  pages : int;
  size_class : int;  (** -1 for large spans. *)
  obj_size : int;  (** Class object size; for large spans, the span bytes. *)
  capacity : int;  (** Objects per span; 1 for large spans. *)
  mutable outstanding : int;  (** Objects currently extracted from the span. *)
  mutable next_fresh : int;
      (** Slots [next_fresh .. capacity - 1] have never been issued; they
          are free and are carved in address order once [returned_slots]
          is empty.  A new span starts at 0, so creating one costs O(1)
          besides [slot_taken]. *)
  returned_slots : Wsc_substrate.Int_stack.t;
      (** Slots pushed back since carving, popped most recent first. *)
  slot_taken : Bytes.t;  (** Per-slot occupancy, for double-free detection. *)
  mutable list_index : int;  (** Central-free-list bucket, -1 if not listed. *)
  birth_time : float;  (** Simulated creation time (for lifetime studies). *)
}

val create_small : id:int -> base:addr -> size_class:int -> birth_time:float -> t
(** A fresh, fully-free span of the given class (geometry from
    {!Size_class}). *)

val create_large : id:int -> base:addr -> pages:int -> birth_time:float -> t

val span_bytes : t -> int
val is_large : t -> bool

val free_objects : t -> int
(** [capacity - outstanding]. *)

val is_exhausted : t -> bool
(** No free object slots remain. *)

val is_idle : t -> bool
(** No outstanding objects; the span can return to the pageheap. *)

val pop_object : t -> addr
(** Extract one object.  @raise Invalid_argument when exhausted. *)

val pop_objects : t -> n:int -> addr list
(** Extract up to [n] objects. *)

val pop_objects_into : t -> n:int -> buf:addr array -> pos:int -> int
(** [pop_objects_into t ~n ~buf ~pos] is {!pop_objects} without the list:
    up to [n] objects land in [buf.(pos) ..] in pop order; returns how
    many.  The cache-miss batch path uses this with a preallocated
    scratch buffer. *)

val push_object : t -> addr -> unit
(** Return an object to the span.  @raise Invalid_argument if the address
    does not belong to this span, is misaligned, or the slot is already
    free (double free). *)

val contains : t -> addr -> bool

val object_is_free : t -> addr -> bool
(** Whether the object slot holding [addr] is currently free within the
    span (i.e. pushing it again would be a double free).  For large spans,
    whether the whole span is idle.
    @raise Invalid_argument if the address is outside the span. *)

val fragmented_bytes : t -> int
(** Free object slots x object size — the external fragmentation this span
    contributes while sitting in the central free list. *)

val set_list_index : t -> int -> unit
