(** Spans: contiguous runs of TCMalloc pages carved into same-class objects
    (Sec. 2.1, Fig. 2).

    A small-object span belongs to exactly one size class and records, in
    one byte per object slot, where each of its [capacity] objects is
    (Sec. 2: every object is in exactly one place):

    - {!Free} — in the span, on the central free list;
    - {!Cached} — above the central free list, in a per-CPU or transfer
      cache;
    - {!Held} — held by the application.

    The calls that move an object:
    - {!pop_object} carves a Free slot and hands it to the caches as
      Cached;
    - {!mark_held} (malloc handing a cached object to the application)
      turns Cached into Held;
    - {!mark_cached} (free taking it back into the caches) turns Held
      into Cached;
    - {!push_object} returns a Cached (or Held) object to the span as Free.

    "Outstanding" counts the Held and Cached objects.  A span whose
    outstanding count drops to zero may be returned to the pageheap.  The
    slot state is what catches a double free: of an object free in its
    span and of one still sitting in a cache.

    A large span (one allocation > 256 KiB) bypasses the object machinery:
    it has no size class and no slot states, and is returned whole. *)

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
          are free and are carved in address order once no returned slot
          is left.  A new span starts at 0, so creating one costs O(1)
          besides [slot_state]. *)
  mutable returned : int array;
  mutable n_returned : int;
      (** Stack of the slots pushed back since carving,
          [returned.(0 .. n_returned - 1)], popped most recent first; its
          storage is allocated at the first push. *)
  slot_state : Bytes.t;  (** One {!slot_state} byte per object slot. *)
  mutable list_index : int;  (** Central-free-list bucket, -1 if not listed. *)
  mutable held_slot : int;
      (** Index among the spans its central free list holds, -1 if none. *)
  birth_time : float;  (** Simulated creation time (for lifetime studies). *)
}

type slot_state = Free | Held | Cached

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
(** Extract one object; a small object leaves the span {!Cached}.
    @raise Invalid_argument when exhausted. *)

val pop_objects_into : t -> n:int -> buf:addr array -> pos:int -> int
(** Extract up to [n] objects into [buf.(pos) ..], in {!pop_object}
    order; returns how many. *)

val push_object : t -> addr -> unit
(** Return an object to the span as {!Free}.  @raise Invalid_argument if
    the address does not belong to this span, is misaligned, or the slot
    is already free (double free). *)

val contains : t -> addr -> bool

val slot_state : t -> addr -> slot_state
(** Where the small object at [addr] is.
    @raise Invalid_argument on a large span, or an address outside the
    span or misaligned. *)

val mark_held : t -> addr -> slot_state
(** {!Cached} -> {!Held}, what malloc does to the cached object it hands
    to the application.  The slot changes only if it is {!Cached}; the
    state found is returned either way.
    @raise Invalid_argument on a large span, or an address outside the
    span or misaligned. *)

val mark_cached : t -> addr -> slot_state
(** {!Held} -> {!Cached}, what free does to the object it takes back into
    the caches.  The slot changes only if it is {!Held}; the state found is
    returned either way, so a double free names where the object was.
    @raise Invalid_argument as {!mark_held}. *)

val count_slots : t -> slot_state -> int
(** Small-object slots in the given state, by a walk of all [capacity]
    slots (for the heap audit); 0 for a large span. *)

val fragmented_bytes : t -> int
(** Free object slots x object size — the external fragmentation this span
    contributes while sitting in the central free list. *)

val set_list_index : t -> int -> unit
val set_held_slot : t -> int -> unit
