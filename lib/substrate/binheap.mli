(** A binary min-heap keyed by float priority: {!Clock}'s ticker queue.

    The clock holds a handful of periodic tickers (such as decay,
    stranded-cache reclaim, transfer-cache and pageheap release and the
    soft-limit check), several of which share a deadline at every whole
    second.  Tied entries pop in this heap's sift order and simulated
    outputs depend on that order (the refcheck golden test pins it), so a
    queue with another tie order is not a drop-in replacement.  The
    workload driver's pending frees live in {!Calendar} instead. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push t key v] inserts [v] with priority [key]. *)

val peek : 'a t -> (float * 'a) option
(** Minimum-key entry without removing it. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-key entry. *)

val pop_until : 'a t -> float -> (float * 'a) list
(** [pop_until t key] removes every entry with priority [<= key], in
    ascending order. *)
