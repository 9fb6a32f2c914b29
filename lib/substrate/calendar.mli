(** Hierarchical timing-wheel event queue ("calendar queue") with float
    nanosecond keys bucketed on integer ticks: O(1) amortized push and pop
    against the O(log n) sifts of the binary heap it replaced, which
    test/event_heap_reference.ml keeps as the differential-testing
    reference for this module.

    Keys must be finite and non-negative.  The top wheel spans past any
    representable tick, so far-future sentinels (e.g. 1e18 ns) need no
    overflow path.  Level-0 buckets are {!bucket_width_ns} wide, about one
    1 ms driver epoch.

    Ordering contract: [drain_until] delivers events in nondecreasing key
    order; events with equal keys are delivered in push (FIFO) order.

    The drain callback must not push events into the queue being drained
    (the driver's free events satisfy this); pushes between drains are
    unrestricted. *)

type t

val bucket_width_ns : int
(** Width of a level-0 bucket (2^20 ns).  Delivery order does not depend
    on it; drain cost does. *)

val create : unit -> t
(** Buckets size themselves on demand. *)

val length : t -> int

val push : t -> float -> a:int -> b:int -> c:int -> unit
(** Insert an event with three unboxed int payload slots.
    @raise Invalid_argument if the key is negative or NaN. *)

val drain_until : t -> float -> (key:float -> a:int -> b:int -> c:int -> unit) -> unit
(** Pop every event with [key <= bound] in (key, insertion) order. *)

val drain_payloads : t -> float -> (a:int -> b:int -> c:int -> unit) -> unit
(** {!drain_until} without the key in the callback.  Passing a float to a
    non-inlined closure boxes it, so key-oblivious consumers (the workload
    driver's free events) save two minor words per event here. *)
