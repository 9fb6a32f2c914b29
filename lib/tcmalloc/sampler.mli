(** Allocation sampling (Sec. 3, "Sampled").

    Production TCMalloc samples roughly one allocation per 2 MiB of
    allocated bytes, recording a stack trace; the samples drive heap
    profiling and the fleet's object size/lifetime characterization
    (Figs. 7, 8).  The model implements the byte-counter scheme: an
    allocation is sampled when the running byte counter crosses the period,
    and a sampled object's lifetime is measured when it is freed. *)

type addr = int

type t

val create : period_bytes:int -> t

val on_alloc : t -> addr -> size:int -> now:float -> bool
(** Advance the byte counter; [true] when this allocation is sampled (its
    address is then tracked until freed).  Equivalent to {!tick} followed by
    {!track} on a hit; the split form lets hot callers defer the clock
    reading to the rare sampled case. *)

val tick : t -> size:int -> bool
(** Advance the byte counter only; [true] means this allocation crossed a
    sample boundary and the caller must {!track} it. *)

val track : t -> addr -> size:int -> now:float -> unit
(** Record a sampled allocation (after {!tick} returned [true]). *)

val is_tracked : t -> addr -> bool
(** Whether this address is currently sampled — an allocation-free probe for
    the per-free miss path; a [true] result is confirmed by {!on_free}. *)

val on_free : t -> addr -> now:float -> (int * float) option
(** If the freed address was sampled, stop tracking it and return
    [(size, lifetime_ns)]. *)

val live_tracked : t -> int

(** {2 Heap profiling}

    Because one allocation is sampled per [period_bytes] allocated, each
    live sampled object statistically represents [period_bytes] of live
    heap — the estimator production heap profilers are built on. *)

val live_heap_estimate_bytes : t -> int
(** [live_tracked * period_bytes]. *)

val live_profile : t -> (int * int) list
(** [(power_of_two_size_bin, live_sampled_objects)] pairs, ascending —
    the sampled composition of the live heap. *)
