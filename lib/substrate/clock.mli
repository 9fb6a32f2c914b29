(** Simulated time.

    A clock is a monotone nanosecond counter advanced explicitly by the
    driver.  Periodic activities (the per-CPU cache resizer, transfer-cache
    release, pageheap release, telemetry snapshots) register as tickers and
    fire when the clock crosses their next deadline. *)

type t

val create : unit -> t
(** A clock at t = 0 ns. *)

val now : t -> float
(** Current simulated time, nanoseconds. *)

val advance : t -> float -> unit
(** [advance t dt] moves time forward by [dt >= 0] ns and fires any due
    tickers in deadline order. *)

val advance_to : t -> float -> unit
(** Move to an absolute time (no-op if in the past). *)

val every : t -> period:float -> (float -> unit) -> unit
(** [every t ~period f] calls [f now] each time [period] ns elapse, for
    the rest of the clock's life.  The first firing is one period from
    registration time. *)
