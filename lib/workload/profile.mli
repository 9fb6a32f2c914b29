(** Application allocation profiles.

    A profile is everything the workload driver needs to emit a realistic
    allocation stream for one application: the object-size distribution
    (Fig. 7), the size-conditioned lifetime distributions (Fig. 8), request
    and allocation rates, the cross-thread free fraction that drives
    transfer-cache traffic, thread-count dynamics (Fig. 9a) and the
    productivity-model parameters ("Before" columns of Tables 1/2). *)

type t = {
  name : string;
  size_dist : Wsc_substrate.Dist.t;
      (** Object sizes in bytes (sampled values are rounded to ints >= 1). *)
  lifetime_table : (int * Wsc_substrate.Dist.t) list;
      (** [(size_upper_bound, lifetime_dist_ns)] rows, ascending; the last
          row catches everything above the previous bound. *)
  allocs_per_request : float;
  requests_per_thread_per_sec : float;
  cross_thread_free_fraction : float;
      (** Probability an object is freed by a different thread than the one
          that allocated it. *)
  size_drift_amplitude : float;
      (** Slow oscillation of the size mix (fraction, 0..1): real services
          shift their allocation mix across size classes over time (request
          mix changes, compactions, batch phases), which strands freed
          objects on central-free-list spans — the paper's dominant
          middle-tier fragmentation.  0 disables drift. *)
  size_drift_period_ns : float;
  startup_burst_allocs : int;
      (** Allocations issued at t=0 with effectively-infinite lifetime
          (SPEC-style allocate-at-startup behaviour). *)
  threads : Threads.t;
  productivity : Wsc_hw.Productivity.params;
}

val lifetime_dist : t -> size:int -> Wsc_substrate.Dist.t
(** The lifetime distribution governing an object of [size] bytes. *)

val sample_size : ?now:float -> t -> Wsc_substrate.Rng.t -> int
(** One object size (>= 1 byte, integer); [now] applies the size drift. *)

val size_drift_factor : t -> now:float -> float
(** The size-drift multiplier at [now] (1.0 when drift is disabled).  The
    factor only depends on the clock, so batch issuers compute it once per
    tick and draw with {!sample_size_drifted}. *)

val sample_size_drifted : t -> Wsc_substrate.Rng.t -> drift:float -> int
(** [sample_size] with a precomputed {!size_drift_factor}.  [sample_size]
    is this call with the factor at [now], so both draw the same size from
    the same RNG state. *)

val sample_lifetime : t -> Wsc_substrate.Rng.t -> size:int -> float
(** One lifetime in ns for an object of the given size. *)

val fleet_size_dist : Wsc_substrate.Dist.t
(** The fleet-aggregate object-size distribution, calibrated to Fig. 7:
    ~98% of objects under 1 KiB carrying ~28% of bytes, >8 KiB carrying
    ~50%, >256 KiB carrying ~22%. *)

val fleet_lifetime_table : (int * Wsc_substrate.Dist.t) list
(** Fleet-aggregate size-conditioned lifetimes, calibrated to Fig. 8: 46%
    of sub-KiB objects live under 1 ms; objects over 1 GiB mostly live for
    days. *)

val scale_lifetimes : float -> (int * Wsc_substrate.Dist.t) list -> (int * Wsc_substrate.Dist.t) list
(** Multiply every lifetime in a table by a constant (used to compress real
    hours into simulable seconds while preserving relative diversity). *)
