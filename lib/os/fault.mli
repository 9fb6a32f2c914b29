(** Deterministic fault injection for memory-pressure experiments.

    Fleet machines fail in correlated, repeatable ways: transient mmap
    refusals under overcommit, memory-pressure spikes when a co-located job
    balloons, and scheduler churn that migrates a process across CPUs.  This
    module turns those into seeded, reproducible streams so that paired-seed
    A/B experiments can compare allocator configs under {e identical} fault
    schedules:

    - {b transient mmap failures} — a per-process Bernoulli stream (with
      optional consecutive-failure bursts) consulted by {!Vm.mmap} through
      the fault hook;
    - {b pressure spikes} — machine-level windows during which co-located
      jobs transiently consume extra bytes, tightening this process's
      effective memory limits.  A pure function of (seed, time), so every
      process and both A/B arms observe the same spike train;
    - {b CPU churn} — periodic bursts after which the driver retires every
      active vCPU, forcing dense-id reuse and cache restranding. *)

type config = {
  seed : int;  (** Root seed of every fault stream. *)
  mmap_failure_rate : float;  (** Per-mmap transient failure probability, [0, 1). *)
  mmap_failure_burst : int;
      (** Consecutive mmaps failed per injected fault (>= 1); models
          multi-call compaction stalls.  A burst longer than the allocator's
          reclaim retry budget turns a transient fault into an OOM. *)
  pressure_period_ns : float;  (** One spike per period; 0 disables spikes. *)
  pressure_duration_ns : float;  (** Length of each spike window. *)
  pressure_bytes : int;
      (** Nominal spike magnitude; each spike is deterministically scaled
          to [0.5x, 1.5x). *)
  cpu_churn_period_ns : float;  (** Interval between churn bursts; 0 disables. *)
}

val no_faults : config
(** All streams disabled (seed 0, every rate/period zero). *)

val describe : config -> string

type t

val create : ?index:int -> clock:Wsc_substrate.Clock.t -> config -> t
(** One per-process instance.  [index] (e.g. the job's slot on a machine)
    perturbs the transient-failure stream so co-located processes fail
    independently, while pressure windows stay machine-wide.
    @raise Invalid_argument on out-of-range rate or burst. *)

val install : t -> vm:Vm.t -> unit
(** Wire the transient-failure and pressure hooks into [vm] (only the
    streams the config enables). *)

val transient_mmap_failure : t -> bool
(** Draw the next transient-failure decision (advances the stream and the
    failure counter).  Normally called via the installed hook. *)

val pressure_bytes_at : t -> now:float -> int
(** Co-located pressure at an arbitrary time (pure). *)

val pressure_bytes : t -> int
(** Pressure at the clock's current time. *)

val churn_due : t -> now:float -> bool
(** Whether a churn burst fired since the last call; consumes it and
    schedules the next.  Consumers must treat each burst as a migration:
    retire every active vCPU {e and} flush the retired caches (or register
    them for stranded-cache reclaim) — a burst that only drops the ids
    silently orphans their cache contents. *)

val injected_failures : t -> int
(** Transient failures injected so far. *)

val config : t -> config

(** {2 Machine-level chaos}

    Campaign-grade failure injection: where the streams above perturb a
    {e running} process (mmap refusals, pressure, churn), chaos decides
    whether a whole simulated machine's run attempt crashes, hangs past
    its deadline, or returns a corrupted result.  The schedule is a pure
    function of (seed, machine index, attempt), so a retried or resumed
    machine replays the identical failure history regardless of domain
    count or execution order — the property {!Wsc_fleet.Campaign}'s
    resume guarantee rests on
    ([chaos_killed_resumed_campaign_matches_fault_free] in
    test/test_campaign.ml). *)

type chaos = {
  chaos_seed : int;  (** Root seed of the schedule. *)
  crash_prob : float;  (** Per-attempt probability of a mid-run crash. *)
  hang_prob : float;
      (** Per-attempt probability of a simulated-clock stall past the
          machine's deadline (detected as a straggler). *)
  corrupt_prob : float;  (** Per-attempt probability of a damaged result. *)
}

val no_chaos : chaos
(** Every mode disabled. *)

val validate_chaos : chaos -> unit
(** @raise Invalid_argument unless each probability is in [0, 1] and the
    modes sum to at most 1 (they are mutually exclusive per attempt). *)

val describe_chaos : chaos -> string

type chaos_event =
  | Chaos_crash of { at_fraction : float }
      (** Raise after [at_fraction] of the attempt's simulated duration. *)
  | Chaos_hang of { at_fraction : float; stall_factor : float }
      (** At [at_fraction] of the run, stall the simulated clock by
          [stall_factor] times the machine's deadline — guaranteed to trip
          the straggler check. *)
  | Chaos_corrupt  (** Complete the run, then damage the result summary. *)

val chaos_event : chaos -> machine:int -> attempt:int -> chaos_event option
(** The (pure, seeded) failure drawn for this machine's [attempt]
    (1-based); [None] means the attempt runs clean. *)

(** {2 Storage chaos}

    Durable-artifact fault injection: bit rot, torn writes, truncations and
    rename failures applied to the bytes {!Wsc_trace.Writer} and
    [Wsc_persist.Persist] put on disk.  Every decision is a pure function of
    (seed, file name, op index) — the file name is the path's
    [Filename.basename], so the directory a run writes into does not move
    the draw; the op index counts IO operations per path — so a corruption
    scenario observed once can be replayed exactly in a test or bench,
    even from a fresh temporary directory.  The schedules are consumed by
    {!Storage}, the IO shim the writers thread their bytes through. *)

type storage = {
  storage_seed : int;  (** Root seed of every storage-fault stream. *)
  flip_rate : float;
      (** Per-byte probability that a written byte lands with one bit
          flipped (media bit rot).  [1e-6] ~ one flip per MiB written. *)
  torn_write_rate : float;
      (** Per-write-op probability the write is torn: a prefix of the
          buffer lands and everything after it (including later writes to
          the same file) is lost, modelling a crash mid-write. *)
  truncate_rate : float;
      (** Per-close probability the file loses a tail of deterministically
          chosen length (lost page-cache writeback). *)
  rename_failure_rate : float;
      (** Per-rename probability the atomic publish rename fails, leaving
          the temporary file behind and the destination untouched. *)
}

val no_storage_faults : storage
(** Every mode disabled. *)

val storage_active : storage -> bool
(** Whether any fault stream is enabled. *)

val validate_storage : storage -> unit
(** @raise Invalid_argument unless every rate is in [0, 1]. *)

type write_damage = {
  torn_at : int option;
      (** [Some k]: only the first [k] bytes of this write land and the
          file is dead to further writes.  Flips at offsets >= [k] are
          moot. *)
  flips : (int * int) list;
      (** [(offset within the write, bit index)] pairs, ascending. *)
}

val no_write_damage : write_damage

val write_damage : storage -> path:string -> op_index:int -> len:int -> write_damage
(** The (pure) damage drawn for the [op_index]-th IO op on [path], a write
    of [len] bytes.  Only [Filename.basename path] enters the draw.  Flip offsets use geometric gap sampling, so cost is
    proportional to the number of flips, not [len]. *)

val truncate_loss : storage -> path:string -> op_index:int -> len:int -> int
(** Bytes to chop off the tail of a [len]-byte file at close (0 = none). *)

val rename_fails : storage -> path:string -> op_index:int -> bool
(** Whether the [op_index]-th IO op on [path], a rename, fails. *)
