(** Restartable-sequence (rseq) model for the per-CPU fast path (Sec. 2.1,
    4.1).

    The real allocator's per-CPU caches are only correct because of the
    kernel's restartable sequences: a critical section that reads the
    current CPU id and manipulates that CPU's cache is {e aborted} by the
    kernel whenever the thread is preempted or migrated mid-sequence, and
    the thread restarts it from the top on whatever CPU it now occupies.
    Mutation is confined to a single final commit, so an aborted attempt
    leaves no trace.

    This module reproduces that protocol as a four-step critical section

    {v read-vcpu -> pick-class -> prepare -> commit v}

    with a seeded injector that can preempt at {e any} step: a per-step
    Bernoulli draw models involuntary context switches, and one-shot armed
    aborts ({!note_migration}, {!force_preempt}) model scheduler migrations
    (CPU churn) and deterministic test injection.  A preempted attempt
    performs {e no} mutation; the operation restarts, up to a bounded
    restart budget, after which the caller must take its lock-protected
    slow path (the transfer cache).

    The injector decides an operation's fate without running its body.  An
    aborted attempt changes nothing and nothing runs between attempts, so
    every attempt reads the same vCPU id and makes the same decision:
    {!Wsc_tcmalloc.Malloc} asks {!run_op} first and applies the per-CPU
    step once, only if the operation committed. *)

type config = {
  seed : int;  (** Root seed of the preemption stream. *)
  preempt_prob : float;  (** Per-step preemption probability, [0, 1). *)
  max_restarts : int;  (** Restarts allowed before falling back (>= 0). *)
}

val default_preempt_prob : float
(** 0.001 — roughly one interrupted operation per 250 fast-path ops, the
    CLI's default when [--rseq] is given without [--preempt-prob]. *)

val describe : config -> string

(** The four preemption points of one fast-path operation. *)
type step =
  | Read_vcpu  (** Reading the dense vCPU id (stale after a migration). *)
  | Pick_class  (** Indexing the per-(vCPU, class) stack. *)
  | Prepare  (** Reading the stack to pop from or push to (nothing written). *)
  | Commit  (** Preempted just before the single committing store lands. *)

val all_steps : step list
val n_steps : int
val step_name : step -> string

val step_of_index : int -> step
(** Inverse of position in {!all_steps}.  @raise Invalid_argument outside
    [0, n_steps). *)

type t

val create : ?index:int -> config -> t
(** One per-process injector.  [index] (the job's slot on a machine)
    perturbs the preemption stream so co-located processes are interrupted
    independently.  @raise Invalid_argument on out-of-range
    [preempt_prob] or negative [max_restarts]. *)

val config : t -> config

val run_op : t -> int
(** Decide one restartable operation.  Each attempt draws a preemption
    decision at every step, in the order of {!all_steps}, and stops at the
    first step that is preempted; an attempt that survives all four
    commits.  A preempted attempt restarts, at most [max_restarts] times.
    Returns [restarts >= 0] when the operation committed after that many
    restarts, or [-1 - restarts] when the budget ran out and the caller
    must take its slow path.  Allocates nothing. *)

val passed_pick_class : t -> bool
(** Whether some attempt of the last {!run_op} got past {!Pick_class}.
    Such an attempt indexed its vCPU's cache, which populates the cache on
    first touch even when the operation then falls back. *)

val note_migration : t -> unit
(** Arm a one-shot forced preemption at {!Read_vcpu}: the scheduler moved
    this process (CPU churn retired a vCPU), so the next fast-path attempt
    finds its CPU id stale and must abort-and-restart.  Idempotent until
    consumed. *)

val force_preempt : t -> step:step -> unit
(** Arm a one-shot forced preemption at an exact step (deterministic test
    injection, independent of [preempt_prob]). *)

type stats = {
  ops : int;  (** Operations entered. *)
  committed : int;  (** Operations whose final attempt committed. *)
  restarts : int;  (** Total abort-and-restart transitions. *)
  fallbacks : int;  (** Operations that exhausted the restart budget. *)
  forced_aborts : int;  (** Armed (migration / forced) preemptions consumed. *)
}

val stats : t -> stats
