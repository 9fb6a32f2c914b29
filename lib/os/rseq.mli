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
    performs {e no} mutation; the operation restarts with a freshly read
    vCPU id, up to a bounded restart budget, after which the caller must
    take its lock-protected slow path (the transfer cache).

    The caller supplies the section body as two closures: a pure [prepare]
    that records its decision in a buffer the caller owns, and a [commit]
    that applies it.  {!Wsc_tcmalloc.Per_cpu_cache} stages every per-CPU
    operation this way, in its op buffer. *)

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
  | Prepare  (** Staging the pop/push (reads only; nothing written). *)
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

val run_op :
  t -> read_vcpu:(unit -> int) -> prepare:(int -> unit) -> commit:(unit -> unit) -> int
(** Execute one restartable operation.  Each attempt draws a preemption
    decision at every step: [read_vcpu] runs after {!Read_vcpu},
    [prepare vcpu] after {!Pick_class}, and surviving {!Prepare} and
    {!Commit} runs [commit].  A preempted attempt aborts without mutating
    (neither [read_vcpu] nor [prepare] may mutate observable state;
    [prepare] writes only the caller's buffer, which the next attempt
    overwrites) and restarts with a freshly read vCPU id, at most
    [max_restarts] times.  Returns [restarts >= 0] when the operation
    committed after that many restarts, or [-1 - restarts] when the budget
    ran out and the caller must take its slow path.  The closures are
    expected to be preallocated, so an operation allocates nothing. *)

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
