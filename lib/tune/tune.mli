(** Deterministic config search over trace replay (the GreenMalloc loop).

    Evaluates candidate {!Wsc_tcmalloc.Config} genomes against one
    preloaded trace ({!Wsc_trace.Replay.run_configs_preloaded}) and
    archives the Pareto front of peak RSS vs allocator CPU time.

    {b Determinism.}  All randomness is drawn by the coordinator while
    proposing a generation, evaluation fans out over the
    {!Wsc_substrate.Parallel} pool whose results come back in input
    order, and state advances strictly in that order — so for a fixed
    (spec, trace) the whole trajectory, front included, is bit-identical
    whatever [jobs] is ([jobs4_equals_jobs1] in test/test_tune.ml).
    Checkpoints cut at generation boundaries: resuming one replays the
    identical remaining trajectory, so a killed and resumed search equals
    an uninterrupted one ([kill_and_resume_equals_uninterrupted]). *)

type strategy =
  | Sweep  (** Pure random search over the active space. *)
  | Hillclimb
      (** Random opening sweep, then repeated evaluation of the
          incumbent's one-step grid neighborhood; random restarts once
          the local neighborhood is exhausted. *)
  | Evolve
      (** Generational GA: tournament selection (k=3) on a
          baseline-normalized product scalarization, uniform crossover,
          per-gene mutation, elitism of one. *)

val strategy_name : strategy -> string
val strategy_of_name : string -> strategy option

type spec = {
  sp_seed : int;
  sp_budget : int;  (** Total replay evaluations allowed. *)
  sp_batch : int;  (** Evaluations proposed per generation (parallel width). *)
  sp_strategy : strategy;
  sp_backend : Wsc_tcmalloc.Config.backend_kind;
}

val default_spec : spec
(** seed 42, budget 120, batch 24, {!Evolve}, tcmalloc. *)

val validate_spec : spec -> unit
(** @raise Invalid_argument on a nonsensical spec (budget/batch < 1,
    negative seed). *)

type state
(** Inter-generation search state; closure-free, so checkpoints survive
    across binaries. *)

val evaluations : state -> int
val generations : state -> int
val finished : state -> bool

type report = {
  rp_strategy : strategy;
  rp_backend : Wsc_tcmalloc.Config.backend_kind;
  rp_seed : int;
  rp_budget : int;
  rp_batch : int;
  rp_trace : string;  (** Trace fingerprint the search ran against. *)
  rp_evals : int;
  rp_generations : int;
  rp_finished : bool;
  rp_baseline : Pareto.entry;  (** The paper-default config's objectives. *)
  rp_front : Pareto.entry list;  (** Non-dominated archive, (rss, ns) order. *)
  rp_best : Pareto.entry;
      (** Lowest-scalar front member that strictly dominates the
          baseline; falls back to the lowest-scalar front member (and
          then the baseline itself) when none does. *)
  rp_dominates : bool;
      (** Does [rp_best] beat the baseline on RSS at equal-or-better
          allocator time?  The acceptance gate. *)
}

val run :
  ?jobs:int ->
  ?on_generation:(generation:int -> state -> unit) ->
  ?resume:state ->
  ?max_generations:int ->
  events:Wsc_workload.Trace.event array ->
  spec ->
  report
(** Run (or resume) a search to budget exhaustion.  [on_generation]
    fires after each generation merges (the checkpoint hook);
    [max_generations] bounds this invocation — the deterministic
    stand-in for a mid-search kill.  Every search evaluates the paper
    default first, so the report always has its reference point.
    @raise Invalid_argument when resuming against a different spec or
    trace. *)

val plateau_sweeps :
  ?jobs:int ->
  backend:Wsc_tcmalloc.Config.backend_kind ->
  Wsc_workload.Trace.event array ->
  (string * (string * Pareto.entry) list) list
(** The Sec. 4 L/C plateau validation: every grid point of [cfl_lists]
    with span prioritization on, then of [lifetime_threshold] with the
    lifetime-aware filler on, all other genes at {!Space.baseline}.  Each
    sweep is (gene name, (rendered value, objectives) in grid order). *)

(** {1 Checkpoints} *)

val save_checkpoint :
  ?storage:Wsc_os.Storage.t -> ?note:string -> state -> path:string -> unit
(** Atomic kind-["tune"] blob via {!Wsc_persist.Persist.save_blob};
    progress (evaluations done) is readable by [snapshot info]. *)

val load_checkpoint : path:string -> state
(** @raise Wsc_persist.Persist.Corrupt on damage or wrong kind. *)

(** {1 Rendering} *)

val to_json :
  ?sweeps:(string * (string * Pareto.entry) list) list -> report -> string
(** BENCH_tune.json body: the search, baseline, best, front and sweep
    lines, each a deterministic function of the report, and nothing that
    depends on the host.  [tune_search_matches_committed] in
    test/test_tune.ml requires {!default_spec}'s search on the pinned
    trace, with {!plateau_sweeps}, to render exactly the committed file
    at [jobs] 1 and 4. *)

val pp_front : Format.formatter -> report -> unit
(** Human-readable front table with deltas vs the paper default. *)
