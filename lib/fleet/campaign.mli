(** Crash-tolerant fleet campaigns: supervised, sharded, streaming.

    A campaign runs [machines] independent simulated machines — each built
    deterministically from (campaign seed, machine index) — under a
    {!Wsc_substrate.Supervisor} retry policy with
    {!Wsc_os.Fault.chaos}-scheduled failure injection, and folds each
    machine's {!Machine.summary} into one constant-size streaming
    {!aggregate}.  Machines are processed in fixed-size shards; after each
    shard the campaign state can be checkpointed (see
    {!Wsc_persist.Persist.save_campaign}) so a killed campaign resumes
    machine-by-machine instead of restarting.

    {b Ordered-merge determinism rule.}  Each machine is an isolated task
    (own clock, RNGs, allocator) whose outcome is a pure function of the
    spec and its index — including its injected failures and retries.
    Summaries are merged into the aggregate strictly in machine-index
    order on the calling domain.  Consequently an N-domain, crash-riddled,
    killed-and-resumed campaign produces aggregates {e bit-identical} to a
    1-domain fault-free run of the same spec (provided no machine is
    quarantined — quarantined machines are excluded from the aggregate and
    reported as lost coverage instead).  Tested by
    [chaos_killed_resumed_campaign_matches_fault_free] in
    test/test_campaign.ml, and through {!Wsc_persist}'s shard files by
    [durable kill and resume].

    Memory stays O(shard): at most one shard of machine summaries is alive
    at a time, and no per-machine result list is ever built. *)

type spec = {
  seed : int;
  machines : int;
  num_binaries : int;  (** Size of the Zipf binary population (>= 5). *)
  jobs_per_machine : int;
  zipf_s : float;
  config : Wsc_tcmalloc.Config.t;
  duration_ns : float;  (** Simulated run length per machine. *)
  epoch_ns : float;
  straggler_factor : float;
      (** Per-machine deadline = factor x duration; a machine whose clock
          passes it (e.g. under an injected hang) is a straggler (> 1). *)
  chaos : Wsc_os.Fault.chaos;
  policy : Wsc_substrate.Supervisor.policy;
  shard_size : int;  (** Machines per shard / checkpoint granularity. *)
}

val default_spec : spec
(** 24 machines, 50 binaries, 2 jobs/machine, Zipf(0.9), baseline config,
    10 s runs at 1 ms epochs, deadline 4x, no chaos,
    {!Wsc_substrate.Supervisor.default_policy}, shard 16. *)

val validate_spec : spec -> unit
(** @raise Invalid_argument on a malformed spec. *)

val spec_digest : spec -> string
(** Digest of every behavior-shaping field; checkpoints carry it so a
    resume against a different spec is rejected instead of merging
    incompatible aggregates. *)

(** {2 Streaming aggregate} *)

type aggregate = {
  mutable a_machines : int;  (** Machines completed (not quarantined). *)
  mutable a_jobs : int;
  mutable a_requests : float;
  mutable a_allocations : int;
  mutable a_frees : int;
  mutable a_live_objects : int;
  mutable a_malloc_ns : float;
  mutable a_cpu_ns : float;
  mutable a_allocated_bytes : float;
  mutable a_avg_rss_bytes : float;  (** Sum of per-job time-averaged RSS. *)
  mutable a_resident_bytes : int;
  mutable a_live_bytes : int;
  mutable a_external_frag_bytes : int;
  mutable a_internal_frag_bytes : int;
  mutable a_hugepage_cov_sum : float;  (** Sum over jobs; mean = /a_jobs. *)
  mutable a_size_count : Wsc_substrate.Histogram.t option;
  mutable a_size_bytes : Wsc_substrate.Histogram.t option;
  a_binaries : (string, float * float * int) Hashtbl.t;
      (** binary -> (malloc_ns, allocated_bytes, jobs); bounded by the
          binary population, not the machine count. *)
}

val render_aggregate : aggregate -> string
(** Deterministic textual form (floats printed with full precision), so
    equal aggregates render to equal strings: the campaign tests compare
    these strings, and CI [diff]s a resumed chaos campaign against an
    uninterrupted reference. *)

(** {2 Outcomes} *)

type quarantine = {
  q_machine : int;
  q_attempts : int;
  q_failure : string;  (** The last failure, described. *)
}

type stats = {
  mutable st_attempts : int;  (** Machine run attempts, incl. retries. *)
  mutable st_crashes : int;
  mutable st_stragglers : int;
  mutable st_corruptions : int;
  mutable st_backoff_ns : float;  (** Simulated backoff charged. *)
  mutable st_sim_ns : float;  (** Simulated machine-time, incl. wasted attempts. *)
}

type checkpoint
(** Campaign state at a shard boundary: spec digest, next machine index,
    the aggregate so far, quarantine list and stats.  Closure-free
    ([Marshal] without flags), so {!Wsc_persist} can CRC and store it. *)

val checkpoint_spec_digest : checkpoint -> string
val checkpoint_next_index : checkpoint -> int
val checkpoint_sim_ns : checkpoint -> float

type result = {
  r_aggregate : aggregate;
  r_quarantined : quarantine list;  (** Ascending machine index. *)
  r_stats : stats;
  r_machines : int;  (** Campaign width (the spec's [machines]). *)
  r_finished : bool;  (** [false] when stopped early via [max_shards]. *)
}

val coverage : result -> float
(** Completed machines / campaign width, in [0, 1]. *)

val render_result : result -> string
(** {!render_aggregate} plus a robustness block (attempts, failure counts,
    backoff, quarantine list, coverage).  Only the aggregate block is part
    of the bit-identity contract: retry accounting legitimately differs
    between a chaos run and its fault-free reference. *)

val run :
  ?jobs:int ->
  ?on_shard:(shard:int -> checkpoint -> unit) ->
  ?resume:checkpoint ->
  ?max_shards:int ->
  spec ->
  result
(** Run the campaign.  [on_shard] fires after each shard's index-ordered
    merge with the 0-based shard ordinal and the live campaign state —
    serialize it immediately (it keeps mutating afterwards).  [resume]
    continues from a checkpoint of the {e same} spec
    (@raise Invalid_argument on a digest mismatch).  [max_shards] stops
    cleanly after that many shards this invocation (the kill-and-resume
    path made deterministic); the result then has [r_finished = false].
    Machines run on up to [jobs] domains; any job count, chaos schedule,
    and kill/resume point yields the identical aggregate. *)
