(** Fleet A/B experiments (Sec. 2.2, "Fleet experiment").

    The paper evaluates each allocator design by giving 1% of machines the
    experimental build and comparing against a 1% control group.  The model
    runs the *same* workload seeds under two allocator configs and compares
    job-by-job, which removes sampling noise entirely (the simulated analog
    of a perfectly balanced experiment/control split).

    Throughput and CPI deltas come from the productivity model: the
    experiment arm's measured remote-reuse fraction and hugepage coverage
    are mapped to LLC MPKI and dTLB-walk deltas relative to the control
    arm, and the change in allocator CPU per request is charged on top.
    Memory deltas compare time-averaged simulated RSS. *)

type outcome = {
  app : string;
  throughput_change_pct : float;
  memory_change_pct : float;  (** Negative = the experiment saves RAM. *)
  cpi_change_pct : float;
  mpki_before : float;
  mpki_after : float;
  walk_before_pct : float;  (** dTLB load-walk cycle %, control arm. *)
  walk_after_pct : float;
  coverage_before : float;
  coverage_after : float;
  remote_before : float;  (** Remote object-reuse fraction, control arm. *)
  remote_after : float;
  frag_before : float;  (** Time-averaged fragmentation ratio, control. *)
  frag_after : float;
}

val compare_jobs : control:Machine.job -> experiment:Machine.job -> outcome
(** Both jobs must run the same profile. *)

val run_app :
  ?jobs:int ->
  ?seed:int ->
  ?replicas:int ->
  ?warmup_ns:float ->
  ?duration_ns:float ->
  ?epoch_ns:float ->
  ?platform:Wsc_hw.Topology.t ->
  control:Wsc_tcmalloc.Config.t ->
  experiment:Wsc_tcmalloc.Config.t ->
  Wsc_workload.Profile.t ->
  outcome
(** Dedicated-server A/B for one application (the paper's benchmark
    methodology).  Runs [replicas] (default 3) seed-varied pairs and
    averages, standing in for the fleet's noise suppression.  The
    [2 * replicas] arm machines run on up to [jobs] domains; pairing is by
    task index, so the outcome is bit-identical for any job count ([A/B
    4-domain determinism] in test/test_parallel.ml). *)

type fleet_outcome = {
  fleet : outcome;  (** CPU-weighted aggregate, app name ["fleet"]. *)
  per_app : outcome list;  (** Aggregated per distinct binary, by name. *)
}

val run_fleet :
  ?jobs:int ->
  ?seed:int ->
  ?num_machines:int ->
  ?warmup_ns:float ->
  ?duration_ns:float ->
  ?epoch_ns:float ->
  control:Wsc_tcmalloc.Config.t ->
  experiment:Wsc_tcmalloc.Config.t ->
  unit ->
  fleet_outcome
