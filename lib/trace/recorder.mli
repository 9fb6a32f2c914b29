(** Capture a live {!Wsc_workload.Driver} run as a streaming trace.

    The recorder turns the driver's passive {!Wsc_workload.Driver.probe}
    callbacks into trace events, mapping volatile heap addresses to stable
    allocation ordinals (addresses are reused; ordinals are not, which is
    what makes the trace replayable against a {e different} allocator
    configuration).  Events stream straight into a {!Writer}; nothing is
    materialized.

    This is the only source of traces: trace files, tuner inputs and test
    fixtures are all recorded driver runs, so a trace captures whatever
    actually happened — the startup burst, thread-count dynamics,
    CPU-churn retirements, fault-driven behavior. *)

module Driver = Wsc_workload.Driver
module Profile = Wsc_workload.Profile

type t

val create : Writer.t -> t
(** The recorder writes into [writer]; the caller closes it when the run
    is over. *)

val probe : t -> Driver.probe
(** Pass to {!Driver.create}'s [?probe] to capture that driver's stream. *)

val record_app :
  ?seed:int ->
  ?config:Wsc_tcmalloc.Config.t ->
  ?platform:Wsc_hw.Topology.t ->
  ?epoch_ns:float ->
  duration_ns:float ->
  writer:Writer.t ->
  Profile.t ->
  Driver.t
(** Run one application profile solo — the same placement
    ({!Wsc_workload.Driver.job_sched}) and seed as a one-job
    {!Wsc_fleet.Machine} — with a recorder
    attached, and return the finished driver (its allocator is reachable
    via {!Driver.backend}).  Because the probe only observes, the run is
    step-for-step identical to the same run without a recorder.  The caller
    closes [writer]. *)
