(** Public umbrella API for the warehouse-scale allocator study.

    Everything lives in seven focused libraries; this module re-exports
    them under stable names and adds the small amount of glue that examples
    and the CLI want.

    {ul
    {- {!Substrate} — PRNG, distributions, statistics, histograms, clock.}
    {- {!Hw} — platform topology, latency/TLB/cost models, productivity.}
    {- {!Os} — simulated virtual memory, vCPU ids, scheduling.}
    {- {!Tcmalloc} — the allocator model and its four optimizations.}
    {- {!Backend} — the allocator-backend dispatcher and rival models.}
    {- {!Workload} — application profiles and the event driver.}
    {- {!Fleet_sim} — machines, fleet builder, GWP profiling, A/B tests.}
    {- {!Trace_stream} — streaming binary traces: record, replay, analyze.}
    {- {!Persist} — warm-state checkpoint/restore with bit-identical resume.}
    {- {!Tune} — deterministic config search (Pareto front) over trace replay.}} *)

module Substrate = Wsc_substrate
module Hw = Wsc_hw
module Os = Wsc_os
module Tcmalloc = Wsc_tcmalloc
module Backend = Wsc_backend.Backend
module Workload = Wsc_workload
module Fleet_sim = Wsc_fleet
module Trace_stream = Wsc_trace
module Persist = Wsc_persist.Persist
module Tune = Wsc_tune

(** Convenience entry points used by the examples and the CLI. *)
module Quick = struct
  module Units = Wsc_substrate.Units

  (** Run one application on a dedicated default-platform machine and
      return the finished job for inspection.  Optional memory limits,
      fault injection, and periodic heap audits pass through to
      {!Wsc_fleet.Machine.create}. *)
  let run_app ?(seed = 1) ?(config = Wsc_tcmalloc.Config.baseline)
      ?(platform = Wsc_hw.Topology.default) ?(duration_ns = 10.0 *. Units.sec)
      ?(epoch_ns = Units.ms) ?soft_limit_bytes ?hard_limit_bytes ?faults ?rseq
      ?audit_interval_ns profile =
    let machine =
      Wsc_fleet.Machine.create ~seed ~config ?soft_limit_bytes ?hard_limit_bytes ?faults
        ?rseq ?audit_interval_ns ~platform ~jobs:[ profile ] ()
    in
    Wsc_fleet.Machine.run machine ~duration_ns ~epoch_ns;
    List.hd (Wsc_fleet.Machine.jobs machine)

  (** Run a default-shaped fleet and return the per-machine summaries
      ({!Wsc_fleet.Machine.summary}) in machine order — the streaming
      record {!Wsc_fleet.Fleet.run} now produces instead of discarding
      results. *)
  let run_fleet ?jobs ?(seed = 7) ?(num_machines = 24)
      ?(duration_ns = 10.0 *. Units.sec) ?(epoch_ns = Units.ms)
      ?(config = Wsc_tcmalloc.Config.baseline) () =
    let fleet = Wsc_fleet.Fleet.create ~seed ~num_machines ~config () in
    (fleet, Wsc_fleet.Fleet.run ?jobs fleet ~duration_ns ~epoch_ns)

  (** A/B one optimization flag for one application against the baseline.
      [jobs] fans the replica arms out over that many domains (the result
      is identical for any job count).  Fleet-level outcomes
      ({!Wsc_fleet.Ab_test.run_fleet}) are CPU-weighted from the measured
      run's machine summaries. *)
  let ab ?jobs ?seed ?duration_ns profile ~experiment =
    Wsc_fleet.Ab_test.run_app ?jobs ?seed ?duration_ns
      ~control:Wsc_tcmalloc.Config.baseline ~experiment profile
end
