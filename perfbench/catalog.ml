(* Every metric the benchmark reports, described once: unit, direction,
   kind (deterministic = an output of the modelled design, identical for
   a seed; host = measured on the benchmark process; wall-clock = host
   time), the layer it belongs to, and — for per-layer metrics — which
   end-to-end metric on which workload it is expected to move.  Later
   changes cite these names instead of prose.  [--describe] prints this
   table as JSON; BENCHMARK.json lists the same names. *)

type kind = Deterministic | Host | Wall_clock
type better = Higher | Lower

type metric = {
  name : string;
  unit : string;
  better : better;
  kind : kind;
  layer : string;
  moves : (string * string list) list;
      (** (end-to-end metric, workloads it should move on); empty for
          end-to-end metrics themselves. *)
  bound : float option;  (** End-to-end only: allowed worsening (share). *)
  doc : string;
}

let workloads = [ "simulate"; "trace"; "campaign" ]
let kinds = [ "tcmalloc"; "rpmalloc"; "jemalloc" ]
let tiers = [ "per_cpu_cache"; "transfer_cache"; "central_free_list"; "pageheap"; "mmap" ]

let e2e name unit better kind bound doc =
  { name; unit; better; kind; layer = "end_to_end"; moves = []; bound = Some bound; doc }

let end_to_end =
  [
    e2e "setup_s" "s" Lower Wall_clock 0.25
      "Median of repeated set-ups before the first timed operation (simulate: build and \
       warm the machine; trace: record the trace; campaign: build the spec, population and \
       domain pool).";
    e2e "events_per_s" "events/s" Higher Wall_clock 0.25
      "Simulated malloc + free calls completed per host second of the timed phase, median \
       over the run's rounds (campaign: completed machines only).";
    e2e "host_rss_peak_mb" "MiB" Lower Host 0.25
      "Peak resident set of the benchmark process (VmHWM), set-up included, read when the \
       timed phase ends.";
    e2e "sim_rss_mb" "MiB" Lower Deterministic 0.25
      "Simulated RSS of the modelled allocators (simulate: peak up to the end of the \
       window; trace: sum of the arms' peaks; campaign: mean per-job average RSS).";
    e2e "sim_alloc_ns_per_op" "ns" Lower Deterministic 0.15
      "Modelled allocator CPU per malloc/free (Telemetry, Replay.result, aggregate).";
    e2e "success_rate" "ratio" Higher Deterministic 0.01
      "1 - error_rate: completed operations over attempted ones (simulate: allocator \
       calls; trace: replayed events; campaign: machines, quarantined ones failed).  All \
       of a run's operations count as failed when an output check fails.";
  ]

let pl ?(kind = Wall_clock) name unit better layer moves doc =
  { name; unit; better; kind; layer; moves; bound = None; doc }

let eps = "events_per_s"
let rss = "host_rss_peak_mb"
let setup = "setup_s"

let driver =
  [
    pl "workload.driver.step_us_p50" "us" Lower "Wsc_workload.Driver"
      [ (eps, [ "simulate"; "campaign" ]) ]
      "Median host time of one in-place Driver.step (one job, one epoch).";
    pl "workload.driver.step_us_tail" "us" Lower "Wsc_workload.Driver"
      [ (eps, [ "simulate"; "campaign" ]) ]
      "Driver.step time at workload.driver.step_tail_pct.";
    pl "workload.driver.step_tail_pct" "%" Higher "Wsc_workload.Driver" []
      "The highest percentile with at least ten steps beyond it.";
    pl "workload.driver.steps" "count" Higher "Wsc_workload.Driver" []
      "Driver.step samples behind the step percentiles (as many as the traced rounds \
       that fit in the run).";
    pl "workload.driver.self_ns_per_event" "ns" Lower "Wsc_workload.Driver"
      [ (eps, [ "simulate"; "campaign" ]) ]
      "In-place Driver.step time per event minus the re-driven Profile, Calendar and \
       Backend calls of the same window.";
  ]

let profile =
  [
    pl "workload.profile.ns_per_alloc" "ns" Lower "Wsc_workload.Profile"
      [ (eps, [ "simulate"; "campaign" ]) ]
      "Profile.size_drift_factor + sample_size_drifted + sample_lifetime per allocation.";
  ]

let calendar =
  [
    pl "substrate.calendar.ns_per_op" "ns" Lower "Wsc_substrate.Calendar"
      [ (eps, [ "simulate" ]); (rss, [ "simulate" ]) ]
      "Calendar.push and drained entry, host ns per operation.";
    pl ~kind:Host "substrate.calendar.minor_words_per_op" "words" Lower
      "Wsc_substrate.Calendar"
      [ (eps, [ "simulate" ]); (rss, [ "simulate" ]) ]
      "Minor-heap words allocated per push or drained entry, measured in place.";
    pl ~kind:Deterministic "substrate.calendar.peak_len" "count" Lower
      "Wsc_substrate.Calendar"
      [ (rss, [ "simulate" ]) ]
      "Largest pending-free queue seen (the driver's churning live set).";
  ]

let tier_moves = function
  | "per_cpu_cache" | "transfer_cache" -> [ (eps, [ "simulate" ]) ]
  | _ -> [ (eps, [ "trace"; "campaign" ]) ]

let kind_moves = function
  | "tcmalloc" -> [ (eps, [ "simulate"; "trace"; "campaign" ]) ]
  | _ -> [ (eps, [ "trace" ]) ]

let backend =
  List.concat_map
    (fun k ->
      let layer = "Wsc_backend.Backend/" ^ k in
      [
        pl (Printf.sprintf "backend.%s.malloc_ns" k) "ns" Lower layer (kind_moves k)
          "Host ns per Backend.malloc on the re-driven stream, spans over runs of calls.";
        pl (Printf.sprintf "backend.%s.free_ns" k) "ns" Lower layer (kind_moves k)
          "Host ns per Backend.free, spans over runs of calls.";
        pl ~kind:Host (Printf.sprintf "backend.%s.minor_words_per_op" k) "words" Lower layer
          (kind_moves k) "Minor-heap words per malloc or free, measured in place.";
        pl (Printf.sprintf "backend.%s.observe_ns" k) "ns" Lower layer (kind_moves k)
          "Host ns per per-epoch heap-statistics read.";
      ]
      @ List.concat_map
          (fun tier ->
            [
              pl ~kind:Deterministic (Printf.sprintf "%s.%s.hits" k tier) "count"
                (if tier = "per_cpu_cache" then Higher else Lower)
                layer (tier_moves tier)
                "Allocations whose Telemetry.hits counter moved in this tier.";
              pl (Printf.sprintf "%s.%s.host_ns" k tier) "ns" Lower layer (tier_moves tier)
                "Mean host ns, from a span per call, of the calls attributed to this tier \
                 (mallocs by Telemetry.hits, frees by Telemetry.tier_ns).";
            ])
          tiers)
    kinds
  @ [
      pl ~kind:Deterministic "tcmalloc.per_cpu_cache.hit_ratio" "ratio" Higher
        "Wsc_backend.Backend/tcmalloc"
        [ (eps, [ "simulate" ]) ]
        "Share of tcmalloc allocations served by the per-CPU cache.";
      pl "backend.reconstruction_error" "ratio" Lower "Wsc_backend.Backend"
        [ (eps, [ "simulate"; "trace"; "campaign" ]) ]
        "(sum over tiers of calls x per-call mean ns, plus retires, heap reads and \
         background ticks) / untraced Replay.run_preloaded time of the same stream - 1. \
         Negative: replay bookkeeping the backend calls do not explain.";
    ]

let trace_layer =
  [
    pl "trace.writer.ns_per_event" "ns" Lower "Wsc_trace.Writer"
      [ (eps, [ "trace" ]); (setup, [ "trace" ]) ]
      "Host ns per Writer.add (close included).";
    pl ~kind:Deterministic "trace.writer.bytes_per_event" "B" Lower "Wsc_trace.Writer"
      [ (eps, [ "trace" ]) ]
      "Encoded bytes per event.";
    pl "trace.reader.ns_per_event" "ns" Lower "Wsc_trace.Reader"
      [ (eps, [ "trace" ]) ]
      "Host ns between Reader.iter callbacks, per event (decode).";
    pl "trace.replay.self_ns_per_event" "ns" Lower "Wsc_trace.Replay"
      [ (eps, [ "trace" ]) ]
      "Untraced Replay.run_file per arm minus its decode and backend calls, per event.";
  ]

let persist =
  [
    pl "persist.save_machine_s" "s" Lower "Wsc_persist.Persist"
      [ (eps, [ "simulate" ]) ]
      "Persist.save_machine of the warm machine (median).";
    pl "persist.load_machine_s" "s" Lower "Wsc_persist.Persist"
      [ (eps, [ "simulate" ]); (rss, [ "simulate" ]) ]
      "Persist.load_machine (median).";
    pl ~kind:Deterministic "persist.snapshot_mb" "MiB" Lower "Wsc_persist.Persist"
      [ (eps, [ "simulate" ]); (rss, [ "simulate" ]) ]
      "Size of the mid-window machine snapshot.";
    pl "persist.save_campaign_ms" "ms" Lower "Wsc_persist.Persist"
      [ (eps, [ "campaign" ]) ]
      "Persist.save_campaign of one shard checkpoint (median).";
    pl "persist.load_campaign_ms" "ms" Lower "Wsc_persist.Persist"
      [ (eps, [ "campaign" ]) ]
      "Persist.load_campaign of the resume shard (median).";
  ]

let fleet =
  [
    pl "fleet.campaign.shard_s_p50" "s" Lower "Wsc_fleet.Campaign"
      [ (eps, [ "campaign" ]) ]
      "Median shard time (machines run and merged), from Campaign.run ~on_shard.";
    pl "fleet.campaign.shard_s_max" "s" Lower "Wsc_fleet.Campaign"
      [ (eps, [ "campaign" ]) ]
      "Slowest shard.";
    pl ~kind:Deterministic "substrate.supervisor.useful_attempt_ratio" "ratio" Higher
      "Wsc_substrate.Supervisor"
      [ (eps, [ "campaign" ]) ]
      "Completed machines over machine attempts.";
    pl ~kind:Deterministic "substrate.supervisor.wasted_sim_share" "ratio" Lower
      "Wsc_substrate.Supervisor"
      [ (eps, [ "campaign" ]) ]
      "Simulated machine time spent on failed attempts and backoff, over all of it.";
  ]

let parallel =
  [
    pl "substrate.parallel.busy_share" "ratio" Higher "Wsc_substrate.Parallel"
      [ (eps, [ "trace"; "campaign" ]) ]
      "jobs=1 time over (2 x jobs=2 time): how busy both domains are.";
    pl "substrate.parallel.speedup" "x" Higher "Wsc_substrate.Parallel"
      [ (eps, [ "trace"; "campaign" ]) ]
      "jobs=1 time over jobs=2 time for the workload's parallel step.";
  ]

let runtime =
  [
    pl ~kind:Host "ocaml.gc.minor_words_per_event" "words" Lower "OCaml runtime"
      [ (eps, workloads); (rss, workloads) ]
      "Minor-heap words per event over the traced timed phase.";
    pl ~kind:Host "ocaml.gc.promoted_words_per_event" "words" Lower "OCaml runtime"
      [ (eps, workloads); (rss, workloads) ]
      "Words promoted to the major heap per event.";
    pl ~kind:Host "ocaml.gc.major_collections" "count" Lower "OCaml runtime"
      [ (eps, workloads); (rss, workloads) ]
      "Major collections during the traced timed phase.";
  ]

let whole =
  [
    pl "trace_overhead" "ratio" Lower "benchmark"
      []
      "Untraced events_per_s over traced events_per_s, minus 1, in the same process.";
    pl "unattributed_share" "ratio" Lower "benchmark"
      []
      "Share of the untraced timed phase that the layer totals leave unexplained \
       (negative when traced layers sum past it).";
  ]

let per_layer =
  driver @ profile @ calendar @ backend @ trace_layer @ persist @ fleet @ parallel @ runtime
  @ whole

let kind_name = function
  | Deterministic -> "deterministic"
  | Host -> "host"
  | Wall_clock -> "wall-clock"

let better_name = function Higher -> "higher" | Lower -> "lower"
