(* wscalloc — command-line front-end to the warehouse-scale allocator study.

     wscalloc list-apps
     wscalloc simulate --app monarch --duration 30 [--optimized]
     wscalloc ab --app monarch --experiment lifetime-filler
     wscalloc fleet --machines 10 --duration 20 *)

open Core
open Cmdliner
module Units = Substrate.Units
module Config = Tcmalloc.Config
module Malloc = Tcmalloc.Malloc
module Telemetry = Tcmalloc.Telemetry
module Arena = Fleet_sim.Arena
module Apps = Workload.Apps
module Profile = Workload.Profile
module Driver = Workload.Driver
module Machine = Fleet_sim.Machine
module Gwp = Fleet_sim.Gwp
module Ab = Fleet_sim.Ab_test
module Topology = Hw.Topology

let experiments =
  [
    ("dynamic-cpu-caches", Config.with_dynamic_per_cpu true Config.baseline);
    ("nuca-transfer-cache", Config.with_nuca_transfer_cache true Config.baseline);
    ("span-prioritization", Config.with_span_prioritization true Config.baseline);
    ("lifetime-filler", Config.with_lifetime_aware_filler true Config.baseline);
    ("all", Config.all_optimizations);
    (* Cross-allocator arms: the experiment swaps the whole backend, so
       `wscalloc ab -e rpmalloc` is a tcmalloc-vs-rpmalloc A/B and
       `trace replay --configs baseline,rpmalloc,jemalloc` replays one
       stream under all three allocators. *)
    ("rpmalloc", Config.rpmalloc);
    ("jemalloc", Config.jemalloc);
  ]

let backend_arg =
  let parse name =
    match Config.backend_of_name name with
    | Some k -> Ok k
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown backend %S (known: %s)" name
             (String.concat ", " (List.map Config.backend_name Config.all_backends))))
  in
  let print fmt k = Format.pp_print_string fmt (Config.backend_name k) in
  Arg.conv (parse, print)

let backend_term =
  Arg.(
    value
    & opt (some backend_arg) None
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Allocator backend to run on: $(b,tcmalloc) (default), $(b,rpmalloc), or \
           $(b,jemalloc).")

let app_arg =
  let parse name =
    match Apps.by_name name with
    | p -> Ok p
    | exception Not_found ->
      Error
        (`Msg
          (Printf.sprintf "unknown application %S; try `wscalloc list-apps'" name))
  in
  let print fmt p = Format.pp_print_string fmt p.Profile.name in
  Arg.conv (parse, print)

let app_term =
  Arg.(
    required
    & opt (some app_arg) None
    & info [ "app"; "a" ] ~docv:"APP" ~doc:"Application profile to run.")

let duration_term =
  Arg.(
    value & opt float 30.0
    & info [ "duration"; "d" ] ~docv:"SECONDS" ~doc:"Simulated duration in seconds.")

let seed_term =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Root random seed.")

let jobs_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Number of domains for parallel execution (default: $(b,WSC_DOMAINS) if set, \
           else the machine's core count).  $(b,--jobs 1) is the sequential bit-exact \
           reference mode; any job count produces identical results.")

let apply_jobs = function
  | None -> ()
  | Some n when n >= 1 -> Substrate.Parallel.set_default_jobs n
  | Some _ ->
    Printf.eprintf "wscalloc: --jobs must be >= 1\n";
    exit 124

(* list-apps *)

let list_apps () =
  List.iter
    (fun p ->
      Printf.printf "%-22s %5.1f allocs/request, %.0f requests/s/thread\n"
        p.Profile.name p.Profile.allocs_per_request p.Profile.requests_per_thread_per_sec)
    Apps.all

let list_apps_cmd =
  Cmd.v (Cmd.info "list-apps" ~doc:"List available application profiles.")
    Term.(const list_apps $ const ())

(* simulate *)

(* One corrupt-artifact handler for every subcommand: damage in any
   on-disk artifact — a trace block or a snapshot section — prints one
   uniform diagnostic and exits 65 (EX_DATAERR).  Salvage-mode commands
   that recover with loss instead warn on stderr and exit 0. *)
let corrupt_guard f =
  try f () with
  | Trace_stream.Reader.Corrupt { block; reason } ->
    Printf.eprintf "wscalloc: corrupt: trace block %d: %s\n" block reason;
    exit 65
  | Persist.Corrupt { section; reason } ->
    Printf.eprintf "wscalloc: corrupt: snapshot section %s: %s\n" section reason;
    exit 65
  | Invalid_argument msg ->
    Printf.eprintf "wscalloc: corrupt: invalid data: %s\n" msg;
    exit 65

let simulate app duration optimized backend seed memory_limit_mib fault_rate rseq_on
    preempt_prob audit jobs checkpoint checkpoint_every resume_from =
  corrupt_guard @@ fun () ->
  apply_jobs jobs;
  let config = if optimized then Config.all_optimizations else Config.baseline in
  let config =
    match backend with None -> config | Some k -> Config.with_backend k config
  in
  if preempt_prob <> None && not rseq_on then begin
    Printf.eprintf "wscalloc: --preempt-prob requires --rseq\n";
    exit 124
  end;
  if rseq_on && config.Config.backend <> Config.Tcmalloc then begin
    Printf.eprintf "wscalloc: --rseq requires the tcmalloc backend\n";
    exit 124
  end;
  if checkpoint_every <> None && checkpoint = None then begin
    Printf.eprintf "wscalloc: --checkpoint-every requires --checkpoint\n";
    exit 124
  end;
  let until_ns = duration *. Units.sec in
  let machine =
    match resume_from with
    | Some path ->
      (* Every knob that shapes the simulation — config, seed, limits,
         faults, rseq, audits — is baked into the warm state; only the
         target duration and checkpoint cadence come from this
         invocation. *)
      let machine = Persist.load_machine ~path in
      let job = List.hd (Machine.jobs machine) in
      let name = (Driver.profile job.Machine.driver).Profile.name in
      (match app with
      | Some a when a.Profile.name <> name ->
        Printf.eprintf "wscalloc: snapshot holds %S, but --app %S was given\n" name
          a.Profile.name;
        exit 124
      | Some _ | None -> ());
      Printf.printf "resuming %s at %.1fs, continuing to %.0fs (%s)...\n%!" name
        (Substrate.Clock.now (Machine.clock machine) /. Units.sec)
        duration
        (Config.describe (Backend.config job.Machine.backend));
      machine
    | None ->
      let app =
        match app with
        | Some app -> app
        | None ->
          Printf.eprintf "wscalloc: --app is required (unless resuming a snapshot)\n";
          exit 124
      in
      Printf.printf "simulating %s for %.0fs (%s)...\n%!" app.Profile.name duration
        (Config.describe config);
      (* Hard limit at the requested size; soft limit at 85% of it so the
         reclaim cascade engages before mmap starts failing. *)
      let hard_limit_bytes = Option.map (fun mib -> int_of_float (mib *. 1024.0 *. 1024.0)) memory_limit_mib in
      let soft_limit_bytes = Option.map (fun b -> b * 85 / 100) hard_limit_bytes in
      let faults =
        match fault_rate with
        | None -> None
        | Some rate ->
          Some
            {
              Os.Fault.seed;
              mmap_failure_rate = rate;
              mmap_failure_burst = 2;
              pressure_period_ns = 5.0 *. Units.sec;
              pressure_duration_ns = Units.sec;
              pressure_bytes = 64 * 1024 * 1024;
              cpu_churn_period_ns = 3.0 *. Units.sec;
            }
      in
      let rseq =
        if rseq_on then
          Some
            {
              Os.Rseq.seed;
              preempt_prob = Option.value preempt_prob ~default:Os.Rseq.default_preempt_prob;
              max_restarts = config.Config.rseq_max_restarts;
            }
        else None
      in
      let audit_interval_ns = if audit then Some Units.sec else None in
      (try
         Machine.create ~seed ~config ?soft_limit_bytes ?hard_limit_bytes ?faults ?rseq
           ?audit_interval_ns ~platform:Topology.default ~jobs:[ app ] ()
       with Invalid_argument msg ->
         (* Bad --memory-limit / --faults values are rejected by the layer
            that owns the constraint; surface them as a usage error. *)
         Printf.eprintf "wscalloc: %s\n" msg;
         exit 124)
  in
  (try
     Persist.run_machine machine ~until_ns ~epoch_ns:Units.ms
       ?checkpoint_every_ns:(Option.map (fun s -> s *. Units.sec) checkpoint_every)
       ?checkpoint_path:checkpoint
   with Stdlib.Out_of_memory ->
     (* The allocator exhausted its reclaim-and-retry budget: the job
        would be OOM-killed.  Report it as an outcome, not a crash. *)
     Printf.eprintf
       "job killed: out of memory under the configured limit/fault schedule\n";
     exit 2);
  let job = List.hd (Machine.jobs machine) in
  let m = job.Machine.backend in
  let stats = Backend.heap_stats m in
  let tel = Backend.telemetry m in
  Printf.printf "requests completed : %.0f\n" (Driver.requests_completed job.Machine.driver);
  Printf.printf "allocations        : %d (%d frees)\n" (Telemetry.alloc_count tel)
    (Telemetry.free_count tel);
  Printf.printf "live               : %s\n"
    (Units.bytes_to_string stats.Malloc.live_requested_bytes);
  Printf.printf "simulated RSS      : %s\n"
    (Units.bytes_to_string stats.Malloc.resident_bytes);
  Printf.printf "fragmentation      : %.1f%% (ext %s, int %s)\n"
    (100.0 *. Backend.fragmentation_ratio stats)
    (Units.bytes_to_string stats.Malloc.external_fragmentation_bytes)
    (Units.bytes_to_string stats.Malloc.internal_fragmentation_bytes);
  Printf.printf "hugepage coverage  : %.1f%%\n" (100.0 *. Backend.hugepage_coverage m);
  Printf.printf "malloc cycle share : %.2f%%\n" (100.0 *. Gwp.malloc_cycle_fraction job);
  List.iter
    (fun tier ->
      Printf.printf "  %-16s %d hits\n" (Hw.Cost_model.tier_name tier)
        (Telemetry.hits tel tier))
    Hw.Cost_model.all_tiers;
  (* GWP-style sampled heap profile (Sec. 3, "Sampled"); TCMalloc only —
     the rival backends have no sampler. *)
  (match Backend.sampler m with
  | None -> ()
  | Some sampler ->
    Printf.printf "sampled live heap  : ~%s across size bins:\n"
      (Units.bytes_to_string (Tcmalloc.Sampler.live_heap_estimate_bytes sampler));
    List.iter
      (fun (bin, n) ->
        Printf.printf "  >= %-10s %d samples\n" (Units.bytes_to_string bin) n)
      (Tcmalloc.Sampler.live_profile sampler));
  (* Memory-pressure block: only interesting when limits or faults are on. *)
  let vm = Backend.vm m in
  if memory_limit_mib <> None || fault_rate <> None then begin
    Printf.printf "memory pressure:\n";
    (match Os.Vm.hard_limit vm with
    | Some b -> Printf.printf "  hard limit       : %s\n" (Units.bytes_to_string b)
    | None -> ());
    Printf.printf "  mmap failures    : %d (%d transient, %d limit)\n"
      (Os.Vm.mmap_failures vm)
      (Os.Vm.transient_mmap_failures vm)
      (Os.Vm.limit_mmap_failures vm);
    Printf.printf "  reclaim events   : %d (%d retry-after-reclaim, %d OOM)\n"
      (Telemetry.reclaim_events tel) (Telemetry.reclaim_retries tel)
      (Telemetry.oom_events tel);
    List.iter
      (fun tier ->
        Printf.printf "  reclaimed %-7s: %s\n"
          (Telemetry.reclaim_tier_name tier)
          (Units.bytes_to_string (Telemetry.reclaimed_bytes tel tier)))
      Telemetry.all_reclaim_tiers
  end;
  (* Restartable-sequence block: restart overhead (Fig. 4 cost model — each
     restart re-runs the 3.1 ns fast path) and stranded-cache reclaim. *)
  (match Backend.rseq m with
  | None -> ()
  | Some r ->
    let s = Os.Rseq.stats r in
    Printf.printf "restartable sequences (%s):\n"
      (Os.Rseq.describe (Os.Rseq.config r));
    Printf.printf "  fast-path ops    : %d (%d committed, %d fell back)\n"
      s.Os.Rseq.ops s.Os.Rseq.committed s.Os.Rseq.fallbacks;
    Printf.printf "  restarts         : %d (%d forced by migration)\n"
      s.Os.Rseq.restarts s.Os.Rseq.forced_aborts;
    Printf.printf "  restart overhead : %.0f ns\n"
      (float_of_int s.Os.Rseq.restarts
      *. Hw.Cost_model.tier_hit_ns Hw.Cost_model.Per_cpu_cache);
    Printf.printf "  stranded reclaim : %s in %d passes\n"
      (Units.bytes_to_string (Telemetry.stranded_reclaim_bytes tel))
      (Telemetry.stranded_reclaim_events tel));
  (* The audit block prints for --audit, and also on --resume when the
     restored machine was created with auditing (the flag itself is not a
     resume option: the warm state already carries the audit ticker). *)
  let audit_reports = Driver.audit_reports job.Machine.driver in
  if audit || audit_reports <> [] then begin
    let reports = audit_reports in
    let violations = Driver.audit_violations job.Machine.driver in
    Printf.printf "heap audit: %d audits, %d violation(s)\n" (List.length reports)
      violations;
    if violations > 0 then begin
      List.iter
        (fun r -> if not (Tcmalloc.Audit.is_clean r) then print_endline (Tcmalloc.Audit.to_string r))
        reports;
      exit 1
    end
  end

let simulate_cmd =
  let optimized =
    Arg.(value & flag & info [ "optimized" ] ~doc:"Enable all four optimizations.")
  in
  let memory_limit =
    Arg.(
      value
      & opt (some float) None
      & info [ "memory-limit" ] ~docv:"MIB"
          ~doc:
            "Hard per-process memory limit in MiB (mmap fails above it; the allocator \
             reclaims and retries).  The soft limit is set to 85% of it.")
  in
  let faults =
    Arg.(
      value
      & opt (some float) None
      & info [ "faults" ] ~docv:"RATE"
          ~doc:
            "Enable deterministic fault injection: transient mmap failures at the given \
             per-call rate (bursts of 2), plus periodic co-located pressure spikes and \
             CPU-churn bursts.")
  in
  let rseq =
    Arg.(
      value & flag
      & info [ "rseq" ]
          ~doc:
            "Run the per-CPU fast path under the restartable-sequence protocol: a \
             seeded injector preempts operations mid-sequence, forcing \
             abort-and-restart (bounded, then transfer-cache fallback).  Restart \
             counts and overhead are reported.")
  in
  let preempt_prob =
    Arg.(
      value
      & opt (some float) None
      & info [ "preempt-prob" ] ~docv:"P"
          ~doc:
            "Per-step preemption probability in [0, 1) for --rseq (default 0.001).  \
             Requires --rseq.")
  in
  let audit =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:
            "Run the heap auditor every simulated second; print a summary and exit \
             nonzero on any invariant violation.")
  in
  let app_opt =
    Arg.(
      value
      & opt (some app_arg) None
      & info [ "app"; "a" ] ~docv:"APP"
          ~doc:"Application profile to run.  Not needed with $(b,--resume).")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write a warm-state snapshot to $(docv) (atomically, replacing any \
             previous one) at every $(b,--checkpoint-every) interval and once at the \
             end of the run.  Resuming it continues bit-identically.")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (some float) None
      & info [ "checkpoint-every" ] ~docv:"SECS"
          ~doc:
            "Simulated seconds between checkpoints (requires $(b,--checkpoint); \
             without it, only the end-of-run snapshot is written).")
  in
  let resume =
    Arg.(
      value
      & opt (some file) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from a snapshot written by $(b,--checkpoint) instead of starting \
             cold.  $(b,--duration) is the absolute target time: resuming a 3 s \
             snapshot with --duration 6 simulates 3 more seconds and prints stats \
             byte-identical to an uninterrupted 6 s run.  Simulation-shaping flags \
             (config, seed, limits, faults, rseq) are carried by the snapshot and \
             ignored here.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one application on a dedicated simulated server.")
    Term.(
      const simulate $ app_opt $ duration_term $ optimized $ backend_term $ seed_term
      $ memory_limit $ faults $ rseq $ preempt_prob $ audit $ jobs_term $ checkpoint
      $ checkpoint_every $ resume)

(* ab *)

let ab app experiment_name backend duration seed jobs =
  apply_jobs jobs;
  match List.assoc_opt experiment_name experiments with
  | None ->
    Printf.eprintf "unknown experiment %S; known: %s\n" experiment_name
      (String.concat ", " (List.map fst experiments));
    exit 1
  | Some experiment ->
    (* --backend pins BOTH arms to one allocator (optimization A/Bs on a
       rival); without it the control is tcmalloc baseline and a backend
       experiment (rpmalloc/jemalloc) makes it a cross-allocator A/B. *)
    let control, experiment =
      match backend with
      | None -> (Config.baseline, experiment)
      | Some k -> (Config.with_backend k Config.baseline, Config.with_backend k experiment)
    in
    Printf.printf "A/B %s: %s vs %s...\n%!" app.Profile.name
      (Config.backend_name control.Config.backend ^ " baseline")
      experiment_name;
    let o =
      Ab.run_app ~seed ~duration_ns:(duration *. Units.sec) ~control ~experiment app
    in
    Printf.printf "throughput : %+.2f%%\n" o.Ab.throughput_change_pct;
    Printf.printf "memory     : %+.2f%%\n" o.Ab.memory_change_pct;
    Printf.printf "CPI        : %+.2f%%\n" o.Ab.cpi_change_pct;
    Printf.printf "LLC MPKI   : %.2f -> %.2f\n" o.Ab.mpki_before o.Ab.mpki_after;
    Printf.printf "dTLB walk  : %.2f%% -> %.2f%%\n" o.Ab.walk_before_pct o.Ab.walk_after_pct;
    Printf.printf "coverage   : %.1f%% -> %.1f%%\n" (100.0 *. o.Ab.coverage_before)
      (100.0 *. o.Ab.coverage_after)

let ab_cmd =
  let experiment =
    Arg.(
      required
      & opt (some string) None
      & info [ "experiment"; "e" ] ~docv:"EXPERIMENT"
          ~doc:
            "One of dynamic-cpu-caches, nuca-transfer-cache, span-prioritization, \
             lifetime-filler, all, rpmalloc, jemalloc (the last two swap the whole \
             allocator backend in the experiment arm).")
  in
  Cmd.v
    (Cmd.info "ab" ~doc:"Run a baseline-vs-optimization A/B experiment for one app.")
    Term.(
      const ab $ app_term $ experiment $ backend_term $ duration_term $ seed_term
      $ jobs_term)

(* fleet *)

module Campaign = Fleet_sim.Campaign
module Sup = Substrate.Supervisor

(* --chaos "crash=P,hang=P,corrupt=P[,seed=N]" *)
let chaos_arg =
  let parse s =
    let parts = List.map String.trim (String.split_on_char ',' s) in
    let rec build (c : Os.Fault.chaos) = function
      | [] -> Ok c
      | part :: rest -> (
        match String.split_on_char '=' part with
        | [ key; v ] -> (
          match (key, float_of_string_opt v) with
          | "crash", Some p -> build { c with Os.Fault.crash_prob = p } rest
          | "hang", Some p -> build { c with Os.Fault.hang_prob = p } rest
          | "corrupt", Some p -> build { c with Os.Fault.corrupt_prob = p } rest
          | "seed", Some _ -> (
            match int_of_string_opt v with
            | Some n -> build { c with Os.Fault.chaos_seed = n } rest
            | None -> Error (`Msg (Printf.sprintf "bad chaos seed %S" v)))
          | _ -> Error (`Msg (Printf.sprintf "bad chaos component %S" part)))
        | _ -> Error (`Msg (Printf.sprintf "bad chaos component %S (want key=value)" part)))
    in
    match build { Os.Fault.no_chaos with Os.Fault.chaos_seed = 1 } parts with
    | Ok c -> (
      match Os.Fault.validate_chaos c with
      | () -> Ok c
      | exception Invalid_argument msg -> Error (`Msg msg))
    | Error _ as e -> e
  in
  let print fmt c = Format.pp_print_string fmt (Os.Fault.describe_chaos c) in
  Arg.conv (parse, print)

let fleet machines duration backend seed jobs chaos retries shard_every resume_dir
    stop_after aggregate_out =
  apply_jobs jobs;
  if machines <= 0 then begin
    Printf.eprintf "wscalloc: --machines must be positive\n";
    exit 124
  end;
  if duration <= 0.0 then begin
    Printf.eprintf "wscalloc: --duration must be positive\n";
    exit 124
  end;
  let campaign_mode =
    chaos <> None || retries <> None || shard_every <> None || resume_dir <> None
    || stop_after <> None || aggregate_out <> None
  in
  let config =
    match backend with
    | None -> Config.baseline
    | Some k -> Config.with_backend k Config.baseline
  in
  if not campaign_mode then begin
    Printf.printf "running a %d-machine fleet for %.0fs (%s)...\n%!" machines duration
      (Config.backend_name config.Config.backend);
    let fleet = Fleet_sim.Fleet.create ~seed ~num_machines:machines ~config () in
    let (_ : Machine.summary list) =
      Fleet_sim.Fleet.run fleet ~duration_ns:(duration *. Units.sec) ~epoch_ns:Units.ms
    in
    let jobs = Fleet_sim.Fleet.jobs fleet in
    Printf.printf "fleet malloc cycle share: %.2f%%\n"
      (100.0 *. Gwp.fleet_malloc_cycle_fraction jobs);
    let ext, internal = Gwp.fragmentation_ratio jobs in
    Printf.printf "fleet fragmentation: %.1f%% external + %.1f%% internal\n" (100.0 *. ext)
      (100.0 *. internal);
    let usage = Gwp.binary_usage jobs in
    Printf.printf "top binaries by malloc cycles:\n";
    List.iteri
      (fun i u -> if i < 10 then Printf.printf "  %-16s %.0f us\n" u.Gwp.binary (u.Gwp.malloc_ns /. 1e3))
      usage
  end
  else
    corrupt_guard @@ fun () ->
    let chaos = Option.value chaos ~default:Os.Fault.no_chaos in
    let policy =
      match retries with
      | None -> Sup.default_policy
      | Some k -> { Sup.default_policy with Sup.max_attempts = k + 1 }
    in
    let spec =
      {
        Campaign.default_spec with
        Campaign.seed;
        machines;
        duration_ns = duration *. Units.sec;
        config;
        chaos;
        policy;
        shard_size =
          Option.value shard_every ~default:Campaign.default_spec.Campaign.shard_size;
      }
    in
    (try Campaign.validate_spec spec
     with Invalid_argument msg ->
       Printf.eprintf "wscalloc: %s\n" msg;
       exit 124);
    Printf.printf "campaign: %d machines x %.0fs, %s, %d attempts max, shard %d%s\n%!"
      machines duration
      (Os.Fault.describe_chaos chaos)
      policy.Sup.max_attempts spec.Campaign.shard_size
      (match resume_dir with
      | Some dir -> Printf.sprintf ", resume dir %s" dir
      | None -> "");
    let result =
      Persist.run_campaign ?resume_dir ?max_shards:stop_after spec
    in
    print_string (Campaign.render_result result);
    (match aggregate_out with
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Campaign.render_aggregate result.Campaign.r_aggregate));
      Printf.printf "wrote aggregate to %s\n" path
    | None -> ());
    if not result.Campaign.r_finished then exit 3

(* fleet scrub: validate every shard of a resume directory, quarantine
   (never delete) what a resume could not use. *)
let fleet_scrub dir =
  let r =
    try Persist.scrub_campaign_dir ~dir
    with Invalid_argument msg ->
      Printf.eprintf "wscalloc: %s\n" msg;
      exit 124
  in
  Printf.printf "scrub %s: %d shard(s)\n" dir (List.length r.Persist.sr_entries);
  List.iter
    (fun e ->
      match e.Persist.sc_status with
      | Persist.Shard_intact ->
        Printf.printf "  shard %04d: intact (%d machines)\n" e.Persist.sc_shard
          e.Persist.sc_machines
      | Persist.Shard_salvaged notes ->
        Printf.printf "  shard %04d: damaged but loadable (%d machines; %s)\n"
          e.Persist.sc_shard e.Persist.sc_machines
          (String.concat "; " notes)
      | Persist.Shard_unrecoverable reason ->
        Printf.printf "  shard %04d: unrecoverable (%s) -- quarantined\n"
          e.Persist.sc_shard reason)
    r.Persist.sr_entries;
  List.iter
    (fun (old_path, q) ->
      Printf.printf "  quarantined stale tmp %s -> %s\n" old_path (Filename.basename q))
    r.Persist.sr_stale_tmp;
  List.iter
    (fun (old_path, q) ->
      Printf.printf "  quarantined %s -> %s\n" old_path (Filename.basename q))
    r.Persist.sr_quarantined;
  match r.Persist.sr_best with
  | Some (shard, machines) ->
    Printf.printf "resume will continue from shard %04d (%d machines covered)\n" shard
      machines
  | None ->
    Printf.printf "no usable checkpoint: a resume will restart from scratch\n"

let fleet_cmd =
  let machines =
    Arg.(value & opt int 10 & info [ "machines"; "m" ] ~docv:"N" ~doc:"Fleet size.")
  in
  let chaos =
    Arg.(
      value
      & opt (some chaos_arg) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Campaign mode: deterministic per-attempt machine failure injection, e.g. \
             $(b,crash=0.2,hang=0.1,corrupt=0.1,seed=1).  The schedule is a pure \
             function of (seed, machine, attempt), so retries and resumes replay \
             the same failures.")
  in
  let retries =
    Arg.(
      value
      & opt (some int) None
      & info [ "retries" ] ~docv:"K"
          ~doc:
            "Campaign mode: retry each failed machine up to $(docv) times (with \
             seeded exponential backoff charged to simulated time) before \
             quarantining it.")
  in
  let shard_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard-every" ] ~docv:"M"
          ~doc:
            "Campaign mode: checkpoint granularity — machines per shard (default \
             16).  Supervisor memory is O(shard), not O(machines).")
  in
  let resume_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume-dir" ] ~docv:"DIR"
          ~doc:
            "Campaign mode: write a durable campaign-NNNN.wsnap checkpoint into \
             $(docv) after every shard, and resume from the newest loadable one if \
             the directory already holds shards of this campaign.  A killed \
             campaign rerun with the same flags continues instead of restarting; \
             exits 65 if the directory holds shards of a different spec.")
  in
  let stop_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "stop-after" ] ~docv:"SHARDS"
          ~doc:
            "Campaign mode: stop cleanly after $(docv) shards this invocation \
             (deterministic stand-in for a mid-campaign kill; exits 3 when the \
             campaign is left incomplete).")
  in
  let aggregate_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "aggregate-out" ] ~docv:"FILE"
          ~doc:
            "Campaign mode: also write the deterministic aggregate block to \
             $(docv) — byte-identical across job counts, chaos schedules and \
             kill/resume points, so CI can diff runs.")
  in
  let scrub_cmd =
    let dir =
      Arg.(
        required
        & opt (some string) None
        & info [ "resume-dir" ] ~docv:"DIR"
            ~doc:"Campaign resume directory to scrub.")
    in
    Cmd.v
      (Cmd.info "scrub"
         ~doc:
           "Validate every campaign checkpoint shard in a resume directory: report \
            per-shard integrity and salvageable coverage, and quarantine (rename, \
            never delete) unrecoverable shards and stale tmp files so a subsequent \
            resume proceeds from the best surviving checkpoint.")
      Term.(const fleet_scrub $ dir)
  in
  Cmd.group
    ~default:
      Term.(
        const fleet $ machines $ duration_term $ backend_term $ seed_term $ jobs_term
        $ chaos $ retries $ shard_every $ resume_dir $ stop_after $ aggregate_out)
    (Cmd.info "fleet"
       ~doc:
         "Run a heterogeneous fleet and print a GWP-style profile; campaign flags \
          switch to supervised crash-tolerant execution with streaming aggregation, \
          and $(b,fleet scrub) audits a campaign resume directory.")
    [ scrub_cmd ]

(* trace record|replay|stat|verify|convert *)

module Writer = Trace_stream.Writer
module Reader = Trace_stream.Reader
module Recorder = Trace_stream.Recorder
module Analyzer = Trace_stream.Analyzer
module Replay = Trace_stream.Replay
module Salvage = Trace_stream.Salvage

let named_configs = ("baseline", Config.baseline) :: experiments

let in_term =
  Arg.(
    required
    & opt (some file) None
    & info [ "in"; "i" ] ~docv:"FILE" ~doc:"Trace file to read.")

let out_term =
  Arg.(
    required
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Trace file to write.")

let trace_record app duration seed out =
  let w = Writer.to_file out in
  ignore (Recorder.record_app ~seed ~duration_ns:(duration *. Units.sec) ~writer:w app);
  let events = Writer.events_written w and blocks = Writer.blocks_written w in
  Writer.close w;
  Printf.printf "recorded %d events from %s into %s (%d blocks)\n" events
    app.Profile.name out blocks

let trace_record_cmd =
  Cmd.v
    (Cmd.info "record" ~doc:"Record an allocation trace from a profile run.")
    Term.(const trace_record $ app_term $ duration_term $ seed_term $ out_term)

let config_list =
  let parse s =
    let names = String.split_on_char ',' (String.trim s) in
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest -> (
        let name = String.trim name in
        match List.assoc_opt name named_configs with
        | Some config -> resolve ((name, config) :: acc) rest
        | None ->
          Error
            (`Msg
              (Printf.sprintf "unknown config %S (known: %s)" name
                 (String.concat ", " (List.map fst named_configs)))))
    in
    resolve [] names
  in
  let print fmt configs =
    Format.pp_print_string fmt (String.concat "," (List.map fst configs))
  in
  Arg.conv (parse, print)

let trace_replay file configs backend jobs salvage =
  apply_jobs jobs;
  (* --backend rebases every selected config arm onto the given allocator
     model, so `replay --backend rpmalloc` is the cross-allocator twin of
     the default baseline replay. *)
  let configs =
    match backend with
    | None -> configs
    | Some kind ->
      List.map
        (fun (name, config) ->
          let name =
            if name = "baseline" then Config.backend_name kind
            else name ^ "+" ^ Config.backend_name kind
          in
          (name, Config.with_backend kind config))
        configs
  in
  Printf.printf "replaying %s under %d config(s)%s...\n%!" file (List.length configs)
    (if salvage then " in salvage mode" else "");
  let results, salvage_report =
    if salvage then begin
      (* Degraded mode: each arm replays the salvage scan of the damaged
         trace; the loss report is identical across arms. *)
      let report = ref None in
      let results =
        List.map
          (fun (name, config) ->
            let r, rep = Replay.run_salvage ~config file in
            report := Some rep;
            (name, r))
          configs
      in
      (results, !report)
    end
    else (Replay.run_configs ~configs file, None)
  in
  let t =
    Substrate.Table.create ~title:"Trace replay"
      ~columns:[ "config"; "allocs"; "frees"; "peak RSS"; "final live"; "malloc us" ]
  in
  List.iter
    (fun (name, r) ->
      Substrate.Table.add_row t
        [
          name;
          string_of_int r.Replay.allocations;
          string_of_int r.Replay.frees;
          Units.bytes_to_string r.Replay.peak_rss_bytes;
          Units.bytes_to_string r.Replay.final_stats.Malloc.live_requested_bytes;
          Printf.sprintf "%.0f" (r.Replay.malloc_ns /. 1e3);
        ])
    results;
  Substrate.Table.print t;
  match salvage_report with
  | Some rep when not (Salvage.clean rep) ->
    Printf.eprintf "wscalloc: warning: %s\n" (Salvage.describe rep)
  | Some _ | None -> ()

let salvage_term =
  Arg.(
    value & flag
    & info [ "salvage" ]
        ~doc:
          "Degraded mode: read through damage by resynchronizing on the next \
           valid block instead of failing on the first checksum error.  Exits 0 \
           with a loss warning on stderr when events were lost; only damage \
           beyond salvage exits 65.")

let trace_replay_cmd =
  let configs =
    Arg.(
      value
      & opt config_list [ ("baseline", Config.baseline) ]
      & info [ "configs"; "c" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated allocator configs to replay under (e.g. \
             $(b,baseline,all)); every config sees the identical event stream.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a trace against one or more allocator configs, in parallel.")
    Term.(
      const (fun f c b j s -> corrupt_guard (fun () -> trace_replay f c b j s))
      $ in_term $ configs $ backend_term $ jobs_term $ salvage_term)

let trace_stat file =
  print_string (Analyzer.render (Analyzer.scan_file file))

let trace_stat_cmd =
  Cmd.v
    (Cmd.info "stat"
       ~doc:"Streaming trace analysis: size/lifetime CDFs, rates, live curve.")
    Term.(const (fun f -> corrupt_guard (fun () -> trace_stat f)) $ in_term)

let trace_verify file salvage =
  if salvage then begin
    let events = ref 0 in
    let rep = Salvage.scan ~on_event:(fun _ -> incr events) file in
    Printf.printf "%s: %s\n" file (Salvage.describe rep);
    if Salvage.clean rep then Printf.printf "OK\n"
    else
      Printf.eprintf
        "wscalloc: warning: trace is damaged but salvageable (run `trace repair')\n"
  end
  else begin
    let s = Reader.verify file in
    Printf.printf "%s: %s, %d events in %d blocks: %d allocs, %d frees, %d retires, %s simulated, %d live at end\n"
      file
      (match s.Reader.summary_format with `Binary -> "binary v2" | `Text_v1 -> "text v1")
      s.Reader.events s.Reader.blocks s.Reader.allocations s.Reader.frees s.Reader.retires
      (Units.duration_to_string s.Reader.duration_ns)
      s.Reader.live_at_end;
    Printf.printf "OK\n"
  end

let trace_verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
        "Stream a trace end to end, checking structure, checksums and semantic \
         validity; exits 65 on damage ($(b,--salvage): report recoverable \
         content instead).")
    Term.(const (fun f s -> corrupt_guard (fun () -> trace_verify f s)) $ in_term $ salvage_term)

let trace_repair src dst =
  let rep = Salvage.repair ~src ~dst () in
  Printf.printf "%s -> %s: %s\n" src dst (Salvage.describe rep);
  Printf.printf "recovered %d events into %s\n" rep.Salvage.events_recovered dst;
  if not (Salvage.clean rep) then
    Printf.eprintf "wscalloc: warning: repaired with loss (see report above)\n"

let trace_repair_cmd =
  let src =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"IN" ~doc:"Damaged trace to salvage.")
  in
  let dst =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUT" ~doc:"Repaired binary trace to write.")
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
        "Salvage a damaged trace into a fresh, fully valid binary trace: \
         resynchronize past damaged blocks, drop events unresolvable after the \
         gap, and report exactly what was lost.  A clean input round-trips \
         byte-identically.")
    Term.(const (fun s d -> corrupt_guard (fun () -> trace_repair s d)) $ src $ dst)

let trace_convert file out to_text =
  let copied =
    Reader.with_file file (fun r ->
        if to_text then begin
          let oc = open_out out in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              output_string oc "# wsc-alloc trace v1\n";
              let n = ref 0 in
              Reader.iter r (fun ev ->
                  incr n;
                  output_string oc (Workload.Trace.line_of_event ev);
                  output_char oc '\n');
              !n)
        end
        else Writer.with_file out (fun w -> Reader.copy_into r w))
  in
  Printf.printf "converted %d events: %s -> %s (%s)\n" copied file out
    (if to_text then "text v1" else "binary v2")

let trace_convert_cmd =
  let to_text =
    Arg.(
      value & flag
      & info [ "to-text" ]
          ~doc:"Convert to the text v1 format instead of binary v2.")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Convert between text v1 and binary v2 trace formats, streaming.")
    Term.(const (fun f o t -> corrupt_guard (fun () -> trace_convert f o t)) $ in_term $ out_term $ to_text)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Record, replay, analyze, convert and repair allocation traces.")
    [
      trace_record_cmd; trace_replay_cmd; trace_stat_cmd; trace_verify_cmd;
      trace_convert_cmd; trace_repair_cmd;
    ]

(* snapshot info *)

let snapshot_info file =
  corrupt_guard @@ fun () ->
  let i = Persist.info ~path:file in
  Printf.printf "%s: %s snapshot (%s), %s simulated%s\n" file i.Persist.kind
    (Units.bytes_to_string i.Persist.file_bytes)
    (Units.duration_to_string i.Persist.sim_now_ns)
    (if i.Persist.note = "" then "" else Printf.sprintf " (%s)" i.Persist.note);
  List.iter
    (fun (name, rss) ->
      Printf.printf "  %-22s rss %s\n" name (Units.bytes_to_string rss))
    i.Persist.jobs;
  Printf.printf "OK\n"

let snapshot_verify file =
  corrupt_guard @@ fun () ->
  let a = Persist.audit ~path:file in
  Printf.printf "%s: %d bytes, trailer %s, end marker %s\n" file a.Persist.a_bytes
    (if a.Persist.a_trailer_intact then "intact" else "damaged")
    (if a.Persist.a_end_seen then "present" else "missing");
  List.iter
    (fun s ->
      Printf.printf "  %-10s %s%s\n" s.Persist.s_name
        (if s.Persist.s_intact then
           Printf.sprintf "intact (%s)" (Units.bytes_to_string s.Persist.s_bytes)
         else if s.Persist.s_recovered then "recovered via trailer"
         else "unrecoverable")
        (match s.Persist.s_reason with
        | None -> ""
        | Some r -> Printf.sprintf " -- %s" r))
    a.Persist.a_sections;
  if a.Persist.a_intact then Printf.printf "OK\n"
  else if a.Persist.a_salvageable then
    Printf.eprintf
      "wscalloc: warning: snapshot is damaged but salvageable (run `snapshot repair')\n"
  else begin
    let section, reason =
      match
        List.find_opt
          (fun s -> not (s.Persist.s_intact || s.Persist.s_recovered))
          a.Persist.a_sections
      with
      | Some s -> (s.Persist.s_name, Option.value s.Persist.s_reason ~default:"damaged")
      | None -> ("container", "unrecoverable")
    in
    Printf.eprintf "wscalloc: corrupt: snapshot section %s: %s\n" section reason;
    exit 65
  end

let snapshot_repair src dst =
  corrupt_guard @@ fun () ->
  let a = Persist.repair ~src ~dst () in
  List.iter (fun n -> Printf.printf "  %s\n" n) (Persist.audit_notes a);
  Printf.printf "rebuilt %s -> %s (%s)\n" src dst
    (if a.Persist.a_intact then "input was intact: byte-identical rebuild"
     else "every recoverable section restored");
  if not a.Persist.a_intact then
    Printf.eprintf "wscalloc: warning: input was damaged; repaired from redundancy\n"

let snapshot_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Snapshot file to inspect.")
  in
  let repair_src =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"IN" ~doc:"Damaged snapshot to salvage.")
  in
  let repair_dst =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUT" ~doc:"Repaired snapshot to write.")
  in
  Cmd.group
    (Cmd.info "snapshot" ~doc:"Inspect, verify and repair warm-state snapshots.")
    [
      Cmd.v
        (Cmd.info "info"
           ~doc:
             "Verify a snapshot's header and checksums and print its summary \
              (kind, simulated time, per-job RSS); exits 65 on damage.  Reads \
              only the closure-free summary sections -- the state payload is \
              integrity-checked but never deserialized, so info on an untrusted \
              snapshot is always safe.")
        Term.(const snapshot_info $ file);
      Cmd.v
        (Cmd.info "verify"
           ~doc:
             "Audit a snapshot's structure byte by byte without deserializing \
              anything: per-section integrity, trailer and end-marker status.  \
              Exits 0 when intact, 0 with a warning when damaged but \
              salvageable, 65 when a required section is beyond recovery.")
        Term.(const snapshot_verify $ file);
      Cmd.v
        (Cmd.info "repair"
           ~doc:
             "Rebuild a pristine snapshot from every recoverable section of a \
              damaged one, using the v2 trailer redundancy.  When the damage is \
              confined to duplicated data (summary sections or the trailer \
              itself), the output is byte-identical to the original undamaged \
              file.")
        Term.(const snapshot_repair $ repair_src $ repair_dst);
    ]

(* arena: cross-allocator shoot-out *)

let backend_list_arg =
  let parse s =
    let names = List.map String.trim (String.split_on_char ',' s) in
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest -> (
        match Config.backend_of_name name with
        | Some k -> resolve (k :: acc) rest
        | None ->
          Error
            (`Msg
              (Printf.sprintf "unknown backend %S (known: %s)" name
                 (String.concat ", " (List.map Config.backend_name Config.all_backends)))))
    in
    resolve [] names
  in
  let print fmt ks =
    Format.pp_print_string fmt (String.concat "," (List.map Config.backend_name ks))
  in
  Arg.conv (parse, print)

let arena backends seed jobs smoke committed json_out =
  apply_jobs jobs;
  Printf.printf "arena: %s, seed %d...\n%!"
    (String.concat " vs " (List.map Config.backend_name backends))
    seed;
  let report = Arena.run ~backends ~seed () in
  Arena.pp_table Format.std_formatter report;
  Format.pp_print_flush Format.std_formatter ();
  (match json_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Arena.to_json report));
    Printf.printf "wrote %s\n" path);
  let dead =
    List.filter (fun c -> not c.Arena.survived) report.Arena.cells
  in
  List.iter
    (fun (c : Arena.cell) ->
      Printf.eprintf "wscalloc: arena: %s/%s did not survive (audit or limit failure)\n"
        (Config.backend_name c.Arena.cell_backend)
        (Arena.scenario_name c.Arena.cell_scenario))
    dead;
  if smoke then begin
    let committed_text =
      match open_in_bin committed with
      | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      | exception Sys_error msg ->
        Printf.eprintf "wscalloc: arena: cannot read committed baseline: %s\n" msg;
        exit 1
    in
    match Arena.check_committed ~committed:committed_text report with
    | [] -> Printf.printf "arena smoke: all deterministic cells match %s\n" committed
    | msgs ->
      List.iter (fun m -> Printf.eprintf "wscalloc: arena: %s\n" m) msgs;
      exit 1
  end;
  if dead <> [] then exit 1

let arena_cmd =
  let backends =
    Arg.(
      value
      & opt backend_list_arg Config.all_backends
      & info [ "backends" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated backends to race (default all: \
             $(b,tcmalloc,rpmalloc,jemalloc)).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Gate mode: re-run the pinned arena workloads and require every \
             deterministic cell metric to match the committed baseline exactly; \
             exit 1 on any drift.")
  in
  let committed =
    Arg.(
      value
      & opt string "BENCH_arena.json"
      & info [ "committed" ] ~docv:"FILE"
          ~doc:"Committed baseline JSON for $(b,--smoke) (default BENCH_arena.json).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the full report as JSON to $(docv).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Arena seed (default 42, the committed-baseline seed: $(b,--smoke) \
             only matches BENCH_arena.json at the seed it was generated with).")
  in
  Cmd.v
    (Cmd.info "arena"
       ~doc:
         "Race the allocator backends through the cross-allocator arena: a \
          workload-zoo machine, a cross-CPU producer/consumer flood, Fig. 7 \
          size-mix churn, and memory-pressure survival, reporting per-backend \
          RSS, throughput and fragmentation.")
    Term.(const arena $ backends $ seed $ jobs_term $ smoke $ committed $ json_out)

(* tune: deterministic config search over trace replay *)

module Tuner = Tune.Tune
module Tspace = Tune.Space

(* A solo driver run of [app] recorded to a scratch trace, decoded once. *)
let recorded_events app duration seed =
  let path = Filename.temp_file "wscalloc_tune" ".wtrace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Writer.with_file path (fun w ->
          ignore
            (Recorder.record_app ~seed ~duration_ns:(duration *. Units.sec) ~writer:w app));
      Replay.preload path)

let tune trace_file app duration strategy_name budget batch backend seed jobs
    checkpoint resume stop_after json_out =
  corrupt_guard @@ fun () ->
  apply_jobs jobs;
  let strategy =
    match Tuner.strategy_of_name strategy_name with
    | Some s -> s
    | None ->
      Printf.eprintf "wscalloc: unknown strategy %S (known: sweep, hillclimb, evolve)\n"
        strategy_name;
      exit 124
  in
  let spec =
    {
      Tuner.sp_seed = seed;
      sp_budget = budget;
      sp_batch = batch;
      sp_strategy = strategy;
      sp_backend = Option.value backend ~default:Config.Tcmalloc;
    }
  in
  (try Tuner.validate_spec spec
   with Invalid_argument msg ->
     Printf.eprintf "wscalloc: %s\n" msg;
     exit 124);
  let events =
    match (trace_file, app) with
    | Some path, None ->
      Printf.printf "tuning against trace %s...\n%!" path;
      Replay.preload path
    | None, Some app ->
      Printf.printf "tuning against a recorded %.0fs %s run...\n%!" duration
        app.Profile.name;
      recorded_events app duration seed
    | Some _, Some _ ->
      Printf.eprintf "wscalloc: --trace and --app are mutually exclusive\n";
      exit 124
    | None, None ->
      Printf.eprintf "wscalloc: tune needs a workload: --trace FILE or --app APP\n";
      exit 124
  in
  let resume_state =
    match resume with
    | None -> None
    | Some path ->
      let st = Tuner.load_checkpoint ~path in
      Printf.printf "resuming search at %d evaluations (%d generations)...\n%!"
        (Tuner.evaluations st) (Tuner.generations st);
      Some st
  in
  let on_generation ~generation st =
    match checkpoint with
    | None -> ()
    | Some path ->
      Tuner.save_checkpoint st ~path
        ~note:(Printf.sprintf "generation %d" generation)
  in
  let t0 = Unix.gettimeofday () in
  let report =
    try
      Tuner.run ~on_generation ?resume:resume_state
        ?max_generations:stop_after ~events spec
    with Invalid_argument msg ->
      Printf.eprintf "wscalloc: %s\n" msg;
      exit 124
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  Tuner.pp_front Format.std_formatter report;
  Format.pp_print_flush Format.std_formatter ();
  (match json_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Tuner.to_json ~wall_s report));
    Printf.printf "wrote %s\n" path);
  if not report.Tuner.rp_finished then exit 3

let tune_cmd =
  let trace_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "trace"; "t" ] ~docv:"FILE"
          ~doc:"Recorded .wtrace to tune against (decoded once, shared by every arm).")
  in
  let app_opt =
    Arg.(
      value
      & opt (some app_arg) None
      & info [ "app"; "a" ] ~docv:"APP"
          ~doc:
            "Tune against a solo run of this profile, recorded for \
             $(b,--duration) seconds with the search's $(b,--seed), instead of a \
             trace file.")
  in
  let strategy =
    Arg.(
      value & opt string "evolve"
      & info [ "strategy"; "s" ] ~docv:"NAME"
          ~doc:
            "Search strategy: $(b,sweep) (random search), $(b,hillclimb) (sweep \
             opening then one-step neighborhood descent), or $(b,evolve) \
             (tournament-selection GA, the default).")
  in
  let budget =
    Arg.(
      value & opt int Tuner.default_spec.Tuner.sp_budget
      & info [ "budget" ] ~docv:"N"
          ~doc:"Total replay evaluations (default 120).")
  in
  let batch =
    Arg.(
      value & opt int Tuner.default_spec.Tuner.sp_batch
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Evaluations per generation — the parallel fan-out width (default 24).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Search seed (default 42).")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write a search checkpoint to $(docv) (atomically, replacing any previous \
             one) after every generation; resuming it continues bit-identically.")
  in
  let resume =
    Arg.(
      value
      & opt (some file) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume a search from a checkpoint written by $(b,--checkpoint).  The \
             spec flags and workload must match the checkpointed search; exits 65 \
             on damage, 124 on mismatch.")
  in
  let stop_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "stop-after" ] ~docv:"GENS"
          ~doc:
            "Stop cleanly after $(docv) generations this invocation (deterministic \
             stand-in for a mid-search kill; exits 3 when the budget is left \
             unfinished).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the report (BENCH_tune.json format) to $(docv).")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Search the allocator config space against a recorded trace: seeded, \
          fully deterministic (same seed => identical Pareto front at any \
          $(b,--jobs)), reporting peak-RSS vs allocator-CPU trade-offs against \
          the paper-default config.")
    Term.(
      const tune $ trace_file $ app_opt $ duration_term $ strategy $ budget $ batch
      $ backend_term $ seed $ jobs_term $ checkpoint $ resume $ stop_after $ json_out)

let () =
  let info =
    Cmd.info "wscalloc" ~version:"1.0.0"
      ~doc:"Warehouse-scale memory allocator characterization simulator."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_apps_cmd; simulate_cmd; ab_cmd; fleet_cmd; arena_cmd; trace_cmd;
            snapshot_cmd; tune_cmd;
          ]))
