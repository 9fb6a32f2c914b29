(* Workload [campaign]: a chaos fleet campaign of short-lived two-job
   machines on two domains — Zipf-chosen binaries across the platform
   generations, injected crashes/hangs/corrupt results, supervised
   retries, every shard checkpointed with Persist.save_campaign — stopped
   partway and resumed from disk (`fleet --chaos --resume-dir
   --stop-after`, then the same command again).

   Why: the work is Machine.create, cold heap growth (start-up bursts,
   central-free-list and pageheap refills, mmap), supervised retries,
   shard barriers on two domains and shard I/O: the allocator used the
   opposite way from [simulate]'s warm reuse.  A change that helps one and
   costs the other shows up here. *)

open Wsc_substrate
open Common
module Machine = Wsc_fleet.Machine
module Fleet = Wsc_fleet.Fleet
module Campaign = Wsc_fleet.Campaign
module Persist = Wsc_persist.Persist
module Recorder = Wsc_trace.Recorder
module Writer = Wsc_trace.Writer
module Replay = Wsc_trace.Replay
module Fault = Wsc_os.Fault
module Topology = Wsc_hw.Topology
module Supervisor = Wsc_substrate.Supervisor

(* Many short machines: the campaign's outputs depend on which binaries
   and platforms the seed draws and on which attempts fail, and a run must
   average over enough machines for those draws to even out. *)
let machines = 360
let shard_size = 36
let stop_after = 5
let jobs = 2

(* Set-up is a fraction of a millisecond, so it is repeated often enough
   for its median to be steady. *)
let setups = 101

(* Every generator takes the one seed: machine shapes and drivers
   (spec.seed), the chaos schedule and the retry jitter. *)
let spec_of_seed seed =
  {
    Campaign.default_spec with
    Campaign.seed;
    machines;
    duration_ns = 0.1 *. Units.sec;
    chaos = { Fault.chaos_seed = seed; crash_prob = 0.2; hang_prob = 0.1; corrupt_prob = 0.1 };
    (* 0.4 failure probability per attempt and 26 attempts: quarantine
       needs 26 straight failures, so coverage stays total and the chaos
       aggregate must equal the fault-free one. *)
    policy = { Supervisor.default_policy with Supervisor.max_attempts = 26; seed };
    shard_size;
  }

type round = { wall_s : float; paused : bool; result : Campaign.result }

let events (r : Campaign.result) =
  r.Campaign.r_aggregate.Campaign.a_allocations + r.Campaign.r_aggregate.Campaign.a_frees

let eps r = float_of_int (events r.result) /. r.wall_s

let round ~spec ~dir =
  fresh_dir dir;
  let t0 = Span.now_ns () in
  let first = Persist.run_campaign ~jobs ~resume_dir:dir ~max_shards:stop_after spec in
  let result = Persist.run_campaign ~jobs ~resume_dir:dir spec in
  let t1 = Span.now_ns () in
  { wall_s = Span.seconds_between t0 t1; paused = not first.Campaign.r_finished; result }

(* The same stop/resume through Campaign.run ~on_shard, with a span per
   shard and per Persist call. *)
let round_traced ~spec ~dir ~shards ~saves ~loads =
  fresh_dir dir;
  let t0 = Span.now_ns () in
  let last = ref t0 in
  let on_shard ~shard ck =
    let t = Span.now_ns () in
    Span.Samples.add shards (t - !last);
    Persist.save_campaign ck ~path:(Persist.campaign_shard_path ~dir shard)
      ~note:(Printf.sprintf "shard %d" shard);
    let t' = Span.now_ns () in
    Span.Samples.add saves (t' - t);
    last := t'
  in
  let (_ : Campaign.result) = Campaign.run ~jobs ~on_shard ~max_shards:stop_after spec in
  let t = Span.now_ns () in
  let ck = Persist.load_campaign ~path:(Persist.campaign_shard_path ~dir (stop_after - 1)) in
  last := Span.now_ns ();
  Span.Samples.add loads (!last - t);
  let result = Campaign.run ~jobs ~on_shard ~resume:ck spec in
  Span.seconds_between t0 (Span.now_ns ()), result

(* Machine [index]'s shape, drawn as the campaign draws it. *)
let machine_shape (spec : Campaign.spec) index =
  let binaries = Fleet.default_population spec.Campaign.num_binaries in
  let zipf = Dist.zipf_sampler ~n:(Array.length binaries) ~s:spec.Campaign.zipf_s in
  let rng =
    Rng.create (((spec.Campaign.seed * 1_000_003) lxor (index * 2_654_435_761)) land max_int)
  in
  let platform = Topology.generations.(Dist.categorical rng Fleet.platform_mix) in
  let jobs =
    List.init spec.Campaign.jobs_per_machine (fun _ -> binaries.(Dist.discrete_sample zipf rng))
  in
  (platform, jobs, spec.Campaign.seed + (7919 * (index + 1)))

(* Every [sample_every]-th machine's first job is also recorded and
   re-driven, so the split of step time across layers follows the
   campaign's mix of binaries and platforms. *)
let sample_every = 5

(* Simulated work machine [index]'s failed attempts did before failing, as
   a share of one complete run: a crash or hang at fraction f of the run
   did f of it; a corrupt result ran to the end.  Exact, from the chaos
   schedule the campaign draws. *)
let failed_work (spec : Campaign.spec) index =
  let rec go attempt acc =
    if attempt > spec.Campaign.policy.Supervisor.max_attempts then acc
    else
      match Fault.chaos_event spec.Campaign.chaos ~machine:index ~attempt with
      | None -> acc
      | Some (Fault.Chaos_crash { at_fraction }) | Some (Fault.Chaos_hang { at_fraction; _ }) ->
        go (attempt + 1) (acc +. at_fraction)
      | Some Fault.Chaos_corrupt -> go (attempt + 1) (acc +. 1.0)
  in
  go 1 0.0

(* In-place spans of the fault-free machines, all on one domain. *)
type machines = {
  steps : Span.Samples.t;  (** Every Driver.step. *)
  step : Span.acc;  (** All jobs' steps. *)
  sampled_step : Span.acc;  (** Steps of the re-driven jobs. *)
  advance : Span.acc;
  create : Span.acc;
  mutable sampled_events : int;
  mutable wasted_ns : float;  (** Work failed attempts repeat, by machine. *)
}

(* Machine [index]'s successful attempt, Machine.run unrolled into
   Clock.advance + Driver.step with a span per call. *)
let step_machine (spec : Campaign.spec) ms index =
  let platform, profiles, seed = machine_shape spec index in
  let sampled = index mod sample_every = 0 in
  let m =
    Span.timed ms.create (fun () ->
        Machine.create ~seed ~config:spec.Campaign.config ~platform ~jobs:profiles ())
  in
  let clock = Machine.clock m in
  let drivers = List.map (fun j -> j.Machine.driver) (Machine.jobs m) in
  let work = ref 0 in
  while Clock.now clock < spec.Campaign.duration_ns do
    let dt = Float.min spec.Campaign.epoch_ns (spec.Campaign.duration_ns -. Clock.now clock) in
    let t0 = Span.now_ns () in
    Clock.advance clock dt;
    let t1 = Span.now_ns () in
    Span.add ms.advance ~ns:(t1 - t0) ~words:0;
    work := !work + (t1 - t0);
    List.iteri
      (fun k d ->
        let t0 = Span.now_ns () in
        Driver.step d ~dt;
        let t1 = Span.now_ns () in
        Span.Samples.add ms.steps (t1 - t0);
        Span.add ms.step ~ns:(t1 - t0) ~words:0;
        work := !work + (t1 - t0);
        if sampled && k = 0 then Span.add ms.sampled_step ~ns:(t1 - t0) ~words:0)
      drivers
  done;
  ms.wasted_ns <- ms.wasted_ns +. (float_of_int !work *. failed_work spec index);
  (if sampled then
     let tel = Backend.telemetry (List.hd (Machine.jobs m)).Machine.backend in
     ms.sampled_events <- ms.sampled_events + Telemetry.alloc_count tel + Telemetry.free_count tel);
  if sampled then Some (platform, List.hd profiles, seed) else None

let run (s : settings) =
  let dir = Filename.concat s.work_dir "campaign" in
  let spec = spec_of_seed s.seed in
  let setup_s, () =
    repeat_setup setups (fun () ->
        let spec = spec_of_seed s.seed in
        Campaign.validate_spec spec;
        ignore (Sys.opaque_identity (Campaign.spec_digest spec));
        let binaries = Fleet.default_population spec.Campaign.num_binaries in
        ignore (Dist.zipf_sampler ~n:(Array.length binaries) ~s:spec.Campaign.zipf_s);
        ignore (Parallel.map ~jobs (fun i -> i) [| 0; 1 |]))
  in
  let untraced_seconds = if s.traced then s.seconds /. 2.0 else s.seconds in
  let gc0 = Span.gc_now () in
  let rs = rounds ~seconds:untraced_seconds (fun _ -> round ~spec ~dir) in
  let gc = Span.gc_diff gc0 (Span.gc_now ()) in
  let host_rss = Host.vm_hwm_mib () in
  let untraced_eps = Span.median (List.map eps rs) in
  let r0 = (List.hd rs).result in
  let rendered = Campaign.render_aggregate r0.Campaign.r_aggregate in
  let fault_free =
    Campaign.render_aggregate
      (Campaign.run ~jobs { spec with Campaign.chaos = Fault.no_chaos }).Campaign.r_aggregate
  in
  let digest = Digest.to_hex (Digest.string rendered) in
  let same = Checks.aggregate_equal "resumed chaos aggregate equals the fault-free aggregate" in
  let quarantined = List.length r0.Campaign.r_quarantined in
  let checks =
    [
      expect "no machine is quarantined" (quarantined = 0)
        (Printf.sprintf "%d quarantined of %d" quarantined machines);
      expect "the first invocation stopped partway"
        (List.for_all (fun r -> r.paused) rs)
        (Printf.sprintf "after %d of %d shards" stop_after (machines / shard_size));
      same ~expected:fault_free ~actual:rendered;
      expect "every round aggregates identically"
        (List.for_all
           (fun r -> Campaign.render_aggregate r.result.Campaign.r_aggregate = rendered)
           rs)
        (Printf.sprintf "%d rounds" (List.length rs));
    ]
    @ Checks.reference ~workload:"campaign" ~seed:s.seed ~actual:digest
    @ [
        Checks.fires "aggregate check on an altered aggregate line"
          (same ~expected:fault_free ~actual:(Checks.alter_line rendered));
      ]
  in
  let agg = r0.Campaign.r_aggregate in
  let e2e =
    [
      ("setup_s", setup_s);
      ("events_per_s", untraced_eps);
      ("host_rss_peak_mb", host_rss);
      ( "sim_rss_mb",
        mib (agg.Campaign.a_avg_rss_bytes /. float_of_int (max 1 agg.Campaign.a_jobs)) );
      ("sim_alloc_ns_per_op", agg.Campaign.a_malloc_ns /. float_of_int (events r0));
    ]
  in
  let stats = r0.Campaign.r_stats in
  let base =
    {
      workload = "campaign";
      digest;
      checks;
      attempted = machines * List.length rs;
      failed = quarantined * List.length rs;
      metrics = e2e;
      breakdown = [];
      notes =
        [
          Printf.sprintf
            "%d untraced rounds of %d machines (%d attempts: %d crashes, %d stragglers, %d \
             corrupt), %d events each"
            (List.length rs) machines stats.Campaign.st_attempts stats.Campaign.st_crashes
            stats.Campaign.st_stragglers stats.Campaign.st_corruptions (events r0);
        ];
    }
  in
  if not s.traced then base
  else begin
    let shards = Span.Samples.create ()
    and saves = Span.Samples.create ()
    and loads = Span.Samples.create () in
    let traced =
      rounds ~min_rounds:1 ~seconds:(s.seconds /. 2.0) (fun _ ->
          round_traced ~spec ~dir ~shards ~saves ~loads)
    in
    let traced_eps =
      Span.median (List.map (fun (wall, r) -> float_of_int (events r) /. wall) traced)
    in
    (* The jobs=1 side of the parallel speed-up: the same round on one domain. *)
    fresh_dir dir;
    let t0 = Span.now_ns () in
    ignore (Persist.run_campaign ~jobs:1 ~resume_dir:dir ~max_shards:stop_after spec);
    ignore (Persist.run_campaign ~jobs:1 ~resume_dir:dir spec);
    let jobs1_s = Span.seconds_between t0 (Span.now_ns ()) in
    let jobs2_s = Span.median (List.map (fun r -> r.wall_s) rs) in
    let speedup = jobs1_s /. jobs2_s in
    (* The campaign's useful machine work, in place on one domain: every
       machine's successful attempt stepped with spans, and the first job
       of every [sample_every]-th machine recorded and re-driven. *)
    let ms =
      {
        steps = Span.Samples.create ();
        step = Span.acc ();
        sampled_step = Span.acc ();
        advance = Span.acc ();
        create = Span.acc ();
        sampled_events = 0;
        wasted_ns = 0.0;
      }
    in
    let all = Redrive.accs () and scratch = Redrive.accs () in
    let calls = Redrive.accs () and calls_scratch = Redrive.accs () in
    let replay_s = ref 0.0 in
    let fidelity = ref [] in
    for index = 0 to machines - 1 do
      match step_machine spec ms index with
      | None -> ()
      | Some (platform, profile, seed) ->
        let path = Filename.concat s.work_dir (Printf.sprintf "campaign-m%d.wtrace" index) in
        let config = spec.Campaign.config in
        let d =
          Writer.with_file path (fun writer ->
              Recorder.record_app ~seed ~config ~platform ~epoch_ns:spec.Campaign.epoch_ns
                ~duration_ns:spec.Campaign.duration_ns ~writer profile)
        in
        let stream = Redrive.load path in
        let generator = { Redrive.profile; rng = Rng.create (seed lxor 0x5eed) } in
        let rebuilt =
          Redrive.layers ~generator ~config ~topology:platform ~all ~window:scratch stream
        in
        let rebuilt_calls =
          Redrive.calls ~config ~topology:platform ~all:calls ~window:calls_scratch stream
        in
        let recorded = Backend.heap_stats (Driver.backend d) in
        let check what actual =
          Checks.heap_stats_equal
            (Printf.sprintf "re-driven %s of machine %d job 0 reach the recorded heap_stats" what
               index)
            ~expected:recorded ~actual:(Backend.heap_stats actual)
        in
        fidelity := check "calls" rebuilt_calls :: check "layers" rebuilt :: !fidelity;
        let events = Replay.preload path in
        let t0 = Span.now_ns () in
        ignore (Replay.run_preloaded ~config ~topology:platform events);
        replay_s := !replay_s +. Span.seconds_between t0 (Span.now_ns ());
        Sys.remove path
    done;
    (* Split the measured step total across layers in the proportions the
       re-driven jobs show. *)
    let ev = float_of_int all.Redrive.events in
    let profile_ns = Span.total_ns all.Redrive.profile /. ev in
    let calendar_ns = Redrive.calendar_ns all /. ev in
    let backend_call_ns = Redrive.backend_call_ns all /. ev in
    let sampled_step_ns = Span.total_ns ms.sampled_step /. float_of_int ms.sampled_events in
    let driver_self = sampled_step_ns -. profile_ns -. calendar_ns -. backend_call_ns in
    let n = float_of_int (events r0) in
    let j = float_of_int jobs in
    let step_total = Span.total_ns ms.step in
    let share v = step_total *. v /. sampled_step_ns /. n /. j in
    let useful_ns = step_total +. Span.total_ns ms.advance in
    let create_total = Span.mean_ns ms.create *. float_of_int stats.Campaign.st_attempts in
    let cpu_ns = useful_ns +. create_total +. ms.wasted_ns in
    let traced_rounds = float_of_int (List.length traced) in
    let shard_wall = Span.Samples.total shards /. traced_rounds in
    let persist_ns = (Span.Samples.total saves +. Span.Samples.total loads) /. traced_rounds in
    let useful = float_of_int r0.Campaign.r_aggregate.Campaign.a_machines in
    let attempts = float_of_int stats.Campaign.st_attempts in
    let wasted_share =
      (stats.Campaign.st_sim_ns -. (useful *. spec.Campaign.duration_ns)) /. stats.Campaign.st_sim_ns
    in
    let breakdown, whole =
      attribute ~untraced_eps ~traced_eps
        [
          ("Driver (self) / jobs", share driver_self);
          ("Profile / jobs", share profile_ns);
          ("Calendar / jobs", share calendar_ns);
          ("Backend calls / jobs", share backend_call_ns);
          ("Backend background (Clock.advance) / jobs", Span.total_ns ms.advance /. n /. j);
          ("Machine.create / jobs", create_total /. n /. j);
          ("Failed attempts (Supervisor) / jobs", ms.wasted_ns /. n /. j);
          ("Parallel idle", (shard_wall -. (cpu_ns /. j)) /. n);
          ("Persist (campaign shards)", persist_ns /. n);
        ]
    in
    let sorted_shards = Span.Samples.sorted shards in
    let attempted = float_of_int (events r0 * List.length rs) in
    let per_layer =
      step_metrics ms.steps
      @ [
        ("workload.driver.self_ns_per_event", driver_self);
        ("workload.profile.ns_per_alloc", Span.mean_ns all.Redrive.profile);
        ("substrate.calendar.ns_per_op", Redrive.calendar_ns_per_op all);
        ("substrate.calendar.minor_words_per_op", Redrive.calendar_words_per_op all);
        ("substrate.calendar.peak_len", float_of_int all.Redrive.cal_peak);
        ("tcmalloc.per_cpu_cache.hit_ratio", Redrive.per_cpu_hit_ratio calls);
        ( "backend.reconstruction_error",
          (Redrive.predicted_backend_ns ~layers:all ~calls /. (!replay_s *. 1e9)) -. 1.0 );
        ("persist.save_campaign_ms", Span.Samples.median saves /. 1e6);
        ("persist.load_campaign_ms", Span.Samples.median loads /. 1e6);
        ("fleet.campaign.shard_s_p50", Span.Samples.median shards /. 1e9);
        ("fleet.campaign.shard_s_max", float_of_int (Span.Samples.max sorted_shards) /. 1e9);
        ("substrate.supervisor.useful_attempt_ratio", useful /. attempts);
        ("substrate.supervisor.wasted_sim_share", wasted_share);
        ("substrate.parallel.speedup", speedup);
        ("substrate.parallel.busy_share", speedup /. j);
      ]
      @ gc_metrics gc ~events:attempted
      @ whole
      @ Redrive.backend_metrics ~kind:"tcmalloc" ~layers:all ~calls
    in
    {
      base with
      checks = base.checks @ List.rev !fidelity;
      metrics = per_layer;
      breakdown;
      notes =
        base.notes
        @ [
            Printf.sprintf
              "%d traced rounds; jobs=1 round %.2f s; %d machines stepped in place, every \
               %dth re-driven (%d events)"
              (List.length traced) jobs1_s machines sample_every all.Redrive.events;
          ];
    }
  end
