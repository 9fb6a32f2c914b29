open Wsc_substrate
module Topology = Wsc_hw.Topology
module Sched = Wsc_os.Sched
module Malloc = Wsc_tcmalloc.Malloc
module Backend = Wsc_backend.Backend
module Driver = Wsc_workload.Driver
module Profile = Wsc_workload.Profile

module Fault = Wsc_os.Fault
module Vm = Wsc_os.Vm
module Rseq = Wsc_os.Rseq
module Telemetry = Wsc_tcmalloc.Telemetry
module Productivity = Wsc_hw.Productivity

type job = {
  profile : Profile.t;
  driver : Driver.t;
  backend : Backend.t;
  fault : Fault.t option;
}

type t = {
  platform : Topology.t;
  clock : Clock.t;
  jobs : job list;
}

let create ?(seed = 1) ?(config = Wsc_tcmalloc.Config.baseline) ?soft_limit_bytes
    ?hard_limit_bytes ?faults ?rseq ?audit_interval_ns ~platform ~jobs () =
  let clock = Clock.create () in
  let next_cpu = ref 0 in
  let make index profile =
    let sched = Driver.job_sched platform ~first_cpu:!next_cpu profile in
    next_cpu := (!next_cpu + Sched.quota_size sched) mod Topology.num_cpus platform;
    let rseq = Option.map (fun rc -> Rseq.create ~index rc) rseq in
    let backend = Backend.create ~config ?rseq ~topology:platform ~clock () in
    let vm = Backend.vm backend in
    (match soft_limit_bytes with Some b -> Vm.set_soft_limit vm (Some b) | None -> ());
    (match hard_limit_bytes with Some b -> Vm.set_hard_limit vm (Some b) | None -> ());
    let fault =
      match faults with
      | None -> None
      | Some fault_config ->
        let f = Fault.create ~index ~clock fault_config in
        Fault.install f ~vm;
        Some f
    in
    let driver =
      Driver.create ~seed:(seed + (1000 * index)) ?faults:fault ?audit_interval_ns
        ~profile ~sched ~backend ~clock ()
    in
    { profile; driver; backend; fault }
  in
  { platform; clock; jobs = List.mapi make jobs }

let step t ~dt = List.iter (fun job -> Driver.step job.driver ~dt) t.jobs

let run t ~duration_ns ~epoch_ns =
  let until = Clock.now t.clock +. duration_ns in
  while Clock.now t.clock < until do
    let dt = Float.min epoch_ns (until -. Clock.now t.clock) in
    Clock.advance t.clock dt;
    step t ~dt
  done

let platform t = t.platform
let jobs t = t.jobs
let clock t = t.clock

let total_rss t =
  List.fold_left
    (fun acc job ->
      acc + (Backend.heap_stats job.backend).Malloc.resident_bytes)
    0 t.jobs

(* --- Result summaries -------------------------------------------------- *)

type job_summary = {
  js_profile : string;
  js_requests : float;
  js_allocations : int;
  js_frees : int;
  js_live_objects : int;
  js_heap : Malloc.heap_stats;
  js_malloc_ns : float;
  js_cpu_ns : float;
  js_allocated_bytes : float;
  js_avg_rss_bytes : float;
  js_hugepage_coverage : float;
  js_size_count : Histogram.t;
  js_size_bytes : Histogram.t;
}

type summary = { sm_now_ns : float; sm_jobs : job_summary list; sm_digest : string }

let summary_digest_of ~now_ns jobs =
  (* Closure-free marshal: the digest survives the Persist container and
     stays comparable across processes of the same binary. *)
  Digest.string (Marshal.to_string (now_ns, jobs) [])

let job_summary (job : job) =
  let profile = job.profile in
  let tel = Backend.telemetry job.backend in
  let requests = Driver.requests_completed job.driver in
  let cpi = Productivity.baseline_cpi profile.Profile.productivity in
  {
    js_profile = profile.Profile.name;
    js_requests = requests;
    js_allocations = Telemetry.alloc_count tel;
    js_frees = Telemetry.free_count tel;
    js_live_objects = Driver.live_objects job.driver;
    js_heap = Backend.heap_stats job.backend;
    js_malloc_ns = Driver.measured_malloc_ns job.driver;
    js_cpu_ns =
      requests
      *. profile.Profile.productivity.Productivity.instructions_per_request
      *. cpi /. 3.0;
    js_allocated_bytes = Histogram.total_weight (Telemetry.size_histogram_bytes tel);
    js_avg_rss_bytes = Driver.avg_rss_bytes job.driver;
    js_hugepage_coverage = Driver.avg_hugepage_coverage job.driver;
    js_size_count = Telemetry.size_histogram_count tel;
    js_size_bytes = Telemetry.size_histogram_bytes tel;
  }

let summary t =
  let now_ns = Clock.now t.clock in
  let jobs = List.map job_summary t.jobs in
  { sm_now_ns = now_ns; sm_jobs = jobs; sm_digest = summary_digest_of ~now_ns jobs }

let summary_valid s = s.sm_digest = summary_digest_of ~now_ns:s.sm_now_ns s.sm_jobs

(* --- Warm-state checkpointing ----------------------------------------- *)

(* One Marshal-with-closures blob of the whole machine keeps the sharing
   that matters: all jobs reference the one clock (and their tickers on
   it), so co-located background activity resumes in the same interleaved
   order.  Probes are detached for the duration of the marshal — they may
   hold output channels — and reattached before returning. *)
let checkpoint t =
  let rec detached jobs k =
    match jobs with
    | [] -> k ()
    | job :: rest -> Driver.with_probe_detached job.driver (fun () -> detached rest k)
  in
  detached t.jobs (fun () -> Marshal.to_string t [ Marshal.Closures ])

let resume blob : t = Marshal.from_string blob 0
