open Wsc_substrate
module Backend = Wsc_backend.Backend
module Telemetry = Wsc_tcmalloc.Telemetry
module Audit = Wsc_tcmalloc.Audit
module Sched = Wsc_os.Sched
module Fault = Wsc_os.Fault

type probe = {
  on_alloc : addr:int -> size:int -> cpu:int -> unit;
  on_free : addr:int -> cpu:int -> unit;
  on_advance : dt_ns:float -> unit;
  on_retire : cpu:int -> flush:bool -> unit;
}

type t = {
  profile : Profile.t;
  sched : Sched.t;
  backend : Backend.t;
  clock : Clock.t;
  rng : Rng.t;
  (* Pending frees as (free_time, addr, size, thread) in an int-payload
     calendar queue: no per-event record, no per-drain list, O(1) amortized
     push/pop. *)
  pending_frees : Calendar.t;
  mutable active_threads : int;
  (* CPUs the pool currently occupies, ascending in [active_cpus.(0 ..
     n_active_cpus-1)]; [cpu_mark] is the dedup/membership scratch that
     keeps recomputation allocation-free. *)
  mutable active_cpus : int array;
  mutable n_active_cpus : int;
  mutable cpu_mark : bool array;
  (* Thread slots hold OS thread identities; a slot vacated by a pool
     shrink gets a *fresh* thread id when the pool regrows (thread pools
     kill and respawn workers), which is what strands per-thread caches.
     Each id is boxed once, when its slot gets it, so passing it to
     [Backend.malloc ?thread] allocates nothing per event. *)
  mutable thread_ids : int option array;
  mutable next_thread_id : int;
  mutable requests : float;
  mutable allocs : int;
  mutable started : bool;
  mutable lifetime_countdown : int;
  (* Telemetry time series in parallel unboxed arrays (one slot per kept
     control-plane tick).  With [series_cap > 0], hitting the cap halves
     the series in place and doubles [series_stride], so memory stays
     bounded on arbitrarily long runs while the samples remain evenly
     spaced; the simulation itself is unaffected. *)
  series_cap : int;
  mutable series_stride : int;
  mutable series_tick : int;
  thread_times : Fvec.t;
  thread_values : Int_stack.t;
  mutable next_thread_update : float;
  mutable rss_stats : Stats.Running.t;
  mutable frag_stats : Stats.Running.t;
  mutable coverage_stats : Stats.Running.t;
  mutable next_coverage_sample : float;
  mutable peak_rss : int;
  mutable malloc_ns_at_reset : float;
  faults : Fault.t option;
  (* Mutable so checkpointing can detach it: probes may capture
     unmarshalable resources (a trace writer's output channel). *)
  mutable probe : probe option;
  audit_interval_ns : float option;
  mutable next_audit : float;
  audit_reports : Audit.report Vec.t;
  (* Preallocated pending-free drain callback (captures [t] once). *)
  mutable on_free : a:int -> b:int -> c:int -> unit;
}

let lifetime_sample_every = 64

let record_lifetime_sample t ~size ~lifetime =
  t.lifetime_countdown <- t.lifetime_countdown - 1;
  (* Large objects are rare but carry the interesting lifetime tail
     (Fig. 8's >1 GiB rows); record all of them, and every k-th small one. *)
  if t.lifetime_countdown <= 0 || size >= 1_048_576 then begin
    if t.lifetime_countdown <= 0 then t.lifetime_countdown <- lifetime_sample_every;
    Telemetry.record_lifetime (Backend.telemetry t.backend) ~size ~lifetime_ns:lifetime
  end

let execute_free t ~addr ~size ~thread =
  let cross = Rng.bernoulli t.rng t.profile.Profile.cross_thread_free_fraction in
  let thread = if cross then Rng.int t.rng t.active_threads else thread mod t.active_threads in
  let cpu = Sched.cpu_of_thread t.sched ~thread in
  Backend.free ?thread:t.thread_ids.(thread) t.backend ~cpu addr ~size;
  match t.probe with Some p -> p.on_free ~addr ~cpu | None -> ()

let job_sched platform ~first_cpu profile =
  let cpus =
    Int.min (Wsc_hw.Topology.num_cpus platform) profile.Profile.threads.Threads.max_threads
  in
  (* Services whose ceiling exceeds half an LLC domain get spread across
     domains by the scheduler (Sec. 4.2: applications span cache domains
     because they are too large to fit or be scheduled within one). *)
  let domains = Int.max 1 (Int.min 4 (cpus / 4)) in
  if domains > 1 && Wsc_hw.Topology.num_domains platform > 1 then
    Sched.spread platform ~first_cpu ~cpus ~domains
  else Sched.slice platform ~first_cpu ~cpus

let create ?(seed = 1) ?(series_cap = 0) ?faults ?probe
    ?audit_interval_ns ~profile ~sched ~backend ~clock () =
  let num_cpus = Wsc_hw.Topology.num_cpus (Backend.topology backend) in
  let t =
    {
      profile;
      sched;
      backend;
      clock;
      rng = Rng.create seed;
      pending_frees = Calendar.create ();
      active_threads = 1;
      active_cpus = Array.make (Int.max 1 num_cpus) 0;
      n_active_cpus = 0;
      cpu_mark = Array.make (Int.max 1 num_cpus) false;
      thread_ids = [| Some 0 |];
      next_thread_id = 1;
      requests = 0.0;
      allocs = 0;
      started = false;
      lifetime_countdown = lifetime_sample_every;
      series_cap;
      series_stride = 1;
      series_tick = 0;
      thread_times = Fvec.create ();
      thread_values = Int_stack.create ();
      next_thread_update = 0.0;
      rss_stats = Stats.Running.create ();
      frag_stats = Stats.Running.create ();
      coverage_stats = Stats.Running.create ();
      next_coverage_sample = 0.0;
      peak_rss = 0;
      malloc_ns_at_reset = 0.0;
      faults;
      probe;
      audit_interval_ns;
      next_audit = 0.0;
      audit_reports = Vec.create ();
      on_free = (fun ~a:_ ~b:_ ~c:_ -> ());
    }
  in
  t.on_free <- (fun ~a ~b ~c -> execute_free t ~addr:a ~size:b ~thread:c);
  t

let ensure_mark t cpu =
  let n = Array.length t.cpu_mark in
  if cpu >= n then begin
    let bigger_mark = Array.make (Int.max (cpu + 1) (2 * n)) false in
    Array.blit t.cpu_mark 0 bigger_mark 0 n;
    t.cpu_mark <- bigger_mark;
    let bigger = Array.make (Array.length bigger_mark) 0 in
    Array.blit t.active_cpus 0 bigger 0 (Array.length t.active_cpus);
    t.active_cpus <- bigger
  end

(* Recompute the occupied-CPU set for [n_threads] workers: mark, retire
   vCPUs for cores no longer touched, then sweep the marks in id order so
   [active_cpus] stays ascending (the order the old IntSet computation
   produced). *)
let update_cpus t n_threads =
  for thread = 0 to n_threads - 1 do
    let cpu = Sched.cpu_of_thread t.sched ~thread in
    ensure_mark t cpu;
    t.cpu_mark.(cpu) <- true
  done;
  for i = 0 to t.n_active_cpus - 1 do
    let cpu = t.active_cpus.(i) in
    if not t.cpu_mark.(cpu) then begin
      Backend.cpu_idle t.backend ~cpu;
      match t.probe with Some p -> p.on_retire ~cpu ~flush:false | None -> ()
    end
  done;
  let k = ref 0 in
  for cpu = 0 to Array.length t.cpu_mark - 1 do
    if t.cpu_mark.(cpu) then begin
      t.active_cpus.(!k) <- cpu;
      incr k;
      t.cpu_mark.(cpu) <- false
    end
  done;
  t.n_active_cpus <- !k

(* Worker pools resize on control-plane timescales, not per epoch. *)
let thread_update_interval = 0.25 *. Units.sec

let record_series t ~now =
  t.series_tick <- t.series_tick + 1;
  if t.series_tick mod t.series_stride = 0 then begin
    Fvec.push t.thread_times now;
    Int_stack.push t.thread_values t.active_threads;
    if t.series_cap > 0 && Fvec.length t.thread_times >= t.series_cap then begin
      (* At the cap: keep every other sample in place and double the
         recording stride. *)
      let n = Fvec.length t.thread_times in
      let k = ref 0 in
      let i = ref 0 in
      while !i < n do
        Fvec.set t.thread_times !k (Fvec.get t.thread_times !i);
        Int_stack.set t.thread_values !k (Int_stack.get t.thread_values !i);
        incr k;
        i := !i + 2
      done;
      Fvec.truncate t.thread_times !k;
      Int_stack.truncate t.thread_values !k;
      t.series_stride <- t.series_stride * 2
    end
  end

let update_threads t ~now =
  if now < t.next_thread_update && t.n_active_cpus > 0 then ()
  else begin
    t.next_thread_update <- now +. thread_update_interval;
    let n = Threads.count t.profile.Profile.threads t.rng ~now in
    if n <> t.active_threads || t.n_active_cpus = 0 then begin
      if n > Array.length t.thread_ids then begin
        let old = t.thread_ids in
        t.thread_ids <- Array.make n None;
        Array.blit old 0 t.thread_ids 0 (Array.length old);
        for slot = Array.length old to n - 1 do
          t.thread_ids.(slot) <- Some t.next_thread_id;
          t.next_thread_id <- t.next_thread_id + 1
        done
      end
      else if n > t.active_threads then
        (* Regrown slots within the array get fresh worker identities. *)
        for slot = t.active_threads to n - 1 do
          t.thread_ids.(slot) <- Some t.next_thread_id;
          t.next_thread_id <- t.next_thread_id + 1
        done;
      t.active_threads <- n;
      update_cpus t n
    end;
    record_series t ~now
  end

(* Issue one tick's allocations as a batch: the drift factor (a [sin] of
   the tick clock), the probe presence check, and the schedule/profile
   field loads are hoisted out of the per-event loop. *)
let allocate_batch t ~now n =
  let drift = Profile.size_drift_factor t.profile ~now in
  let profile = t.profile and rng = t.rng and backend = t.backend in
  (match t.probe with
  | None ->
    for _ = 1 to n do
      let thread = Rng.int rng t.active_threads in
      let cpu = Sched.cpu_of_thread t.sched ~thread in
      let size = Profile.sample_size_drifted profile rng ~drift in
      let addr = Backend.malloc ?thread:t.thread_ids.(thread) backend ~cpu ~size in
      let lifetime = Profile.sample_lifetime profile rng ~size in
      record_lifetime_sample t ~size ~lifetime;
      Calendar.push t.pending_frees (now +. lifetime) ~a:addr ~b:size ~c:thread
    done
  | Some probe ->
    for _ = 1 to n do
      let thread = Rng.int rng t.active_threads in
      let cpu = Sched.cpu_of_thread t.sched ~thread in
      let size = Profile.sample_size_drifted profile rng ~drift in
      let addr = Backend.malloc ?thread:t.thread_ids.(thread) backend ~cpu ~size in
      probe.on_alloc ~addr ~size ~cpu;
      let lifetime = Profile.sample_lifetime profile rng ~size in
      record_lifetime_sample t ~size ~lifetime;
      Calendar.push t.pending_frees (now +. lifetime) ~a:addr ~b:size ~c:thread
    done);
  t.allocs <- t.allocs + n

let startup_burst t =
  (* Startup allocations live "forever": model them with a free time far
     beyond any simulation horizon so they pin memory like SPEC's
     allocate-once working sets. *)
  let far_future = 1e18 in
  for _ = 1 to t.profile.Profile.startup_burst_allocs do
    let thread = Rng.int t.rng t.active_threads in
    let cpu = Sched.cpu_of_thread t.sched ~thread in
    let size = Profile.sample_size t.profile t.rng in
    let addr = Backend.malloc ?thread:t.thread_ids.(thread) t.backend ~cpu ~size in
    (match t.probe with Some p -> p.on_alloc ~addr ~size ~cpu | None -> ());
    record_lifetime_sample t ~size ~lifetime:far_future;
    Calendar.push t.pending_frees far_future ~a:addr ~b:size ~c:thread;
    t.allocs <- t.allocs + 1
  done

(* Hugepage coverage requires a full pageheap walk; sample it coarsely. *)
let coverage_sample_interval = 0.5 *. Units.sec

let observe_memory t ~now =
  let rss = Backend.resident_bytes t.backend in
  Stats.Running.add t.rss_stats (float_of_int rss);
  if rss > t.peak_rss then t.peak_rss <- rss;
  Stats.Running.add t.frag_stats (Backend.live_fragmentation_ratio t.backend);
  if now >= t.next_coverage_sample then begin
    t.next_coverage_sample <- now +. coverage_sample_interval;
    Stats.Running.add t.coverage_stats (Backend.hugepage_coverage t.backend)
  end

let step t ~dt =
  let now = Clock.now t.clock in
  (match t.probe with Some p -> p.on_advance ~dt_ns:dt | None -> ());
  (* CPU-churn burst: the scheduler migrated this process, every active
     vCPU retires (dense ids become reusable) and the next thread update
     re-acquires CPUs.  Each retired cache is flushed to the transfer
     cache as it goes — the pre-flush model silently orphaned those
     objects in caches nothing indexed anymore. *)
  (match t.faults with
  | Some f when Fault.churn_due f ~now ->
    for i = 0 to t.n_active_cpus - 1 do
      let cpu = t.active_cpus.(i) in
      Backend.cpu_idle ~flush:true t.backend ~cpu;
      match t.probe with Some p -> p.on_retire ~cpu ~flush:true | None -> ()
    done;
    t.n_active_cpus <- 0;
    t.next_thread_update <- now
  | Some _ | None -> ());
  update_threads t ~now;
  if not t.started then begin
    t.started <- true;
    if t.profile.Profile.startup_burst_allocs > 0 then startup_burst t
  end;
  (* Retire frees that came due during this epoch (frees never push new
     events, so in-place draining is safe). *)
  Calendar.drain_payloads t.pending_frees now t.on_free;
  (* Issue the epoch's allocations. *)
  let rate =
    t.profile.Profile.requests_per_thread_per_sec
    *. t.profile.Profile.allocs_per_request
    *. float_of_int t.active_threads
  in
  let expected = rate *. dt /. Units.sec in
  let n =
    let whole = int_of_float expected in
    whole + (if Rng.bernoulli t.rng (expected -. float_of_int whole) then 1 else 0)
  in
  allocate_batch t ~now n;
  t.requests <- t.requests +. (float_of_int n /. t.profile.Profile.allocs_per_request);
  observe_memory t ~now;
  match t.audit_interval_ns with
  | Some interval when now >= t.next_audit ->
    t.next_audit <- now +. interval;
    Vec.push t.audit_reports (Backend.audit t.backend)
  | Some _ | None -> ()

let run t ~duration_ns ~epoch_ns =
  let until = Clock.now t.clock +. duration_ns in
  while Clock.now t.clock < until do
    let dt = Float.min epoch_ns (until -. Clock.now t.clock) in
    Clock.advance t.clock dt;
    step t ~dt
  done

let requests_completed t = t.requests
let allocations t = t.allocs
let live_objects t = Calendar.length t.pending_frees

let thread_series t =
  let out = ref [] in
  for i = Fvec.length t.thread_times - 1 downto 0 do
    out := (Fvec.get t.thread_times i, Int_stack.get t.thread_values i) :: !out
  done;
  !out

let series_samples t = Fvec.length t.thread_times
let series_stride t = t.series_stride
let avg_rss_bytes t = Stats.Running.mean t.rss_stats
let peak_rss_bytes t = t.peak_rss
let avg_fragmentation_ratio t = Stats.Running.mean t.frag_stats

let avg_hugepage_coverage t =
  if Stats.Running.count t.coverage_stats = 0 then Backend.hugepage_coverage t.backend
  else Stats.Running.mean t.coverage_stats
let profile t = t.profile
let backend t = t.backend
let faults t = t.faults
let audit_reports t = Vec.to_list t.audit_reports

let audit_violations t =
  Vec.fold t.audit_reports 0 (fun acc r -> acc + List.length r.Audit.violations)

let reset_measurements t =
  t.requests <- 0.0;
  t.rss_stats <- Stats.Running.create ();
  t.frag_stats <- Stats.Running.create ();
  t.coverage_stats <- Stats.Running.create ();
  t.peak_rss <- 0;
  Telemetry.mark (Backend.telemetry t.backend);
  t.malloc_ns_at_reset <- Telemetry.total_malloc_ns (Backend.telemetry t.backend)

let measured_malloc_ns t =
  Telemetry.total_malloc_ns (Backend.telemetry t.backend) -. t.malloc_ns_at_reset

let drain t = Calendar.drain_payloads t.pending_frees infinity t.on_free

(* --- Warm-state checkpointing ----------------------------------------- *)

let with_probe_detached t f =
  let saved = t.probe in
  t.probe <- None;
  Fun.protect ~finally:(fun () -> t.probe <- saved) f

let checkpoint t =
  with_probe_detached t (fun () -> Marshal.to_string t [ Marshal.Closures ])

let resume blob : t = Marshal.from_string blob 0
