open Wsc_substrate
module Cost_model = Wsc_hw.Cost_model
module Topology = Wsc_hw.Topology
module Vm = Wsc_os.Vm
module Vcpu = Wsc_os.Vcpu
module Rseq = Wsc_os.Rseq

type addr = int

type t = {
  config : Config.t;
  topology : Topology.t;
  clock : Clock.t;
  vm : Vm.t;
  vcpus : Vcpu.t;
  pcc : Per_cpu_cache.t;
  tc : Transfer_cache.t;
  cfl : Central_free_list.t;
  pageheap : Pageheap.t;
  sampler : Sampler.t;
  telemetry : Telemetry.t;
  span_stats : Span_stats.t option;  (* only when span snapshots were asked for *)
  mutable vcpu_domain : int array;  (* vcpu -> LLC domain of its physical CPU *)
  (* Preemption injector; None runs the fast path atomically (pre-rseq). *)
  rseq : Rseq.t option;
  (* vCPU ids retired with a still-populated cache, awaiting the background
     stranded-cache reclaim pass (cleared on reuse or drain). *)
  stranded_pending : (int, unit) Hashtbl.t;
  (* Scratch for the cache-miss batch paths (refill and batch flush) and
     the rseq free fallback: whole batches move through this preallocated
     buffer.  Sized for the largest per-class batch. *)
  batch_buf : int array;
  tc_stats : Transfer_cache.remove_stats;
}

let page_size = Units.tcmalloc_page_size

let max_batch =
  let m = ref 1 in
  for cls = 0 to Size_class.count - 1 do
    m := Int.max !m (Size_class.batch cls)
  done;
  !m

let evict_to_transfer t ~now ~vcpu ~cls ~buf ~n =
  let domain = if vcpu < Array.length t.vcpu_domain then t.vcpu_domain.(vcpu) else 0 in
  ignore (Transfer_cache.insert_from t.tc ~cls ~domain ~now ~buf ~lo:0 ~hi:n)

type reclaim_outcome = {
  front_end_bytes : int;
  transfer_bytes : int;
  cfl_span_bytes : int;
  os_released_bytes : int;
}

let zero_reclaim =
  { front_end_bytes = 0; transfer_bytes = 0; cfl_span_bytes = 0; os_released_bytes = 0 }

let record_reclaim tel r =
  Telemetry.record_reclaim_event tel;
  Telemetry.record_reclaim tel Telemetry.Front_end r.front_end_bytes;
  Telemetry.record_reclaim tel Telemetry.Transfer r.transfer_bytes;
  Telemetry.record_reclaim tel Telemetry.Cfl_spans r.cfl_span_bytes;
  Telemetry.record_reclaim tel Telemetry.Os_release r.os_released_bytes

(* The graceful reclaim cascade (TCMalloc's ReleaseMemoryToSystem under
   memory-limit pressure): drain tiers in cost order — per-CPU caches, then
   the transfer cache, letting drained spans fall back to the pageheap —
   and finally hand hugepages/pages back to the OS.  The two cache-drain
   stages are skipped when the pageheap's immediately-releasable backlog
   already covers the target, so mild pressure does not trash hot caches. *)
let release_memory t ~target_bytes =
  if target_bytes <= 0 then zero_reclaim
  else begin
    let now = Clock.now t.clock in
    let cfl_before = Central_free_list.released_span_bytes t.cfl in
    let fe =
      if Pageheap.release_backlog_bytes t.pageheap >= target_bytes then 0
      else Per_cpu_cache.drain t.pcc ~evict:(evict_to_transfer t ~now)
    in
    let tr =
      if Pageheap.release_backlog_bytes t.pageheap >= target_bytes then 0
      else Transfer_cache.drain t.tc ~now
    in
    let cfl = Central_free_list.released_span_bytes t.cfl - cfl_before in
    let os = Pageheap.release_memory t.pageheap ~max_bytes:target_bytes in
    let r =
      { front_end_bytes = fe; transfer_bytes = tr; cfl_span_bytes = cfl; os_released_bytes = os }
    in
    record_reclaim t.telemetry r;
    r
  end

let remember_domain t ~vcpu ~cpu =
  let n = Array.length t.vcpu_domain in
  if vcpu >= n then begin
    let bigger = Array.make (Int.max (vcpu + 1) (2 * n)) 0 in
    Array.blit t.vcpu_domain 0 bigger 0 n;
    t.vcpu_domain <- bigger
  end;
  t.vcpu_domain.(vcpu) <- Topology.domain_of_cpu t.topology cpu

(* Front-end cache index: dense vCPU id normally; raw thread id in the
   legacy per-thread mode (footnote 2), where idle threads strand their
   caches because no other thread may touch them.  [-1] means "no thread
   id". *)
let cache_index_id t ~thread ~cpu =
  match t.config.Config.front_end with
  | Config.Per_thread_caches when thread >= 0 -> thread
  | Config.Per_thread_caches | Config.Per_cpu_caches ->
    let id = Vcpu.acquire t.vcpus ~phys_cpu:cpu in
    (* A reused id reclaims its own (warm) cache; it is no longer stranded.
       (The table is almost always empty: skip the hash.) *)
    if Hashtbl.length t.stranded_pending > 0 then Hashtbl.remove t.stranded_pending id;
    id

let create ?(config = Config.baseline) ?rseq ?span_snapshot_interval_ns ~topology ~clock () =
  let vm = Vm.create () in
  let pageheap = Pageheap.create ~config vm in
  (* Span statistics cost a table cell per span ever released; only the
     Fig. 13/16 studies, which ask for snapshots, read them. *)
  let span_stats = Option.map (fun _ -> Span_stats.create ()) span_snapshot_interval_ns in
  let cfl = Central_free_list.create ~config ?span_stats pageheap in
  let tc = Transfer_cache.create ~config ~topology cfl in
  let pcc = Per_cpu_cache.create ~config () in
  let t =
    {
      config;
      topology;
      clock;
      vm;
      vcpus = Vcpu.create ();
      pcc;
      tc;
      cfl;
      pageheap;
      sampler = Sampler.create ~period_bytes:config.Config.sample_period_bytes;
      telemetry = Telemetry.create ();
      span_stats;
      vcpu_domain = Array.make 16 0;
      rseq;
      stranded_pending = Hashtbl.create 16;
      batch_buf = Array.make max_batch 0;
      tc_stats = Transfer_cache.make_remove_stats ();
    }
  in
  if config.Config.dynamic_per_cpu_caches then begin
    let resize now = Per_cpu_cache.resize t.pcc ~evict:(evict_to_transfer t ~now) in
    Clock.every clock ~period:config.Config.resize_interval_ns resize
  end;
  let decay now = Per_cpu_cache.decay_tick t.pcc ~evict:(evict_to_transfer t ~now) in
  Clock.every clock ~period:Units.sec decay;
  (* Soft-limit watchdog: when resident + external pressure exceeds the soft
     limit, run the reclaim cascade for the excess. *)
  let soft_limit_check _now =
    let excess = Vm.soft_limit_excess t.vm in
    if excess > 0 then ignore (release_memory t ~target_bytes:excess)
  in
  Clock.every clock ~period:config.Config.soft_limit_check_interval_ns soft_limit_check;
  (* Stranded-cache reclaim: periodically drain the caches of vCPU ids that
     churn or pool shrink retired, so their contents rejoin the transfer
     cache instead of stranding until the id happens to be reused. *)
  let stranded_reclaim now =
    let pending =
      Hashtbl.fold (fun id () acc -> id :: acc) t.stranded_pending [] |> List.sort compare
    in
    List.iter
      (fun vcpu ->
        if not (Vcpu.is_id_active t.vcpus vcpu) then begin
          let bytes = Per_cpu_cache.drain_vcpu t.pcc ~vcpu ~evict:(evict_to_transfer t ~now) in
          if bytes > 0 then Telemetry.record_stranded_reclaim t.telemetry ~bytes
        end;
        Hashtbl.remove t.stranded_pending vcpu)
      pending
  in
  Clock.every clock ~period:config.Config.stranded_reclaim_interval_ns stranded_reclaim;
  let release now = Transfer_cache.release_tick t.tc ~now in
  Clock.every clock ~period:config.Config.transfer_release_interval_ns release;
  let pageheap_release _now = Pageheap.background_release t.pageheap in
  Clock.every clock ~period:config.Config.pageheap_release_interval_ns pageheap_release;
  (match span_snapshot_interval_ns with
  | None -> ()
  | Some period ->
    let snapshot now = Central_free_list.snapshot t.cfl ~now in
    Clock.every clock ~period snapshot);
  t

let charge t tier = Telemetry.charge_tier t.telemetry tier (Cost_model.tier_hit_ns tier)

(* Both sampler probes defer the clock reading to their rare hit branches,
   keeping the common per-event path free of float returns. *)
let maybe_sample t a ~size =
  if Sampler.tick t.sampler ~size then begin
    Sampler.track t.sampler a ~size ~now:(Clock.now t.clock);
    Telemetry.charge_sampled t.telemetry Cost_model.sampling_ns
  end

let record_sampled_free t a =
  if Sampler.is_tracked t.sampler a then
    match Sampler.on_free t.sampler a ~now:(Clock.now t.clock) with
    | None -> ()
    | Some (size, lifetime_ns) -> Telemetry.record_lifetime t.telemetry ~size ~lifetime_ns

let malloc_large t ~size =
  let now = Clock.now t.clock in
  let pages = (size + page_size - 1) / page_size in
  let span, mmaps = Pageheap.new_large_span t.pageheap ~pages ~now in
  charge t Cost_model.Pageheap;
  if mmaps > 0 then begin
    Telemetry.charge_tier t.telemetry Cost_model.Mmap
      (float_of_int mmaps *. Cost_model.mmap_ns);
    Telemetry.record_hit t.telemetry Cost_model.Mmap
  end
  else Telemetry.record_hit t.telemetry Cost_model.Pageheap;
  let a = Span.pop_object span in
  Telemetry.record_alloc t.telemetry ~requested:size ~rounded:(pages * page_size);
  maybe_sample t a ~size;
  a

(* Refill from the transfer cache through the preallocated scratch buffer,
   recording where the batch actually came from and the locality of reused
   objects: the batch lands in [t.batch_buf.(0) .. t.tc_stats.rs_count). *)
let refill_into t ~cls ~domain ~now =
  let batch = Size_class.batch cls in
  let stats = t.tc_stats in
  Transfer_cache.remove_into t.tc ~cls ~n:batch ~domain ~now ~buf:t.batch_buf ~stats;
  charge t Cost_model.Transfer_cache;
  for _ = 1 to stats.Transfer_cache.rs_local do
    Telemetry.record_object_reuse t.telemetry ~remote:false
  done;
  for _ = 1 to stats.Transfer_cache.rs_remote do
    Telemetry.record_object_reuse t.telemetry ~remote:true
  done;
  if stats.Transfer_cache.rs_mmaps > 0 then begin
    Telemetry.charge_tier t.telemetry Cost_model.Mmap
      (float_of_int stats.Transfer_cache.rs_mmaps *. Cost_model.mmap_ns);
    charge t Cost_model.Central_free_list;
    Cost_model.Mmap
  end
  else if stats.Transfer_cache.rs_from_cfl > 0 then begin
    charge t Cost_model.Central_free_list;
    Cost_model.Central_free_list
  end
  else Cost_model.Transfer_cache

(* Whether an operation's per-CPU step on [vcpu] runs: always without
   rseq; with it, only when the injector lets the operation commit
   (Wsc_os.Rseq.run_op).  Each restart re-runs the 3.1 ns fast path (the
   Fig. 4 restart overhead).  A fallback skips the step, so the caller
   takes its slow path, but an attempt that got past Pick_class indexed
   the vCPU's cache, so that cache is still populated.  The only [t.rseq]
   test on the per-CPU paths; inlined, so rseq-off malloc and free pay one
   test and no call. *)
let[@inline] per_cpu_commits t ~vcpu =
  match t.rseq with
  | None -> true
  | Some r ->
    let ret = Rseq.run_op r in
    let fell_back = ret < 0 in
    let restarts = if fell_back then -1 - ret else ret in
    Telemetry.record_rseq_op t.telemetry ~restarts ~fell_back;
    if restarts > 0 then
      Telemetry.charge_tier t.telemetry Cost_model.Per_cpu_cache
        (float_of_int restarts *. Cost_model.tier_hit_ns Cost_model.Per_cpu_cache);
    if fell_back && Rseq.passed_pick_class r then Per_cpu_cache.populate t.pcc ~vcpu;
    not fell_back

(* Front-end allocation miss: pull a batch from the transfer cache into the
   scratch buffer, keep the first object and offer the rest to the per-CPU
   cache.  The cache's rejected suffix returns to the transfer cache
   reversed.  Under rseq the fill is restartable; a fill whose restart
   budget runs out caches nothing, and the whole rest of the batch returns
   in order. *)
let alloc_miss t ~cpu ~vcpu ~cls =
  let now = Clock.now t.clock in
  Telemetry.record_front_end_miss t.telemetry ~vcpu;
  Telemetry.charge_other t.telemetry 0.4;
  let domain = Topology.domain_of_cpu t.topology cpu in
  let deepest = refill_into t ~cls ~domain ~now in
  Telemetry.record_hit t.telemetry deepest;
  let count = t.tc_stats.Transfer_cache.rs_count in
  if count = 0 then
    (* The central free list absorbed an mmap failure and returned
       nothing; surface it so the retry-with-reclaim loop engages. *)
    raise (Vm.Mmap_failed Vm.Transient_fault);
  let buf = t.batch_buf in
  let accepted =
    if per_cpu_commits t ~vcpu then
      Per_cpu_cache.fill_from t.pcc ~vcpu ~cls ~buf ~lo:1 ~hi:count
    else -1
  in
  if accepted < 0 then
    ignore (Transfer_cache.insert_from t.tc ~cls ~domain ~now ~buf ~lo:1 ~hi:count)
  else if 1 + accepted < count then
    ignore
      (Transfer_cache.insert_rev_from t.tc ~cls ~domain ~now ~buf ~lo:(1 + accepted)
         ~hi:count);
  buf.(0)

(* The cached small object malloc returns goes to the application: its
   span slot turns from cached to held. *)
let hand_out t a =
  let was_cached =
    match Pageheap.span_of_addr t.pageheap a with
    | Some span -> (
      match Span.mark_held span a with Span.Cached -> true | Span.Held | Span.Free -> false)
    | None -> false
  in
  if not was_cached then invalid_arg "Malloc.malloc: issued an object that was not cached"

let malloc_attempt t ~thread ~cpu ~size =
  Telemetry.charge_prefetch t.telemetry Cost_model.prefetch_ns;
  let cls = Size_class.index_of_size size in
  if cls < 0 then malloc_large t ~size
  else begin
    charge t Cost_model.Per_cpu_cache;
    let vcpu = cache_index_id t ~thread ~cpu in
    remember_domain t ~vcpu ~cpu;
    let a = if per_cpu_commits t ~vcpu then Per_cpu_cache.alloc t.pcc ~vcpu ~cls else -1 in
    let a =
      if a >= 0 then begin
        Telemetry.record_hit t.telemetry Cost_model.Per_cpu_cache;
        a
      end
      else
        (* A miss, or a restart budget that ran out: either way the front
           end yielded nothing, so take the refill slow path. *)
        alloc_miss t ~cpu ~vcpu ~cls
    in
    hand_out t a;
    Telemetry.record_alloc t.telemetry ~requested:size ~rounded:(Size_class.size cls);
    maybe_sample t a ~size;
    a
  end

(* Allocation entry point with the bounded retry-with-reclaim loop: an mmap
   failure (transient fault or hard memory limit) triggers the reclaim
   cascade and a retry; only after [reclaim_retries] exhausted attempts does
   the allocator surface [Out_of_memory]. *)
let reclaim_target t ~size = Int.max t.config.Config.reclaim_min_target_bytes (2 * size)

(* Toplevel recursion (not a local closure capturing the parameters): the
   closure would cost several minor words on every allocation. *)
let rec malloc_retry t ~thread ~cpu ~size retries_left =
  match malloc_attempt t ~thread ~cpu ~size with
  | a -> a
  | exception Vm.Mmap_failed _ ->
    ignore (release_memory t ~target_bytes:(reclaim_target t ~size));
    if retries_left > 0 then begin
      Telemetry.record_reclaim_retry t.telemetry;
      malloc_retry t ~thread ~cpu ~size (retries_left - 1)
    end
    else begin
      Telemetry.record_oom t.telemetry;
      raise Stdlib.Out_of_memory
    end

let malloc ?(thread = -1) t ~cpu ~size =
  if size <= 0 then invalid_arg "Malloc.malloc: size must be positive";
  malloc_retry t ~thread ~cpu ~size t.config.Config.reclaim_retries

let free_error ~what ~a ~size ~tier =
  invalid_arg
    (Printf.sprintf "Malloc.free: %s (addr=0x%x, size=%d, tier=%s)" what a size tier)

let free_large t a ~size =
  match Pageheap.span_of_addr t.pageheap a with
  | None -> free_error ~what:"wild pointer" ~a ~size ~tier:"page-map"
  | Some span ->
    if not (Span.is_large span) then
      free_error ~what:"size mismatch: allocation is small" ~a ~size ~tier:"page-map";
    let pages = (size + page_size - 1) / page_size in
    if pages <> span.Span.pages then
      free_error ~what:"size mismatch: wrong page count" ~a ~size ~tier:"pageheap";
    if a <> span.Span.base then
      free_error ~what:"misaligned free: interior pointer" ~a ~size ~tier:"pageheap";
    if Span.is_idle span then free_error ~what:"double free" ~a ~size ~tier:"pageheap";
    charge t Cost_model.Pageheap;
    record_sampled_free t a;
    Telemetry.record_free t.telemetry ~requested:size
      ~rounded:(span.Span.pages * page_size);
    Span.push_object span a;
    Pageheap.free_span t.pageheap span

(* Accept a small free: wild pointers, size-class mismatches, misaligned
   interior pointers, and double frees (both of objects sitting free in
   their span and of objects still cached in the per-CPU/transfer tiers)
   raise descriptive [Invalid_argument] before any state changes.  An
   accepted object's span slot goes from held to cached. *)
let accept_small_free t a ~size ~cls =
  match Pageheap.span_of_addr t.pageheap a with
  | None -> free_error ~what:"wild pointer" ~a ~size ~tier:"page-map"
  | Some span ->
    if Span.is_large span then
      free_error ~what:"size mismatch: allocation is large" ~a ~size ~tier:"page-map";
    if span.Span.size_class <> cls then
      free_error
        ~what:
          (Printf.sprintf "size mismatch: class %d given, span holds class %d" cls
             span.Span.size_class)
        ~a ~size ~tier:"central-free-list";
    if (a - span.Span.base) mod span.Span.obj_size <> 0 then
      free_error ~what:"misaligned free: interior pointer" ~a ~size ~tier:"central-free-list";
    match Span.mark_cached span a with
    | Span.Held -> ()
    | Span.Cached -> free_error ~what:"double free" ~a ~size ~tier:"front-end"
    | Span.Free -> free_error ~what:"double free" ~a ~size ~tier:"central-free-list"

(* Send [t.batch_buf.(0) .. t.batch_buf.(hi-1)] to the transfer cache,
   charging the central free list when some of it overflows there. *)
let send_to_transfer t ~cls ~domain ~now ~hi =
  charge t Cost_model.Transfer_cache;
  let overflow =
    Transfer_cache.insert_from t.tc ~cls ~domain ~now ~buf:t.batch_buf ~lo:0 ~hi
  in
  if overflow > 0 then charge t Cost_model.Central_free_list

(* Deallocation miss: flush a batch to the transfer cache, the freed object
   first and then the flushed objects, most recent first.  Under rseq the
   flush is restartable; a flush whose restart budget runs out sends only
   the freed object. *)
let dealloc_miss t ~cpu ~vcpu ~cls a =
  let now = Clock.now t.clock in
  Telemetry.record_front_end_miss t.telemetry ~vcpu;
  Telemetry.charge_other t.telemetry 0.4;
  let domain = Topology.domain_of_cpu t.topology cpu in
  let n = Size_class.batch cls - 1 in
  let buf = t.batch_buf in
  buf.(0) <- a;
  let flushed =
    if per_cpu_commits t ~vcpu then
      Per_cpu_cache.flush_batch_into t.pcc ~vcpu ~cls ~n ~buf ~pos:1
    else 0
  in
  send_to_transfer t ~cls ~domain ~now ~hi:(1 + flushed)

let free ?(thread = -1) t ~cpu a ~size =
  if size <= 0 then invalid_arg "Malloc.free: size must be positive";
  let cls = Size_class.index_of_size size in
  if cls < 0 then free_large t a ~size
  else begin
    accept_small_free t a ~size ~cls;
    charge t Cost_model.Per_cpu_cache;
    record_sampled_free t a;
    Telemetry.record_free t.telemetry ~requested:size ~rounded:(Size_class.size cls);
    let vcpu = cache_index_id t ~thread ~cpu in
    remember_domain t ~vcpu ~cpu;
    if not (per_cpu_commits t ~vcpu) then begin
      (* Restart budget exhausted before the cache accepted the object:
         bypass the front end and hand it straight to the transfer cache
         (the real allocator's slow path), without charging a front-end
         miss to the vCPU. *)
      t.batch_buf.(0) <- a;
      send_to_transfer t ~cls ~domain:(Topology.domain_of_cpu t.topology cpu)
        ~now:(Clock.now t.clock) ~hi:1
    end
    else if not (Per_cpu_cache.dealloc t.pcc ~vcpu ~cls a) then dealloc_miss t ~cpu ~vcpu ~cls a
  end

let rseq t = t.rseq

let stranded_pending_ids t =
  Hashtbl.fold (fun id () acc -> id :: acc) t.stranded_pending [] |> List.sort compare

(* A physical CPU stops running this process: retire its vCPU id.  The
   retired cache either flushes to the transfer cache right away
   ([flush:true], what churn-aware consumers of {!Wsc_os.Fault.churn_due}
   must do) or registers for the background stranded-cache reclaim pass.
   A live injector is told about the migration so the next fast-path
   attempt aborts on its stale CPU id. *)
let cpu_idle ?(flush = false) t ~cpu =
  let vcpu = Vcpu.lookup t.vcpus ~phys_cpu:cpu in
  Vcpu.release t.vcpus ~phys_cpu:cpu;
  match vcpu with
  | None -> ()
  | Some vcpu ->
    (match t.rseq with Some r -> Rseq.note_migration r | None -> ());
    if t.config.Config.front_end = Config.Per_cpu_caches then begin
      if flush then begin
        let now = Clock.now t.clock in
        let bytes = Per_cpu_cache.drain_vcpu t.pcc ~vcpu ~evict:(evict_to_transfer t ~now) in
        Hashtbl.remove t.stranded_pending vcpu;
        if bytes > 0 then Telemetry.record_stranded_reclaim t.telemetry ~bytes
      end
      else if Per_cpu_cache.used_bytes t.pcc ~vcpu > 0 then
        Hashtbl.replace t.stranded_pending vcpu ()
    end

type heap_stats = {
  live_requested_bytes : int;
  live_rounded_bytes : int;
  front_end_cached_bytes : int;
  transfer_cached_bytes : int;
  cfl_fragmented_bytes : int;
  pageheap_fragmented_bytes : int;
  internal_fragmentation_bytes : int;
  external_fragmentation_bytes : int;
  resident_bytes : int;
}

let[@inline] stats_of_tiers tel vm ~front_end ~transfer ~cfl ~pageheap =
  {
    live_requested_bytes = Telemetry.live_requested_bytes tel;
    live_rounded_bytes = Telemetry.live_rounded_bytes tel;
    front_end_cached_bytes = front_end;
    transfer_cached_bytes = transfer;
    cfl_fragmented_bytes = cfl;
    pageheap_fragmented_bytes = pageheap;
    internal_fragmentation_bytes = Telemetry.internal_fragmentation_bytes tel;
    external_fragmentation_bytes = front_end + transfer + cfl + pageheap;
    resident_bytes = Vm.resident_bytes vm;
  }

let heap_stats t =
  stats_of_tiers t.telemetry t.vm ~front_end:(Per_cpu_cache.cached_bytes t.pcc)
    ~transfer:(Transfer_cache.cached_bytes t.tc)
    ~cfl:(Central_free_list.fragmented_bytes t.cfl)
    ~pageheap:(Pageheap.fragmented_bytes t.pageheap)

let hugepage_coverage t = Pageheap.hugepage_coverage t.pageheap

(* The driver samples this every epoch: [heap_stats] would build a record
   each call, which dominated the epoch loop's allocation budget. *)
let[@inline] fragmentation_of tel ~external_bytes =
  let live = Telemetry.live_requested_bytes tel in
  if live <= 0 then 0.0
  else
    float_of_int (external_bytes + Telemetry.internal_fragmentation_bytes tel)
    /. float_of_int live

let[@inline] live_fragmentation_ratio t =
  fragmentation_of t.telemetry
    ~external_bytes:
      (Per_cpu_cache.cached_bytes t.pcc + Transfer_cache.cached_bytes t.tc
      + Central_free_list.fragmented_bytes t.cfl
      + Pageheap.fragmented_bytes t.pageheap)

let fragmentation_ratio stats =
  if stats.live_requested_bytes <= 0 then 0.0
  else begin
    let fragmented =
      stats.external_fragmentation_bytes + stats.internal_fragmentation_bytes
    in
    float_of_int fragmented /. float_of_int stats.live_requested_bytes
  end

let telemetry t = t.telemetry
let span_stats t = t.span_stats
let per_cpu_caches t = t.pcc
let transfer_cache t = t.tc
let central_free_list t = t.cfl
let pageheap t = t.pageheap
let vm t = t.vm
let vcpus t = t.vcpus
let sampler t = t.sampler
let config t = t.config
let clock t = t.clock
