(* Tests for the allocation path of wsc_tcmalloc: per-CPU caches, transfer
   caches (legacy + NUCA), central free lists (baseline + prioritized), the
   pageheap facade and the Malloc integration. *)

open Wsc_tcmalloc
open Wsc_substrate

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let topo_uni = Wsc_hw.Topology.uniprocessor
let topo_chiplet = Wsc_hw.Topology.default

(* {1 Per_cpu_cache} *)

let test_pcc_miss_then_hit () =
  let pcc = Per_cpu_cache.create () in
  check_int "empty misses" (-1) (Per_cpu_cache.alloc pcc ~vcpu:0 ~cls:0);
  check_bool "dealloc caches object" true (Per_cpu_cache.dealloc pcc ~vcpu:0 ~cls:0 4096);
  check_int "hit returns it" 4096 (Per_cpu_cache.alloc pcc ~vcpu:0 ~cls:0);
  let misses = Per_cpu_cache.misses_per_vcpu pcc in
  check_int "one miss recorded" 1 misses.(0)

let test_pcc_isolation_between_vcpus () =
  let pcc = Per_cpu_cache.create () in
  ignore (Per_cpu_cache.dealloc pcc ~vcpu:0 ~cls:0 1);
  check_int "vcpu1 cannot see vcpu0 objects" (-1) (Per_cpu_cache.alloc pcc ~vcpu:1 ~cls:0)

let test_pcc_capacity_bound () =
  (* Per-class cap: with a 1024 B budget, one class may hold at most half
     the budget: 64 eight-byte objects. *)
  let config = { Config.baseline with Config.per_cpu_cache_bytes = 1024 } in
  let pcc = Per_cpu_cache.create ~config () in
  for i = 1 to 64 do
    if not (Per_cpu_cache.dealloc pcc ~vcpu:0 ~cls:0 i) then
      Alcotest.failf "dealloc %d rejected below the class cap" i
  done;
  check_bool "65th rejected by class cap" false (Per_cpu_cache.dealloc pcc ~vcpu:0 ~cls:0 65);
  check_int "class holds half the budget" 512 (Per_cpu_cache.used_bytes pcc ~vcpu:0);
  (* Byte budget: a second class can fill the rest, then overflows. *)
  for i = 1 to 32 do
    if not (Per_cpu_cache.dealloc pcc ~vcpu:0 ~cls:1 (1000 + i)) then
      Alcotest.failf "class-1 dealloc %d rejected below budget" i
  done;
  check_bool "byte budget binds across classes" false
    (Per_cpu_cache.dealloc pcc ~vcpu:0 ~cls:1 2000);
  check_int "used bytes at capacity" 1024 (Per_cpu_cache.used_bytes pcc ~vcpu:0)

let test_pcc_fill_and_flush () =
  let pcc = Per_cpu_cache.create () in
  check_int "all fit" 4
    (Per_cpu_cache.fill_from pcc ~vcpu:0 ~cls:0 ~buf:[| 1; 2; 3; 4 |] ~lo:0 ~hi:4);
  let batch = Array.make 3 0 in
  check_int "flushed three" 3
    (Per_cpu_cache.flush_batch_into pcc ~vcpu:0 ~cls:0 ~n:3 ~buf:batch ~pos:0);
  Alcotest.(check (array int)) "most recent first" [| 4; 3; 2 |] batch;
  check_int "one left" 8 (Per_cpu_cache.used_bytes pcc ~vcpu:0)

(* A class stack filled to the largest per-class cap the tuner can set:
   a drain hands every object to [evict] at once, most recent first. *)
let test_pcc_drain_full_class_at_largest_cap () =
  let config = { Config.baseline with Config.per_cpu_class_cap_objects = 4096 } in
  let pcc = Per_cpu_cache.create ~config () in
  let n = ref 0 in
  while Per_cpu_cache.dealloc pcc ~vcpu:0 ~cls:0 (8 * (!n + 1)) do
    incr n
  done;
  check_int "class 0 holds the cap" 4096 !n;
  let evictions = ref [] in
  let drained =
    Per_cpu_cache.drain pcc ~evict:(fun ~vcpu ~cls ~buf ~n ->
        evictions := (vcpu, cls, List.init n (fun i -> buf.(i))) :: !evictions)
  in
  check_int "bytes drained" (4096 * 8) drained;
  match !evictions with
  | [ (0, 0, addrs) ] ->
    Alcotest.(check (list int)) "every object, most recent first"
      (List.init 4096 (fun i -> 8 * (4096 - i)))
      addrs
  | _ -> Alcotest.fail "expected one eviction of vCPU 0, class 0"

(* The per-CPU side of a cache miss allocates nothing once the cache is
   populated: the fused batch ops and their prepare/commit halves. *)
let test_pcc_batch_ops_allocate_nothing () =
  let pcc = Per_cpu_cache.create () in
  let buf = Array.init 32 (fun i -> 8 * (i + 1)) in
  let round () =
    ignore (Per_cpu_cache.fill_from pcc ~vcpu:0 ~cls:0 ~buf ~lo:0 ~hi:32);
    ignore (Per_cpu_cache.flush_batch_into pcc ~vcpu:0 ~cls:0 ~n:32 ~buf ~pos:0);
    ignore (Per_cpu_cache.prepare_fill pcc ~vcpu:0 ~cls:0 ~buf ~lo:0 ~hi:32);
    Per_cpu_cache.commit_staged pcc;
    ignore (Per_cpu_cache.prepare_flush pcc ~vcpu:0 ~cls:0 ~n:32 ~buf ~pos:0);
    Per_cpu_cache.commit_staged pcc
  in
  round ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    round ()
  done;
  let words = Gc.minor_words () -. before in
  check_int "round trips leave the cache empty" 0 (Per_cpu_cache.used_bytes pcc ~vcpu:0);
  check_bool (Printf.sprintf "%.0f minor words in 1000 rounds" words) true (words < 100.0)

let test_pcc_resize_moves_capacity () =
  let config =
    {
      (Config.with_dynamic_per_cpu true Config.baseline) with
      Config.resize_step_bytes = 256 * 1024;
      (* Only the single hottest cache grows, so the other can be a victim. *)
      Config.resize_grow_candidates = 1;
    }
  in
  let pcc = Per_cpu_cache.create ~config () in
  (* Populate vcpus 0 and 1; make vcpu0 miss a lot. *)
  ignore (Per_cpu_cache.alloc pcc ~vcpu:1 ~cls:0);
  for _ = 1 to 100 do
    ignore (Per_cpu_cache.alloc pcc ~vcpu:0 ~cls:0)
  done;
  let cap0_before = Per_cpu_cache.capacity_bytes pcc ~vcpu:0 in
  let cap1_before = Per_cpu_cache.capacity_bytes pcc ~vcpu:1 in
  let evicted = ref [] in
  Per_cpu_cache.resize pcc ~evict:(fun ~vcpu:_ ~cls:_ ~buf ~n ->
      evicted := List.init n (fun i -> buf.(i)) @ !evicted);
  check_int "vcpu0 grew" (cap0_before + (256 * 1024)) (Per_cpu_cache.capacity_bytes pcc ~vcpu:0);
  check_int "vcpu1 shrank" (cap1_before - (256 * 1024))
    (Per_cpu_cache.capacity_bytes pcc ~vcpu:1);
  check_int "total conserved" (cap0_before + cap1_before)
    (Per_cpu_cache.capacity_bytes pcc ~vcpu:0 + Per_cpu_cache.capacity_bytes pcc ~vcpu:1)

let test_pcc_resize_evicts_large_classes_first () =
  let config =
    {
      (Config.with_dynamic_per_cpu true Config.baseline) with
      Config.per_cpu_cache_bytes = 512 * 1024;
      Config.resize_step_bytes = 256 * 1024;
      Config.resize_grow_candidates = 1;
    }
  in
  let pcc = Per_cpu_cache.create ~config () in
  (* vcpu1 holds one big object and some small ones; shrinking must evict
     the big class first. *)
  let big_cls = Size_class.count - 1 in
  ignore (Per_cpu_cache.fill_from pcc ~vcpu:1 ~cls:big_cls ~buf:[| 1000 |] ~lo:0 ~hi:1);
  ignore (Per_cpu_cache.fill_from pcc ~vcpu:1 ~cls:0 ~buf:[| 1; 2; 3 |] ~lo:0 ~hi:3);
  for _ = 1 to 10 do
    ignore (Per_cpu_cache.alloc pcc ~vcpu:0 ~cls:0)
  done;
  let evicted_classes = ref [] in
  Per_cpu_cache.resize pcc ~evict:(fun ~vcpu:_ ~cls ~buf:_ ~n:_ ->
      evicted_classes := cls :: !evicted_classes);
  check_bool "evicted from the largest class" true (List.mem big_cls !evicted_classes);
  check_bool "small class untouched" true (not (List.mem 0 !evicted_classes))

let test_pcc_static_resize_noop () =
  let pcc = Per_cpu_cache.create ~config:Config.baseline () in
  ignore (Per_cpu_cache.alloc pcc ~vcpu:0 ~cls:0);
  let cap = Per_cpu_cache.capacity_bytes pcc ~vcpu:0 in
  Per_cpu_cache.resize pcc ~evict:(fun ~vcpu:_ ~cls:_ ~buf:_ ~n:_ ->
      Alcotest.fail "no eviction");
  check_int "capacity unchanged" cap (Per_cpu_cache.capacity_bytes pcc ~vcpu:0)

(* {1 Helpers for middle/back-end tests} *)

let make_stack ?(config = Config.baseline) ?span_stats () =
  let vm = Wsc_os.Vm.create () in
  let ph = Pageheap.create ~config vm in
  let cfl = Central_free_list.create ~config ?span_stats ph in
  (vm, ph, cfl)

(* {1 Central_free_list} *)

let test_cfl_remove_return_roundtrip () =
  let _, ph, cfl = make_stack () in
  let addrs = Fixtures.cfl_remove cfl ~cls:0 ~n:100 ~now:0.0 in
  check_int "got 100" 100 (List.length addrs);
  check_int "distinct" 100 (List.length (List.sort_uniq compare addrs));
  check_bool "spans held" true (Central_free_list.span_count cfl ~cls:0 >= 1);
  Central_free_list.return_objects cfl ~cls:0 ~addrs ~now:1.0;
  check_int "all spans released" 0 (Central_free_list.span_count cfl ~cls:0);
  check_int "pageheap has no spans" 0 (Pageheap.spans_outstanding ph)

let test_cfl_fragmentation_accounting () =
  let _, _, cfl = make_stack () in
  let addrs = Fixtures.cfl_remove cfl ~cls:0 ~n:10 ~now:0.0 in
  (* One 8 KiB span of 8 B objects = 1024 objects; 10 outstanding. *)
  check_int "frag = free objects x size" ((1024 - 10) * 8)
    (Central_free_list.fragmented_bytes cfl);
  Central_free_list.return_objects cfl ~cls:0 ~addrs:[ List.hd addrs ] ~now:0.0;
  check_int "frag grows on return" ((1024 - 9) * 8) (Central_free_list.fragmented_bytes cfl)

let test_cfl_wild_return () =
  let _, _, cfl = make_stack () in
  Alcotest.check_raises "wild pointer"
    (Invalid_argument "Central_free_list.return_objects: wild pointer") (fun () ->
      Central_free_list.return_objects cfl ~cls:0 ~addrs:[ 424242 ] ~now:0.0)

let test_cfl_class_mismatch () =
  let _, _, cfl = make_stack () in
  let addrs = Fixtures.cfl_remove cfl ~cls:0 ~n:1 ~now:0.0 in
  Alcotest.check_raises "class mismatch"
    (Invalid_argument "Central_free_list.return_objects: class mismatch") (fun () ->
      Central_free_list.return_objects cfl ~cls:5 ~addrs ~now:0.0)

let test_cfl_prioritization_packs_densely () =
  (* With span prioritization, allocations concentrate on full spans, so
     after churning, fewer spans should be live than in baseline. *)
  let run config =
    let _, _, cfl = make_stack ~config () in
    let rng = Rng.create 42 in
    let live = ref [] in
    (* Allocate 2000, free random 1500, allocate 1000, count spans. *)
    let addrs = Fixtures.cfl_remove cfl ~cls:0 ~n:2000 ~now:0.0 in
    live := addrs;
    let arr = Array.of_list !live in
    Rng.shuffle rng arr;
    let to_free = Array.sub arr 0 1500 in
    let kept = Array.sub arr 1500 (Array.length arr - 1500) in
    Central_free_list.return_objects cfl ~cls:0 ~addrs:(Array.to_list to_free) ~now:1.0;
    let more = Fixtures.cfl_remove cfl ~cls:0 ~n:1000 ~now:2.0 in
    ignore kept;
    ignore more;
    Central_free_list.span_count cfl ~cls:0
  in
  let baseline_spans = run Config.baseline in
  let prioritized_spans = run (Config.with_span_prioritization true Config.baseline) in
  check_bool "prioritized never uses more spans" true (prioritized_spans <= baseline_spans)

let test_cfl_span_stats_events () =
  let stats = Span_stats.create () in
  let _, _, cfl = make_stack ~span_stats:stats () in
  let addrs = Fixtures.cfl_remove cfl ~cls:3 ~n:50 ~now:0.0 in
  Central_free_list.snapshot cfl ~now:1.0;
  Central_free_list.return_objects cfl ~cls:3 ~addrs ~now:2.0;
  check_bool "created recorded" true (Span_stats.spans_created stats ~cls:3 >= 1);
  check_bool "released recorded" true (Span_stats.spans_released stats ~cls:3 >= 1);
  check_bool "observations recorded" true (Span_stats.observation_count stats >= 1);
  let rates = Span_stats.return_rate_by_live_allocations stats ~cls:3 ~window_ns:10.0 ~bucket:8 in
  check_bool "rate rows exist" true (rates <> [])

(* {1 Transfer_cache} *)

let test_tc_insert_remove_legacy () =
  let _, _, cfl = make_stack () in
  let tc = Transfer_cache.create ~topology:topo_uni cfl in
  check_int "no overflow" 0
    (Fixtures.tc_insert tc ~cls:0 ~addrs:[ 11; 22 ] ~domain:0 ~now:0.0);
  let addrs, r = Fixtures.tc_remove tc ~cls:0 ~n:2 ~domain:0 ~now:0.0 in
  check_int "both from tc" 2 (List.length addrs);
  check_int "no cfl" 0 r.Transfer_cache.rs_from_cfl;
  check_int "local (same domain)" 2 r.Transfer_cache.rs_local

let test_tc_falls_through_to_cfl () =
  let _, _, cfl = make_stack () in
  let tc = Transfer_cache.create ~topology:topo_uni cfl in
  let addrs, r = Fixtures.tc_remove tc ~cls:0 ~n:5 ~domain:0 ~now:0.0 in
  check_int "all from cfl" 5 r.Transfer_cache.rs_from_cfl;
  check_int "five objects" 5 (List.length addrs)

let test_tc_legacy_cross_domain_is_remote () =
  let _, _, cfl = make_stack () in
  let tc = Transfer_cache.create ~topology:topo_chiplet cfl in
  ignore (Fixtures.tc_insert tc ~cls:0 ~addrs:[ 1; 2; 3 ] ~domain:0 ~now:0.0);
  let _, r = Fixtures.tc_remove tc ~cls:0 ~n:3 ~domain:5 ~now:0.0 in
  check_int "remote reuse seen" 3 r.Transfer_cache.rs_remote;
  check_int "no local" 0 r.Transfer_cache.rs_local

let nuca_config = Config.with_nuca_transfer_cache true Config.baseline

let test_tc_nuca_prefers_local () =
  let _, _, cfl = make_stack ~config:nuca_config () in
  let tc = Transfer_cache.create ~config:nuca_config ~topology:topo_chiplet cfl in
  check_int "16 shards" 16 (Transfer_cache.shard_count tc);
  ignore (Fixtures.tc_insert tc ~cls:0 ~addrs:[ 1; 2 ] ~domain:3 ~now:0.0);
  ignore (Fixtures.tc_insert tc ~cls:0 ~addrs:[ 3; 4 ] ~domain:7 ~now:0.0);
  let _, r = Fixtures.tc_remove tc ~cls:0 ~n:2 ~domain:3 ~now:0.0 in
  check_int "local reuse" 2 r.Transfer_cache.rs_local;
  check_int "no remote" 0 r.Transfer_cache.rs_remote

let test_tc_nuca_release_tick_moves_to_central () =
  let _, _, cfl = make_stack ~config:nuca_config () in
  let tc = Transfer_cache.create ~config:nuca_config ~topology:topo_chiplet cfl in
  ignore (Fixtures.tc_insert tc ~cls:0 ~addrs:[ 1; 2; 3; 4 ] ~domain:2 ~now:0.0);
  (* First tick only establishes the low watermark; the second drains half
     of the untouched surplus to the central cache. *)
  Transfer_cache.release_tick tc ~now:1.0;
  Transfer_cache.release_tick tc ~now:2.0;
  (* A consumer in another domain now sees drained objects as remote
     (instead of falling to the CFL). *)
  let _, r = Fixtures.tc_remove tc ~cls:0 ~n:2 ~domain:9 ~now:2.0 in
  check_int "remote from central" 2 r.Transfer_cache.rs_remote;
  check_int "nothing from cfl" 0 r.Transfer_cache.rs_from_cfl

let test_tc_overflow_to_cfl () =
  let small_tc_config = { Config.baseline with Config.transfer_cache_bytes_per_class = 1 } in
  let _, _, cfl = make_stack ~config:small_tc_config () in
  let tc = Transfer_cache.create ~config:small_tc_config ~topology:topo_uni cfl in
  (* Capacity floor is 2*batch = 64 for class 0; push 100 objects that
     actually belong to CFL spans. *)
  let addrs = Fixtures.cfl_remove cfl ~cls:0 ~n:100 ~now:0.0 in
  let overflow = Fixtures.tc_insert tc ~cls:0 ~addrs ~domain:0 ~now:0.0 in
  check_int "overflowed the rest" (100 - 64) overflow;
  check_int "cached 64" 64 (Transfer_cache.cached_objects tc ~cls:0)

let test_tc_cached_bytes () =
  let _, _, cfl = make_stack () in
  let tc = Transfer_cache.create ~topology:topo_uni cfl in
  ignore (Fixtures.tc_insert tc ~cls:0 ~addrs:[ 1; 2; 3 ] ~domain:0 ~now:0.0);
  check_int "3 x 8 B" 24 (Transfer_cache.cached_bytes tc)

(* {1 Pageheap} *)

let test_pageheap_small_span () =
  let vm = Wsc_os.Vm.create () in
  let ph = Pageheap.create vm in
  let span, mmaps = Pageheap.new_small_span ph ~size_class:0 ~now:0.0 in
  check_int "one mmap for first span" 1 mmaps;
  check_bool "registered" true (Pageheap.span_of_addr ph span.Span.base <> None);
  let span2, mmaps2 = Pageheap.new_small_span ph ~size_class:0 ~now:0.0 in
  check_int "second span reuses hugepage" 0 mmaps2;
  ignore span2;
  check_int "two spans" 2 (Pageheap.spans_outstanding ph)

let test_pageheap_free_span_unregisters () =
  let vm = Wsc_os.Vm.create () in
  let ph = Pageheap.create vm in
  let span, _ = Pageheap.new_small_span ph ~size_class:0 ~now:0.0 in
  Pageheap.free_span ph span;
  check_bool "unregistered" true (Pageheap.span_of_addr ph span.Span.base = None);
  check_int "no spans" 0 (Pageheap.spans_outstanding ph)

let test_pageheap_free_busy_span_rejected () =
  let vm = Wsc_os.Vm.create () in
  let ph = Pageheap.create vm in
  let span, _ = Pageheap.new_small_span ph ~size_class:0 ~now:0.0 in
  ignore (Span.pop_object span);
  Alcotest.check_raises "busy span" (Invalid_argument "Pageheap.free_span: span not idle")
    (fun () -> Pageheap.free_span ph span)

let test_pageheap_large_routing () =
  let vm = Wsc_os.Vm.create () in
  let ph = Pageheap.create vm in
  (* < 1 hugepage -> filler *)
  let s1, _ = Pageheap.new_large_span ph ~pages:100 ~now:0.0 in
  check_bool "filler used" true ((Pageheap.filler_stats ph).Pageheap.in_use_bytes > 0);
  (* slightly over a hugepage (2.1 MiB ~ 269 pages) -> region *)
  let s2, _ = Pageheap.new_large_span ph ~pages:269 ~now:0.0 in
  check_bool "region used" true ((Pageheap.region_stats ph).Pageheap.in_use_bytes > 0);
  (* 4.5 MiB = 576 pages -> cache + donated tail *)
  let s3, _ = Pageheap.new_large_span ph ~pages:576 ~now:0.0 in
  check_bool "cache used" true ((Pageheap.cache_stats ph).Pageheap.in_use_bytes > 0);
  List.iter (Pageheap.free_span ph) [ s1; s2; s3 ];
  check_int "all gone" 0 (Pageheap.spans_outstanding ph)

let test_pageheap_donated_slack_reusable () =
  let vm = Wsc_os.Vm.create () in
  let ph = Pageheap.create vm in
  (* 576 pages = 2 full hugepages + 64-page tail; slack = 192 pages. *)
  let _s, _ = Pageheap.new_large_span ph ~pages:576 ~now:0.0 in
  let mmaps_before = Wsc_os.Vm.mmap_calls vm in
  (* A small span should fit in the donated slack without a new mmap. *)
  let _small, mmaps = Pageheap.new_small_span ph ~size_class:0 ~now:0.0 in
  check_int "no new mmap" 0 mmaps;
  check_int "vm mmaps unchanged" mmaps_before (Wsc_os.Vm.mmap_calls vm)

let test_pageheap_coverage_starts_full () =
  let vm = Wsc_os.Vm.create () in
  let ph = Pageheap.create vm in
  let _span, _ = Pageheap.new_small_span ph ~size_class:0 ~now:0.0 in
  Alcotest.(check (float 1e-9)) "fresh hugepages intact" 1.0 (Pageheap.hugepage_coverage ph)

let test_pageheap_subrelease_lowers_coverage () =
  let vm = Wsc_os.Vm.create () in
  let ph = Pageheap.create vm in
  let _span, _ = Pageheap.new_small_span ph ~size_class:0 ~now:0.0 in
  let released = Pageheap.release_memory ph ~max_bytes:(100 * Units.tcmalloc_page_size) in
  check_bool "released something" true (released > 0);
  check_bool "coverage dropped" true (Pageheap.hugepage_coverage ph < 1.0)

let test_pageheap_release_prefers_cache () =
  let vm = Wsc_os.Vm.create () in
  let ph = Pageheap.create vm in
  (* Free a whole-hugepage span so it sits in the cache. *)
  let s, _ = Pageheap.new_large_span ph ~pages:512 ~now:0.0 in
  Pageheap.free_span ph s;
  check_int "cached" (4 * Units.mib) (Pageheap.cache_stats ph).Pageheap.fragmented_bytes;
  (* First release only arms the cache's demand watermark. *)
  ignore (Pageheap.release_memory ph ~max_bytes:(4 * Units.mib));
  let released = Pageheap.release_memory ph ~max_bytes:(4 * Units.mib) in
  check_int "released intact hugepages" (4 * Units.mib) released;
  check_int "cache empty" 0 (Pageheap.cache_stats ph).Pageheap.fragmented_bytes;
  check_int "no subrelease needed" 0 (Wsc_os.Vm.subrelease_calls vm)

(* {1 Malloc integration} *)

let make_malloc ?(config = Config.baseline) ?(topology = topo_uni) () =
  let clock = Clock.create () in
  let m = Malloc.create ~config ~topology ~clock () in
  (clock, m)

let test_malloc_roundtrip () =
  let _, m = make_malloc () in
  let a = Malloc.malloc m ~cpu:0 ~size:100 in
  let stats = Malloc.heap_stats m in
  check_int "live requested" 100 stats.Malloc.live_requested_bytes;
  Malloc.free m ~cpu:0 a ~size:100;
  let stats = Malloc.heap_stats m in
  check_int "live zero" 0 stats.Malloc.live_requested_bytes

let test_malloc_distinct_addresses () =
  let _, m = make_malloc () in
  let addrs = List.init 1000 (fun _ -> Malloc.malloc m ~cpu:0 ~size:64) in
  check_int "distinct" 1000 (List.length (List.sort_uniq compare addrs))

let test_malloc_fast_path_after_free () =
  let _, m = make_malloc () in
  let a = Malloc.malloc m ~cpu:0 ~size:64 in
  Malloc.free m ~cpu:0 a ~size:64;
  let b = Malloc.malloc m ~cpu:0 ~size:64 in
  check_int "reuses the cached object" a b;
  let tel = Malloc.telemetry m in
  check_int "second alloc hit per-CPU cache" 1
    (Telemetry.hits tel Wsc_hw.Cost_model.Per_cpu_cache)

let test_malloc_large_object () =
  let _, m = make_malloc () in
  let size = 5 * Units.mib in
  let a = Malloc.malloc m ~cpu:0 ~size in
  let stats = Malloc.heap_stats m in
  check_int "live" size stats.Malloc.live_requested_bytes;
  Malloc.free m ~cpu:0 a ~size;
  check_int "freed" 0 (Malloc.heap_stats m).Malloc.live_requested_bytes;
  let tel = Malloc.telemetry m in
  check_bool "mmap hit recorded" true (Telemetry.hits tel Wsc_hw.Cost_model.Mmap >= 1)

let test_malloc_wild_free_rejected () =
  let _, m = make_malloc () in
  Alcotest.check_raises "wild large free"
    (Invalid_argument
       "Malloc.free: wild pointer (addr=0x3b9ac9ff, size=1048576, tier=page-map)")
    (fun () -> Malloc.free m ~cpu:0 999_999_999 ~size:(1024 * 1024))

let test_malloc_cross_cpu_free () =
  let _, m = make_malloc () in
  (* Allocate on cpu0, free on cpu1: objects flow via the transfer cache. *)
  let addrs = List.init 200 (fun _ -> Malloc.malloc m ~cpu:0 ~size:128) in
  List.iter (fun a -> Malloc.free m ~cpu:1 a ~size:128) addrs;
  let stats = Malloc.heap_stats m in
  check_int "nothing live" 0 stats.Malloc.live_requested_bytes;
  check_bool "front-end caches hold the freed objects" true
    (stats.Malloc.front_end_cached_bytes > 0 || stats.Malloc.transfer_cached_bytes > 0)

let test_malloc_internal_fragmentation () =
  let _, m = make_malloc () in
  let _a = Malloc.malloc m ~cpu:0 ~size:9 (* rounds to 16 *) in
  let stats = Malloc.heap_stats m in
  check_int "slack 7" 7 stats.Malloc.internal_fragmentation_bytes

let test_malloc_conservation_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"malloc_free_conserves_all_accounting" ~count:20
       QCheck.(pair small_int (list_of_size (Gen.int_range 50 200) (int_range 1 4096)))
       (fun (seed, sizes) ->
         let rng = Rng.create seed in
         let _, m = make_malloc ~topology:topo_uni () in
         let live = ref [] in
         List.iter
           (fun size ->
             let size = max 1 size in
             let cpu = Rng.int rng 4 in
             if Rng.bool rng || !live = [] then
               live := (Malloc.malloc m ~cpu ~size, size) :: !live
             else begin
               match !live with
               | (a, s) :: rest ->
                 Malloc.free m ~cpu a ~size:s;
                 live := rest
               | [] -> ()
             end)
           sizes;
         List.iter (fun (a, s) -> Malloc.free m ~cpu:0 a ~size:s) !live;
         let stats = Malloc.heap_stats m in
         stats.Malloc.live_requested_bytes = 0
         && stats.Malloc.internal_fragmentation_bytes = 0
         && Telemetry.alloc_count (Malloc.telemetry m)
            = Telemetry.free_count (Malloc.telemetry m)))

let test_malloc_vcpu_mapping () =
  let _, m = make_malloc () in
  ignore (Malloc.malloc m ~cpu:3 ~size:64);
  ignore (Malloc.malloc m ~cpu:1 ~size:64);
  check_int "two vcpus populated" 2 (Wsc_os.Vcpu.active_count (Malloc.vcpus m));
  Malloc.cpu_idle m ~cpu:3;
  check_int "one active after idle" 1 (Wsc_os.Vcpu.active_count (Malloc.vcpus m))

let test_malloc_dynamic_resize_ticker () =
  let config = Config.with_dynamic_per_cpu true Config.baseline in
  let clock, m = make_malloc ~config () in
  (* Generate misses on vcpu 0, then advance past the resize interval. *)
  for _ = 1 to 500 do
    let a = Malloc.malloc m ~cpu:0 ~size:64 in
    Malloc.free m ~cpu:1 a ~size:64
  done;
  Clock.advance clock (6.0 *. Units.sec);
  (* No assertion beyond "it runs and stays consistent". *)
  let stats = Malloc.heap_stats m in
  check_int "nothing live" 0 stats.Malloc.live_requested_bytes

let test_malloc_fragmentation_breakdown_consistency () =
  let _, m = make_malloc () in
  let addrs = List.init 500 (fun i -> Malloc.malloc m ~cpu:0 ~size:(32 + (i mod 64))) in
  List.iteri (fun i a -> if i mod 2 = 0 then Malloc.free m ~cpu:0 a ~size:(32 + (i mod 64))) addrs;
  let stats = Malloc.heap_stats m in
  check_int "external = sum of tiers"
    (stats.Malloc.front_end_cached_bytes + stats.Malloc.transfer_cached_bytes
    + stats.Malloc.cfl_fragmented_bytes + stats.Malloc.pageheap_fragmented_bytes)
    stats.Malloc.external_fragmentation_bytes;
  check_bool "fragmentation ratio positive" true (Malloc.fragmentation_ratio stats > 0.0)

let test_malloc_nuca_reduces_remote_reuse () =
  (* Producer-consumer across domains: with NUCA-aware transfer caches the
     remote-reuse fraction must drop. *)
  let run config =
    let clock = Clock.create () in
    let m = Malloc.create ~config ~topology:topo_chiplet ~clock () in
    let cpu_a = 0 (* domain 0 *) and cpu_b = 20 (* domain 1 *) in
    for _ = 1 to 2000 do
      (* Each domain allocates and frees its own objects, with occasional
         bursts pushing objects through the transfer cache. *)
      let a = Malloc.malloc m ~cpu:cpu_a ~size:64 in
      let b = Malloc.malloc m ~cpu:cpu_b ~size:64 in
      Malloc.free m ~cpu:cpu_a a ~size:64;
      Malloc.free m ~cpu:cpu_b b ~size:64
    done;
    (* Force spills: allocate a burst on each side. *)
    let burst_a = List.init 3000 (fun _ -> Malloc.malloc m ~cpu:cpu_a ~size:64) in
    List.iter (fun x -> Malloc.free m ~cpu:cpu_a x ~size:64) burst_a;
    let burst_b = List.init 3000 (fun _ -> Malloc.malloc m ~cpu:cpu_b ~size:64) in
    List.iter (fun x -> Malloc.free m ~cpu:cpu_b x ~size:64) burst_b;
    Telemetry.remote_reuse_fraction (Malloc.telemetry m)
  in
  let legacy = run Config.baseline in
  let nuca = run (Config.with_nuca_transfer_cache true Config.baseline) in
  check_bool "nuca never worse" true (nuca <= legacy)

let suite =
  [
    ( "per_cpu_cache",
      [
        Alcotest.test_case "miss then hit" `Quick test_pcc_miss_then_hit;
        Alcotest.test_case "vcpu isolation" `Quick test_pcc_isolation_between_vcpus;
        Alcotest.test_case "capacity bound" `Quick test_pcc_capacity_bound;
        Alcotest.test_case "fill and flush" `Quick test_pcc_fill_and_flush;
        Alcotest.test_case "drain of a full class at the largest cap" `Quick
          test_pcc_drain_full_class_at_largest_cap;
        Alcotest.test_case "batch ops allocate nothing" `Quick
          test_pcc_batch_ops_allocate_nothing;
        Alcotest.test_case "resize moves capacity" `Quick test_pcc_resize_moves_capacity;
        Alcotest.test_case "resize evicts large classes" `Quick
          test_pcc_resize_evicts_large_classes_first;
        Alcotest.test_case "static resize noop" `Quick test_pcc_static_resize_noop;
      ] );
    ( "central_free_list",
      [
        Alcotest.test_case "remove/return roundtrip" `Quick test_cfl_remove_return_roundtrip;
        Alcotest.test_case "fragmentation accounting" `Quick test_cfl_fragmentation_accounting;
        Alcotest.test_case "wild return" `Quick test_cfl_wild_return;
        Alcotest.test_case "class mismatch" `Quick test_cfl_class_mismatch;
        Alcotest.test_case "prioritization packs densely" `Quick
          test_cfl_prioritization_packs_densely;
        Alcotest.test_case "span stats events" `Quick test_cfl_span_stats_events;
      ] );
    ( "transfer_cache",
      [
        Alcotest.test_case "insert/remove legacy" `Quick test_tc_insert_remove_legacy;
        Alcotest.test_case "falls through to cfl" `Quick test_tc_falls_through_to_cfl;
        Alcotest.test_case "legacy cross-domain remote" `Quick
          test_tc_legacy_cross_domain_is_remote;
        Alcotest.test_case "nuca prefers local" `Quick test_tc_nuca_prefers_local;
        Alcotest.test_case "nuca release tick" `Quick test_tc_nuca_release_tick_moves_to_central;
        Alcotest.test_case "overflow to cfl" `Quick test_tc_overflow_to_cfl;
        Alcotest.test_case "cached bytes" `Quick test_tc_cached_bytes;
      ] );
    ( "pageheap",
      [
        Alcotest.test_case "small span" `Quick test_pageheap_small_span;
        Alcotest.test_case "free unregisters" `Quick test_pageheap_free_span_unregisters;
        Alcotest.test_case "busy span rejected" `Quick test_pageheap_free_busy_span_rejected;
        Alcotest.test_case "large routing" `Quick test_pageheap_large_routing;
        Alcotest.test_case "donated slack reusable" `Quick test_pageheap_donated_slack_reusable;
        Alcotest.test_case "coverage starts full" `Quick test_pageheap_coverage_starts_full;
        Alcotest.test_case "subrelease lowers coverage" `Quick
          test_pageheap_subrelease_lowers_coverage;
        Alcotest.test_case "release prefers cache" `Quick test_pageheap_release_prefers_cache;
      ] );
    ( "malloc",
      [
        Alcotest.test_case "roundtrip" `Quick test_malloc_roundtrip;
        Alcotest.test_case "distinct addresses" `Quick test_malloc_distinct_addresses;
        Alcotest.test_case "fast path after free" `Quick test_malloc_fast_path_after_free;
        Alcotest.test_case "large object" `Quick test_malloc_large_object;
        Alcotest.test_case "wild free rejected" `Quick test_malloc_wild_free_rejected;
        Alcotest.test_case "cross-cpu free" `Quick test_malloc_cross_cpu_free;
        Alcotest.test_case "internal fragmentation" `Quick test_malloc_internal_fragmentation;
        test_malloc_conservation_property;
        Alcotest.test_case "vcpu mapping" `Quick test_malloc_vcpu_mapping;
        Alcotest.test_case "dynamic resize ticker" `Quick test_malloc_dynamic_resize_ticker;
        Alcotest.test_case "fragmentation breakdown" `Quick
          test_malloc_fragmentation_breakdown_consistency;
        Alcotest.test_case "nuca reduces remote reuse" `Slow test_malloc_nuca_reduces_remote_reuse;
      ] );
  ]
