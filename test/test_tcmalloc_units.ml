(* Unit tests for the structural pieces of wsc_tcmalloc: size classes,
   spans, the page map, the pageheap components, the sampler and telemetry. *)

open Wsc_tcmalloc
open Wsc_substrate

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_close msg tol expected actual = Alcotest.(check (float tol)) msg expected actual
let page = Units.tcmalloc_page_size
let hugepage = Units.hugepage_size

(* {1 Size_class} *)

let test_size_class_count () =
  (* Paper Sec. 2.1: 80-90 size classes. *)
  check_bool "80-90 classes" true (Size_class.count >= 80 && Size_class.count <= 90)

let test_size_class_bounds () =
  check_int "smallest" 8 (Size_class.size 0);
  check_int "largest" (256 * 1024) (Size_class.size (Size_class.count - 1));
  check_int "max_size" (256 * 1024) Size_class.max_size

let test_size_class_monotone () =
  for i = 1 to Size_class.count - 1 do
    if Size_class.size i <= Size_class.size (i - 1) then
      Alcotest.failf "class sizes not strictly increasing at %d" i
  done

let test_size_class_of_size () =
  Alcotest.(check int) "size 1 -> class 0" 0 (Size_class.index_of_size 1);
  Alcotest.(check int) "size 8 -> class 0" 0 (Size_class.index_of_size 8);
  Alcotest.(check int) "size 9 -> class 1" 1 (Size_class.index_of_size 9);
  Alcotest.(check int) "over max -> -1" (-1)
    (Size_class.index_of_size (Size_class.max_size + 1))

let test_size_class_of_size_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"of_size_returns_smallest_fitting_class" ~count:500
       QCheck.(int_range 1 (256 * 1024))
       (fun n ->
         let cls = Size_class.index_of_size n in
         cls >= 0 && Size_class.size cls >= n && (cls = 0 || Size_class.size (cls - 1) < n)))

let test_size_class_capacity () =
  Array.iter
    (fun info ->
      let expected = info.Size_class.pages * page / info.Size_class.size in
      if info.Size_class.capacity <> expected then
        Alcotest.failf "capacity mismatch for size %d" info.Size_class.size;
      if info.Size_class.capacity < 1 then Alcotest.fail "empty span")
    Size_class.all

let test_size_class_waste_bound () =
  Array.iter
    (fun info ->
      let span_bytes = info.Size_class.pages * page in
      let waste = span_bytes - (info.Size_class.capacity * info.Size_class.size) in
      if float_of_int waste /. float_of_int span_bytes > 0.125 then
        Alcotest.failf "tail waste > 12.5%% for size %d" info.Size_class.size)
    Size_class.all

let test_size_class_batch () =
  Array.iter
    (fun info ->
      if info.Size_class.batch < 2 || info.Size_class.batch > 32 then
        Alcotest.failf "batch out of [2,32] for size %d" info.Size_class.size)
    Size_class.all;
  check_int "8B moves 32" 32 (Size_class.batch 0)

let test_size_class_internal_slack () =
  check_int "exact fit" 0 (Size_class.internal_slack ~requested:8);
  check_int "9 -> 16" 7 (Size_class.internal_slack ~requested:9);
  check_int "large has no class slack" 0
    (Size_class.internal_slack ~requested:(1024 * 1024))

(* {1 Span} *)

let make_span ?(cls = 0) () = Span.create_small ~id:1 ~base:0 ~size_class:cls ~birth_time:0.0

let test_span_fresh () =
  let s = make_span () in
  check_int "fully free" (Size_class.capacity 0) (Span.free_objects s);
  check_bool "idle" true (Span.is_idle s);
  check_bool "not exhausted" false (Span.is_exhausted s)

let test_span_pop_push_roundtrip () =
  let s = make_span () in
  let a = Span.pop_object s in
  check_bool "address in span" true (Span.contains s a);
  check_int "one outstanding" 1 s.Span.outstanding;
  Span.push_object s a;
  check_bool "idle again" true (Span.is_idle s)

let test_span_addresses_distinct () =
  let s = make_span ~cls:3 () in
  let n = Size_class.capacity 3 in
  let buf = Array.make n 0 in
  check_int "all popped" n (Span.pop_objects_into s ~n ~buf ~pos:0);
  let addrs = Array.to_list buf in
  check_int "distinct" n (List.length (List.sort_uniq compare addrs));
  check_bool "exhausted" true (Span.is_exhausted s);
  List.iter
    (fun a ->
      if (a - s.Span.base) mod Size_class.size 3 <> 0 then
        Alcotest.fail "misaligned object")
    addrs

let test_span_double_free () =
  let s = make_span () in
  let a = Span.pop_object s in
  Span.push_object s a;
  Alcotest.check_raises "double free" (Invalid_argument "Span.push_object: double free")
    (fun () -> Span.push_object s a)

let test_span_wild_free () =
  let s = make_span () in
  Alcotest.check_raises "outside span"
    (Invalid_argument "Span.push_object: address outside span") (fun () ->
      Span.push_object s 123_456_789)

let test_span_misaligned_free () =
  let s = make_span ~cls:2 () in
  let a = Span.pop_object s in
  Alcotest.check_raises "misaligned"
    (Invalid_argument "Span.push_object: misaligned object") (fun () ->
      Span.push_object s (a + 1))

let test_span_large () =
  let s = Span.create_large ~id:2 ~base:hugepage ~pages:300 ~birth_time:0.0 in
  check_bool "large" true (Span.is_large s);
  check_int "bytes" (300 * page) (Span.span_bytes s);
  let a = Span.pop_object s in
  check_int "base address" hugepage a;
  check_bool "not idle" false (Span.is_idle s);
  Span.push_object s a;
  check_bool "idle" true (Span.is_idle s)

let test_span_fragmented_bytes () =
  let s = make_span ~cls:5 () in
  let size = Size_class.size 5 in
  let cap = Size_class.capacity 5 in
  check_int "all free" (cap * size) (Span.fragmented_bytes s);
  ignore (Span.pop_objects_into s ~n:3 ~buf:(Array.make 3 0) ~pos:0);
  check_int "after 3 pops" ((cap - 3) * size) (Span.fragmented_bytes s)

let test_span_invariant_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"span_outstanding_plus_free_equals_capacity" ~count:200
       QCheck.(list (int_range 0 50))
       (fun ops ->
         let s = Span.create_small ~id:9 ~base:0 ~size_class:10 ~birth_time:0.0 in
         let held = ref [] in
         List.iter
           (fun op ->
             if op mod 2 = 0 && not (Span.is_exhausted s) then
               held := Span.pop_object s :: !held
             else begin
               match !held with
               | a :: rest ->
                 Span.push_object s a;
                 held := rest
               | [] -> ()
             end)
           ops;
         Span.free_objects s + s.Span.outstanding = s.Span.capacity
         && List.length !held = s.Span.outstanding))

(* {1 Page_map} *)

let test_page_map_register_lookup () =
  let pm = Page_map.create () in
  let s = Span.create_small ~id:1 ~base:(10 * page) ~size_class:20 ~birth_time:0.0 in
  Page_map.register pm s;
  (match Page_map.lookup pm (10 * page) with
  | Some found -> check_int "same span" 1 found.Span.id
  | None -> Alcotest.fail "lookup failed");
  (* Any address inside the span resolves. *)
  (match Page_map.lookup pm ((10 * page) + 100) with
  | Some found -> check_int "mid-span" 1 found.Span.id
  | None -> Alcotest.fail "mid-span lookup failed");
  Alcotest.(check bool) "outside is None" true (Page_map.lookup pm 0 = None)

let test_page_map_overlap_rejected () =
  let pm = Page_map.create () in
  let s1 = Span.create_small ~id:1 ~base:0 ~size_class:20 ~birth_time:0.0 in
  Page_map.register pm s1;
  let s2 = Span.create_small ~id:2 ~base:0 ~size_class:20 ~birth_time:0.0 in
  Alcotest.check_raises "overlap" (Invalid_argument "Page_map.register: page already owned")
    (fun () -> Page_map.register pm s2)

let test_page_map_unregister () =
  let pm = Page_map.create () in
  let s = Span.create_small ~id:1 ~base:0 ~size_class:20 ~birth_time:0.0 in
  Page_map.register pm s;
  check_int "one span" 1 (Page_map.span_count pm);
  Page_map.unregister pm s;
  check_int "zero spans" 0 (Page_map.span_count pm);
  Alcotest.(check bool) "gone" true (Page_map.lookup pm 0 = None)

let owned_ids pm =
  let ids = ref [] in
  Page_map.iter_spans pm (fun s -> ids := s.Span.id :: !ids);
  List.sort compare !ids

let owner pm p = Option.map (fun s -> s.Span.id) (Page_map.lookup pm (p * page))
let check_owner msg expected pm p = Alcotest.(check (option int)) msg expected (owner pm p)

let test_page_map_failed_register_unchanged () =
  let pm = Page_map.create () in
  Page_map.register pm (Span.create_large ~id:1 ~base:(10 * page) ~pages:2 ~birth_time:0.0);
  let s2 = Span.create_large ~id:2 ~base:(8 * page) ~pages:3 ~birth_time:0.0 in
  Alcotest.check_raises "overlap" (Invalid_argument "Page_map.register: page already owned")
    (fun () -> Page_map.register pm s2);
  check_owner "page 8 unclaimed" None pm 8;
  check_owner "page 9 unclaimed" None pm 9;
  check_owner "page 10 kept" (Some 1) pm 10;
  check_int "one span" 1 (Page_map.span_count pm);
  Alcotest.(check (list int)) "no slot for the rejected span" [ 1 ] (owned_ids pm);
  (* The rejected span's free pages take a later span. *)
  Page_map.register pm (Span.create_large ~id:3 ~base:(8 * page) ~pages:2 ~birth_time:0.0);
  check_owner "page 8 now span 3" (Some 3) pm 8;
  Alcotest.(check (list int)) "two spans" [ 1; 3 ] (owned_ids pm)

let test_page_map_failed_unregister_unchanged () =
  let pm = Page_map.create () in
  let s1 = Span.create_large ~id:1 ~base:(10 * page) ~pages:2 ~birth_time:0.0 in
  Page_map.register pm s1;
  Page_map.register pm (Span.create_large ~id:4 ~base:(12 * page) ~pages:2 ~birth_time:0.0);
  (* Span 1's id over one page too many: page 12 belongs to span 4. *)
  let wrong = Span.create_large ~id:1 ~base:(10 * page) ~pages:3 ~birth_time:0.0 in
  Alcotest.check_raises "not owned" (Invalid_argument "Page_map.unregister: page not owned by span")
    (fun () -> Page_map.unregister pm wrong);
  check_owner "page 10 kept" (Some 1) pm 10;
  check_owner "page 11 kept" (Some 1) pm 11;
  check_owner "page 12 kept" (Some 4) pm 12;
  check_int "two spans" 2 (Page_map.span_count pm);
  Page_map.unregister pm s1;
  check_owner "page 10 freed" None pm 10;
  Alcotest.(check (list int)) "span 4 left" [ 4 ] (owned_ids pm)

let test_page_map_leaf_straddle () =
  let pm = Page_map.create () in
  let leaf = Page_map.leaf_pages in
  (* Pages leaf-2 .. leaf+1: two pages on each side of the first boundary. *)
  let s = Span.create_large ~id:7 ~base:((leaf - 2) * page) ~pages:4 ~birth_time:0.0 in
  Page_map.register pm s;
  check_owner "before the span" None pm (leaf - 3);
  for p = leaf - 2 to leaf + 1 do
    check_owner (Printf.sprintf "page %d" p) (Some 7) pm p
  done;
  check_owner "after the span" None pm (leaf + 2);
  (* A span over three leaves whose last page is taken: nothing is
     written, in any of its leaves. *)
  Page_map.register pm
    (Span.create_large ~id:8 ~base:(((3 * leaf) + 1) * page) ~pages:1 ~birth_time:0.0);
  let long = Span.create_large ~id:9 ~base:((leaf + 2) * page) ~pages:(2 * leaf) ~birth_time:0.0 in
  Alcotest.check_raises "overlap in the last leaf"
    (Invalid_argument "Page_map.register: page already owned") (fun () ->
      Page_map.register pm long);
  check_owner "first page of the rejected span" None pm (leaf + 2);
  check_owner "middle leaf" None pm (2 * leaf);
  Page_map.unregister pm s;
  for p = leaf - 2 to leaf + 1 do
    check_owner (Printf.sprintf "page %d freed" p) None pm p
  done;
  Alcotest.(check (list int)) "span 8 left" [ 8 ] (owned_ids pm)

(* {1 Hugepage_filler} *)

let test_filler_allocates_from_added () =
  let f = Hugepage_filler.create () in
  Alcotest.(check bool) "empty filler" true
    (Hugepage_filler.allocate f ~kind:Hugepage_filler.Long_lived ~pages:4 = None);
  Hugepage_filler.add_hugepage f ~base:0 ~kind:Hugepage_filler.Long_lived ~donated:false
    ~t_used:0;
  (match Hugepage_filler.allocate f ~kind:Hugepage_filler.Long_lived ~pages:4 with
  | Some a -> check_int "first run at base" 0 a
  | None -> Alcotest.fail "allocation failed");
  check_int "used" 4 (Hugepage_filler.used_pages f);
  check_int "free" 252 (Hugepage_filler.free_pages f)

let test_filler_densest_first () =
  let f = Hugepage_filler.create () in
  Hugepage_filler.add_hugepage f ~base:0 ~kind:Hugepage_filler.Long_lived ~donated:false
    ~t_used:0;
  Hugepage_filler.add_hugepage f ~base:hugepage ~kind:Hugepage_filler.Long_lived
    ~donated:false ~t_used:0;
  (* Fill hugepage 0 more densely. *)
  let a1 = Hugepage_filler.allocate f ~kind:Hugepage_filler.Long_lived ~pages:200 in
  check_bool "first alloc" true (a1 <> None);
  let a2 = Hugepage_filler.allocate f ~kind:Hugepage_filler.Long_lived ~pages:10 in
  check_bool "second alloc" true (a2 <> None);
  (* The 10-page run must land in the denser hugepage (same as the 200). *)
  (match (a1, a2) with
  | Some x, Some y ->
    check_int "same hugepage" (x / hugepage) (y / hugepage)
  | _ -> Alcotest.fail "allocations failed")

let test_filler_set_isolation () =
  let f = Hugepage_filler.create () in
  Hugepage_filler.add_hugepage f ~base:0 ~kind:Hugepage_filler.Short_lived ~donated:false
    ~t_used:0;
  (* A long-lived request cannot be served from the short-lived set. *)
  Alcotest.(check bool) "set isolation" true
    (Hugepage_filler.allocate f ~kind:Hugepage_filler.Long_lived ~pages:1 = None);
  Alcotest.(check bool) "short works" true
    (Hugepage_filler.allocate f ~kind:Hugepage_filler.Short_lived ~pages:1 <> None)

let test_filler_free_and_empty () =
  let f = Hugepage_filler.create () in
  Hugepage_filler.add_hugepage f ~base:0 ~kind:Hugepage_filler.Long_lived ~donated:false
    ~t_used:0;
  let a = Option.get (Hugepage_filler.allocate f ~kind:Hugepage_filler.Long_lived ~pages:8) in
  (match Hugepage_filler.free f a ~pages:8 with
  | Hugepage_filler.Hugepage_empty base ->
    check_int "empty hugepage returned" 0 base;
    check_int "untracked" 0 (Hugepage_filler.tracked_hugepages f)
  | Hugepage_filler.Still_tracked -> Alcotest.fail "expected empty hugepage")

let test_filler_partial_free () =
  let f = Hugepage_filler.create () in
  Hugepage_filler.add_hugepage f ~base:0 ~kind:Hugepage_filler.Long_lived ~donated:false
    ~t_used:0;
  let a = Option.get (Hugepage_filler.allocate f ~kind:Hugepage_filler.Long_lived ~pages:8) in
  let b = Option.get (Hugepage_filler.allocate f ~kind:Hugepage_filler.Long_lived ~pages:8) in
  (match Hugepage_filler.free f a ~pages:8 with
  | Hugepage_filler.Still_tracked -> ()
  | Hugepage_filler.Hugepage_empty _ -> Alcotest.fail "should still be tracked");
  check_int "8 used" 8 (Hugepage_filler.used_pages f);
  (match Hugepage_filler.free f b ~pages:8 with
  | Hugepage_filler.Hugepage_empty _ -> ()
  | Hugepage_filler.Still_tracked -> Alcotest.fail "should now be empty")

let test_filler_double_free () =
  let f = Hugepage_filler.create () in
  Hugepage_filler.add_hugepage f ~base:0 ~kind:Hugepage_filler.Long_lived ~donated:false
    ~t_used:0;
  let a = Option.get (Hugepage_filler.allocate f ~kind:Hugepage_filler.Long_lived ~pages:4) in
  (* Keep a second run live so the hugepage stays tracked after the first
     free; the second free of [a] must then be detected as a double free. *)
  let _b = Hugepage_filler.allocate f ~kind:Hugepage_filler.Long_lived ~pages:4 in
  ignore (Hugepage_filler.free f a ~pages:4);
  Alcotest.check_raises "double free" (Invalid_argument "Hugepage_filler.free: page not in use")
    (fun () -> ignore (Hugepage_filler.free f a ~pages:4))

let test_filler_donated_tail () =
  let f = Hugepage_filler.create () in
  Hugepage_filler.add_hugepage f ~base:0 ~kind:Hugepage_filler.Long_lived ~donated:true
    ~t_used:64;
  check_int "tail used" 64 (Hugepage_filler.used_pages f);
  check_int "slack free" 192 (Hugepage_filler.free_pages f);
  (* Slack is allocatable. *)
  (match Hugepage_filler.allocate f ~kind:Hugepage_filler.Long_lived ~pages:100 with
  | Some a -> check_int "slack run after tail" (64 * page) a
  | None -> Alcotest.fail "slack not allocatable")

let test_filler_subrelease () =
  let vm = Wsc_os.Vm.create () in
  let base = Wsc_os.Vm.mmap vm ~hugepages:1 in
  let f = Hugepage_filler.create () in
  Hugepage_filler.add_hugepage f ~base ~kind:Hugepage_filler.Long_lived ~donated:false
    ~t_used:0;
  ignore (Option.get (Hugepage_filler.allocate f ~kind:Hugepage_filler.Long_lived ~pages:16));
  let released = Hugepage_filler.subrelease f vm ~max_pages:100 in
  check_int "released 100" 100 released;
  check_int "released accounted" 100 (Hugepage_filler.released_pages f);
  check_int "free shrank" (256 - 16 - 100) (Hugepage_filler.free_pages f);
  Alcotest.(check bool) "THP broken" false (Wsc_os.Vm.is_huge_backed vm base)

(* {1 Hugepage_region} *)

let test_region_allocate_free () =
  let vm = Wsc_os.Vm.create () in
  let r = Hugepage_region.create vm ~hugepages_per_region:4 in
  let a = Hugepage_region.allocate r ~pages:300 in
  check_int "one region" 1 (Hugepage_region.regions r);
  check_int "used" 300 (Hugepage_region.used_pages r);
  let b = Hugepage_region.allocate r ~pages:300 in
  check_int "packs same region" 1 (Hugepage_region.regions r);
  check_bool "disjoint" true (b >= a + (300 * page) || a >= b + (300 * page));
  Hugepage_region.free r a ~pages:300;
  Hugepage_region.free r b ~pages:300;
  check_int "empty region unmapped" 0 (Hugepage_region.regions r);
  check_int "vm clean" 0 (Wsc_os.Vm.mapped_bytes vm)

let test_region_overflow_to_new_region () =
  let vm = Wsc_os.Vm.create () in
  let r = Hugepage_region.create vm ~hugepages_per_region:2 in
  ignore (Hugepage_region.allocate r ~pages:400);
  ignore (Hugepage_region.allocate r ~pages:400);
  check_int "second region created" 2 (Hugepage_region.regions r)

let test_region_bad_free () =
  let vm = Wsc_os.Vm.create () in
  let r = Hugepage_region.create vm ~hugepages_per_region:2 in
  let a = Hugepage_region.allocate r ~pages:10 in
  Alcotest.check_raises "free of free pages"
    (Invalid_argument "Hugepage_region.free: page not in use") (fun () ->
      Hugepage_region.free r (a + (10 * page)) ~pages:10)

(* {1 Hugepage_cache} *)

let test_cache_reuse () =
  let vm = Wsc_os.Vm.create () in
  let c = Hugepage_cache.create vm in
  let g1 = Hugepage_cache.allocate c ~hugepages:4 in
  check_bool "first is fresh" true g1.Hugepage_cache.fresh;
  Hugepage_cache.free c g1.Hugepage_cache.base ~hugepages:4;
  check_int "cached" 4 (Hugepage_cache.cached_hugepages c);
  let g2 = Hugepage_cache.allocate c ~hugepages:2 in
  check_bool "reused" false g2.Hugepage_cache.fresh;
  check_int "remaining cached" 2 (Hugepage_cache.cached_hugepages c)

let test_cache_split () =
  let vm = Wsc_os.Vm.create () in
  let c = Hugepage_cache.create vm in
  let g = Hugepage_cache.allocate c ~hugepages:4 in
  Hugepage_cache.free c g.Hugepage_cache.base ~hugepages:4;
  let g1 = Hugepage_cache.allocate c ~hugepages:1 in
  let g2 = Hugepage_cache.allocate c ~hugepages:3 in
  check_bool "both reused" true
    ((not g1.Hugepage_cache.fresh) && not g2.Hugepage_cache.fresh);
  check_int "drained" 0 (Hugepage_cache.cached_hugepages c)

let test_cache_release () =
  let vm = Wsc_os.Vm.create () in
  let c = Hugepage_cache.create vm in
  let g = Hugepage_cache.allocate c ~hugepages:8 in
  Hugepage_cache.free c g.Hugepage_cache.base ~hugepages:8;
  (* The first release only establishes the low watermark (demand-based
     release: nothing is provably surplus yet). *)
  let released = Hugepage_cache.release c ~max_hugepages:8 in
  check_int "first release arms the watermark" 0 released;
  (* Runs are released whole; an 8-run exceeds a budget of 5. *)
  let released = Hugepage_cache.release c ~max_hugepages:5 in
  check_int "whole runs only" 0 released;
  let released = Hugepage_cache.release c ~max_hugepages:8 in
  check_int "released all" 8 released;
  check_int "vm unmapped" 0 (Wsc_os.Vm.mapped_bytes vm)

(* {1 Sampler} *)

let test_sampler_period () =
  let s = Sampler.create ~period_bytes:1000 in
  let sampled = ref 0 in
  for i = 1 to 100 do
    if Sampler.on_alloc s i ~size:100 ~now:0.0 then incr sampled
  done;
  (* 100 allocs x 100 B = 10_000 B -> exactly 10 samples. *)
  check_int "one sample per period" 10 !sampled

let test_sampler_lifetime () =
  let s = Sampler.create ~period_bytes:100 in
  check_bool "sampled" true (Sampler.on_alloc s 42 ~size:150 ~now:10.0);
  (match Sampler.on_free s 42 ~now:35.0 with
  | Some (size, lifetime) ->
    check_int "size" 150 size;
    check_close "lifetime" 1e-9 25.0 lifetime
  | None -> Alcotest.fail "expected sample");
  Alcotest.(check bool) "second free not tracked" true (Sampler.on_free s 42 ~now:40.0 = None)

let test_sampler_untracked_free () =
  let s = Sampler.create ~period_bytes:1_000_000 in
  Alcotest.(check bool) "not sampled" true (Sampler.on_free s 7 ~now:0.0 = None)

let test_sampler_huge_alloc () =
  let s = Sampler.create ~period_bytes:1000 in
  check_bool "giant alloc sampled" true (Sampler.on_alloc s 1 ~size:1_000_000 ~now:0.0);
  (* Counter must stay sane afterwards. *)
  let sampled = ref 0 in
  for i = 2 to 101 do
    if Sampler.on_alloc s i ~size:100 ~now:0.0 then incr sampled
  done;
  check_bool "subsequent sampling plausible" true (!sampled >= 8 && !sampled <= 12)

(* {1 Telemetry} *)

let test_telemetry_charges () =
  let t = Telemetry.create () in
  Telemetry.charge_tier t Wsc_hw.Cost_model.Per_cpu_cache 3.1;
  Telemetry.charge_tier t Wsc_hw.Cost_model.Per_cpu_cache 3.1;
  Telemetry.charge_prefetch t 0.9;
  check_close "tier ns" 1e-9 6.2 (Telemetry.tier_ns t Wsc_hw.Cost_model.Per_cpu_cache);
  check_close "total" 1e-9 7.1 (Telemetry.total_malloc_ns t)

let test_telemetry_live_bytes () =
  let t = Telemetry.create () in
  Telemetry.record_alloc t ~requested:100 ~rounded:112;
  Telemetry.record_alloc t ~requested:50 ~rounded:56;
  check_int "live requested" 150 (Telemetry.live_requested_bytes t);
  check_int "internal frag" 18 (Telemetry.internal_fragmentation_bytes t);
  Telemetry.record_free t ~requested:100 ~rounded:112;
  check_int "after free" 50 (Telemetry.live_requested_bytes t);
  check_int "counts" 2 (Telemetry.alloc_count t);
  check_int "frees" 1 (Telemetry.free_count t)

let test_telemetry_lifetime_fractions () =
  let t = Telemetry.create () in
  (* 512 B objects: 3 short-lived, 1 long-lived. *)
  Telemetry.record_lifetime t ~size:512 ~lifetime_ns:1e4;
  Telemetry.record_lifetime t ~size:512 ~lifetime_ns:1e5;
  Telemetry.record_lifetime t ~size:512 ~lifetime_ns:1e4;
  Telemetry.record_lifetime t ~size:512 ~lifetime_ns:1e12;
  check_close "3/4 under 1ms" 1e-9 0.75
    (Telemetry.lifetime_fraction t ~size_min:1 ~size_max:1024 ~lifetime_below_ns:1e6);
  check_close "none in other range" 1e-9 0.0
    (Telemetry.lifetime_fraction t ~size_min:1_000_000 ~size_max:2_000_000
       ~lifetime_below_ns:1e6)

let test_telemetry_vcpu_misses () =
  let t = Telemetry.create () in
  Telemetry.record_front_end_miss t ~vcpu:0;
  Telemetry.record_front_end_miss t ~vcpu:0;
  Telemetry.record_front_end_miss t ~vcpu:19;
  let misses = Telemetry.front_end_misses t in
  check_int "vcpu0" 2 misses.(0);
  check_int "vcpu19" 1 misses.(19)

let test_telemetry_reuse () =
  let t = Telemetry.create () in
  Telemetry.record_object_reuse t ~remote:true;
  Telemetry.record_object_reuse t ~remote:false;
  Telemetry.record_object_reuse t ~remote:false;
  Telemetry.record_object_reuse t ~remote:false;
  check_close "remote fraction" 1e-9 0.25 (Telemetry.remote_reuse_fraction t)

let suite =
  [
    ( "size_class",
      [
        Alcotest.test_case "count in 80-90" `Quick test_size_class_count;
        Alcotest.test_case "bounds" `Quick test_size_class_bounds;
        Alcotest.test_case "monotone" `Quick test_size_class_monotone;
        Alcotest.test_case "of_size" `Quick test_size_class_of_size;
        test_size_class_of_size_roundtrip;
        Alcotest.test_case "capacity" `Quick test_size_class_capacity;
        Alcotest.test_case "waste bound" `Quick test_size_class_waste_bound;
        Alcotest.test_case "batch" `Quick test_size_class_batch;
        Alcotest.test_case "internal slack" `Quick test_size_class_internal_slack;
      ] );
    ( "span",
      [
        Alcotest.test_case "fresh" `Quick test_span_fresh;
        Alcotest.test_case "pop/push roundtrip" `Quick test_span_pop_push_roundtrip;
        Alcotest.test_case "distinct addresses" `Quick test_span_addresses_distinct;
        Alcotest.test_case "double free" `Quick test_span_double_free;
        Alcotest.test_case "wild free" `Quick test_span_wild_free;
        Alcotest.test_case "misaligned free" `Quick test_span_misaligned_free;
        Alcotest.test_case "large span" `Quick test_span_large;
        Alcotest.test_case "fragmented bytes" `Quick test_span_fragmented_bytes;
        test_span_invariant_property;
      ] );
    ( "page_map",
      [
        Alcotest.test_case "register/lookup" `Quick test_page_map_register_lookup;
        Alcotest.test_case "overlap rejected" `Quick test_page_map_overlap_rejected;
        Alcotest.test_case "unregister" `Quick test_page_map_unregister;
        Alcotest.test_case "failed register changes nothing" `Quick
          test_page_map_failed_register_unchanged;
        Alcotest.test_case "failed unregister changes nothing" `Quick
          test_page_map_failed_unregister_unchanged;
        Alcotest.test_case "span straddling leaves" `Quick test_page_map_leaf_straddle;
      ] );
    ( "hugepage_filler",
      [
        Alcotest.test_case "allocate from added" `Quick test_filler_allocates_from_added;
        Alcotest.test_case "densest first" `Quick test_filler_densest_first;
        Alcotest.test_case "set isolation" `Quick test_filler_set_isolation;
        Alcotest.test_case "free to empty" `Quick test_filler_free_and_empty;
        Alcotest.test_case "partial free" `Quick test_filler_partial_free;
        Alcotest.test_case "double free" `Quick test_filler_double_free;
        Alcotest.test_case "donated tail" `Quick test_filler_donated_tail;
        Alcotest.test_case "subrelease" `Quick test_filler_subrelease;
      ] );
    ( "hugepage_region",
      [
        Alcotest.test_case "allocate/free" `Quick test_region_allocate_free;
        Alcotest.test_case "overflow to new region" `Quick test_region_overflow_to_new_region;
        Alcotest.test_case "bad free" `Quick test_region_bad_free;
      ] );
    ( "hugepage_cache",
      [
        Alcotest.test_case "reuse" `Quick test_cache_reuse;
        Alcotest.test_case "split" `Quick test_cache_split;
        Alcotest.test_case "release" `Quick test_cache_release;
      ] );
    ( "sampler",
      [
        Alcotest.test_case "period" `Quick test_sampler_period;
        Alcotest.test_case "lifetime" `Quick test_sampler_lifetime;
        Alcotest.test_case "untracked free" `Quick test_sampler_untracked_free;
        Alcotest.test_case "huge alloc" `Quick test_sampler_huge_alloc;
      ] );
    ( "telemetry",
      [
        Alcotest.test_case "charges" `Quick test_telemetry_charges;
        Alcotest.test_case "live bytes" `Quick test_telemetry_live_bytes;
        Alcotest.test_case "lifetime fractions" `Quick test_telemetry_lifetime_fractions;
        Alcotest.test_case "vcpu misses" `Quick test_telemetry_vcpu_misses;
        Alcotest.test_case "reuse" `Quick test_telemetry_reuse;
      ] );
  ]
