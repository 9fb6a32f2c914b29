(* Robustness tests: memory limits, the reclaim cascade, fault injection,
   free-path hardening, heap audits, and fault-schedule determinism. *)

open Wsc_substrate
module Topology = Wsc_hw.Topology
module Vm = Wsc_os.Vm
module Fault = Wsc_os.Fault
module Config = Wsc_tcmalloc.Config
module Size_class = Wsc_tcmalloc.Size_class
module Malloc = Wsc_tcmalloc.Malloc
module Backend = Wsc_backend.Backend
module Telemetry = Wsc_tcmalloc.Telemetry
module Audit = Wsc_tcmalloc.Audit
module Per_cpu_cache = Wsc_tcmalloc.Per_cpu_cache
module Pageheap = Wsc_tcmalloc.Pageheap
module Span = Wsc_tcmalloc.Span
module Rseq = Wsc_os.Rseq
module Apps = Wsc_workload.Apps
module Driver = Wsc_workload.Driver
module Machine = Wsc_fleet.Machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mib = 1024 * 1024

let make_malloc () =
  let clock = Clock.create () in
  let m = Malloc.create ~topology:Topology.uniprocessor ~clock () in
  (clock, m)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* Run [f], expecting an [Invalid_argument] whose message mentions every
   given fragment (messages embed addresses, so exact matching is out). *)
let expect_free_error fragments f =
  match f () with
  | () ->
    Alcotest.failf "expected Invalid_argument mentioning %s"
      (String.concat ", " fragments)
  | exception Invalid_argument msg ->
    List.iter
      (fun frag ->
        check_bool (Printf.sprintf "%S in %S" frag msg) true (contains msg frag))
      fragments

(* {1 Hardened free error paths} *)

let test_double_free_cached_tier () =
  let _, m = make_malloc () in
  let a = Malloc.malloc m ~cpu:0 ~size:128 in
  Malloc.free m ~cpu:0 a ~size:128;
  (* The object sits in the per-CPU cache: the span still counts it
     outstanding, and its slot state (cached, not held) catches this. *)
  expect_free_error [ "double free"; "tier=front-end"; Printf.sprintf "addr=0x%x" a ]
    (fun () -> Malloc.free m ~cpu:0 a ~size:128)

let test_double_free_span_tier () =
  let _, m = make_malloc () in
  let keep = Malloc.malloc m ~cpu:0 ~size:128 in
  let a = Malloc.malloc m ~cpu:0 ~size:128 in
  Malloc.free m ~cpu:0 a ~size:128;
  (* Drain the caches so the object returns to its span ([keep] pins the
     span in the central free list), then free it again. *)
  ignore (Malloc.release_memory m ~target_bytes:(64 * mib));
  expect_free_error [ "double free"; "tier=central-free-list" ] (fun () ->
      Malloc.free m ~cpu:0 a ~size:128);
  Malloc.free m ~cpu:0 keep ~size:128

let test_wrong_class_free () =
  let _, m = make_malloc () in
  let a = Malloc.malloc m ~cpu:0 ~size:128 in
  expect_free_error [ "size mismatch"; "tier=central-free-list" ] (fun () ->
      Malloc.free m ~cpu:0 a ~size:4096)

let test_misaligned_free () =
  let _, m = make_malloc () in
  let a = Malloc.malloc m ~cpu:0 ~size:128 in
  expect_free_error [ "misaligned free"; Printf.sprintf "addr=0x%x" (a + 1) ] (fun () ->
      Malloc.free m ~cpu:0 (a + 1) ~size:128)

let test_small_free_of_large_alloc () =
  let _, m = make_malloc () in
  let a = Malloc.malloc m ~cpu:0 ~size:mib in
  expect_free_error [ "size mismatch"; "large" ] (fun () ->
      Malloc.free m ~cpu:0 a ~size:128)

let test_large_free_errors () =
  let _, m = make_malloc () in
  let a = Malloc.malloc m ~cpu:0 ~size:mib in
  expect_free_error [ "size mismatch"; "page count" ] (fun () ->
      Malloc.free m ~cpu:0 a ~size:(2 * mib));
  expect_free_error [ "misaligned free"; "interior" ] (fun () ->
      Malloc.free m ~cpu:0 (a + Units.tcmalloc_page_size) ~size:mib);
  Malloc.free m ~cpu:0 a ~size:mib;
  (* The span left the page map when it was freed: a second free of the
     same region is indistinguishable from a wild pointer. *)
  expect_free_error [ "wild pointer" ] (fun () -> Malloc.free m ~cpu:0 a ~size:mib)

let prop_double_free_detected =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"double_free_always_detected" ~count:40
       QCheck.(triple (int_range 1 40) (int_range 8 4096) bool)
       (fun (n, size, drain_first) ->
         let _, m = make_malloc () in
         let addrs = List.init n (fun _ -> Malloc.malloc m ~cpu:0 ~size) in
         List.iter (fun a -> Malloc.free m ~cpu:0 a ~size) addrs;
         (* Optionally push everything back through the cascade so the
            second frees hit span/pageheap tiers instead of the caches. *)
         if drain_first then ignore (Malloc.release_memory m ~target_bytes:(256 * mib));
         List.for_all
           (fun a ->
             match Malloc.free m ~cpu:0 a ~size with
             | () -> false
             | exception Invalid_argument _ -> true)
           addrs))

(* Double-free detection under address reuse: random malloc / free /
   re-free / reclaim / CPU-idle / clock-advance runs against a model of the
   addresses the application holds.  Frees feed the caches malloc draws
   from and reclaim returns spans for reuse, so addresses are reissued; a
   re-free of a reissued address is a legal free.  A free must raise
   exactly when the model says the address is not held, with the rseq
   injector off and on, and the heap must audit clean at the end. *)
type df_op =
  | Df_malloc of int * int  (* size-class selector, cpu *)
  | Df_free of int * int  (* held-address selector, cpu *)
  | Df_refree of int * int  (* freed-address selector, cpu *)
  | Df_release of int  (* target KiB *)
  | Df_idle of int * bool  (* cpu, flush *)
  | Df_advance of int  (* ms *)

let df_op_print = function
  | Df_malloc (c, cpu) -> Printf.sprintf "malloc(%d,cpu%d)" c cpu
  | Df_free (i, cpu) -> Printf.sprintf "free(%d,cpu%d)" i cpu
  | Df_refree (i, cpu) -> Printf.sprintf "refree(%d,cpu%d)" i cpu
  | Df_release k -> Printf.sprintf "release(%dKiB)" k
  | Df_idle (cpu, flush) -> Printf.sprintf "idle(cpu%d,%b)" cpu flush
  | Df_advance ms -> Printf.sprintf "advance(%dms)" ms

let df_ops_arb =
  let open QCheck.Gen in
  let cpu = int_bound 7 and sel = int_bound 1_000_000 in
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map df_op_print ops))
    (list_size (int_range 1 400)
       (frequency
          [
            (6, map2 (fun c cpu -> Df_malloc (c, cpu)) sel cpu);
            (4, map2 (fun i cpu -> Df_free (i, cpu)) sel cpu);
            (3, map2 (fun i cpu -> Df_refree (i, cpu)) sel cpu);
            (1, map (fun k -> Df_release k) (int_range 1 4096));
            (1, map2 (fun cpu flush -> Df_idle (cpu, flush)) cpu bool);
            (1, map (fun ms -> Df_advance ms) (int_range 1 1500));
          ]))

let run_double_free_model ~preempt_prob ops =
  let clock = Clock.create () in
  let rseq =
    if preempt_prob > 0.0 then
      Some (Rseq.create { Rseq.seed = 3; preempt_prob; max_restarts = 3 })
    else None
  in
  let m = Malloc.create ?rseq ~topology:Topology.default ~clock () in
  (* Application-held (addr, size), and every freed (addr, size), most
     recent first. *)
  let held = ref [] and freed = ref [] in
  let pick l i = List.nth l (i mod List.length l) in
  let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
  let free_held ~cpu (a, size) =
    held := List.filter (fun (b, _) -> b <> a) !held;
    freed := (a, size) :: !freed;
    not (raises (fun () -> Malloc.free m ~cpu a ~size))
  in
  let ok =
    List.for_all
      (function
        | Df_malloc (c, cpu) ->
          (* Mostly the small classes, so objects are reissued; sometimes
             any class. *)
          let cls = if c mod 4 = 0 then c mod Size_class.count else c mod 12 in
          let size = Size_class.size cls in
          let a = Malloc.malloc m ~cpu ~size in
          let fresh = not (List.mem_assoc a !held) in
          held := (a, size) :: !held;
          fresh
        | Df_free (_, _) when !held = [] -> true
        | Df_free (i, cpu) -> free_held ~cpu (pick !held i)
        | Df_refree (_, _) when !freed = [] -> true
        | Df_refree (i, cpu) -> (
          (* Mostly a recent free, still cached; sometimes any. *)
          let recent = List.filteri (fun k _ -> k < 8) !freed in
          let a, size = pick (if i land 1 = 0 then recent else !freed) (i lsr 1) in
          match List.assoc_opt a !held with
          | Some size -> free_held ~cpu (a, size)
          | None -> raises (fun () -> Malloc.free m ~cpu a ~size))
        | Df_release kib ->
          ignore (Malloc.release_memory m ~target_bytes:(kib * 1024));
          true
        | Df_idle (cpu, flush) ->
          Malloc.cpu_idle ~flush m ~cpu;
          true
        | Df_advance ms ->
          Clock.advance clock (float_of_int ms *. Units.ms);
          true)
      ops
  in
  ok && Audit.is_clean (Audit.run m)

let prop_double_free_model ~name ~preempt_prob =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:60 df_ops_arb (run_double_free_model ~preempt_prob))

let prop_wrong_size_free_detected =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"wrong_size_free_detected" ~count:60
       QCheck.(pair (int_range 8 300_000) (int_range 8 300_000))
       (fun (s1, s2) ->
         (* Only pairs that round to different size classes are erroneous. *)
         if Size_class.index_of_size s1 = Size_class.index_of_size s2 then true
         else begin
           let _, m = make_malloc () in
           let a = Malloc.malloc m ~cpu:0 ~size:s1 in
           match Malloc.free m ~cpu:0 a ~size:s2 with
           | () -> false
           | exception Invalid_argument _ -> true
         end))

(* {1 Reclaim cascade} *)

let test_release_memory_cascade () =
  let _, m = make_malloc () in
  (* Several spans' worth of small objects; free most, keep a few live so
     the backing hugepage stays partially used (subrelease, not unmap). *)
  let addrs = List.init 400 (fun _ -> Malloc.malloc m ~cpu:0 ~size:128) in
  let live = List.filteri (fun i _ -> i < 40) addrs in
  let dead = List.filteri (fun i _ -> i >= 40) addrs in
  List.iter (fun a -> Malloc.free m ~cpu:0 a ~size:128) dead;
  let tel = Malloc.telemetry m in
  let resident_before = (Malloc.heap_stats m).Malloc.resident_bytes in
  let o = Malloc.release_memory m ~target_bytes:(64 * mib) in
  check_bool "front-end drained" true (o.Malloc.front_end_bytes > 0);
  check_bool "transfer drained" true (o.Malloc.transfer_bytes > 0);
  check_bool "idle spans returned" true (o.Malloc.cfl_span_bytes > 0);
  check_bool "bytes released to OS" true (o.Malloc.os_released_bytes > 0);
  check_int "front-end empty after drain" 0
    (Per_cpu_cache.cached_bytes (Malloc.per_cpu_caches m));
  check_bool "resident shrank" true
    ((Malloc.heap_stats m).Malloc.resident_bytes < resident_before);
  (* Telemetry mirrors the outcome. *)
  check_int "tier telemetry: front-end" o.Malloc.front_end_bytes
    (Telemetry.reclaimed_bytes tel Telemetry.Front_end);
  check_int "tier telemetry: transfer" o.Malloc.transfer_bytes
    (Telemetry.reclaimed_bytes tel Telemetry.Transfer);
  check_int "tier telemetry: cfl" o.Malloc.cfl_span_bytes
    (Telemetry.reclaimed_bytes tel Telemetry.Cfl_spans);
  check_int "tier telemetry: os" o.Malloc.os_released_bytes
    (Telemetry.reclaimed_bytes tel Telemetry.Os_release);
  check_int "one reclaim event" 1 (Telemetry.reclaim_events tel);
  (* A non-positive target is a recorded no-op. *)
  let z = Malloc.release_memory m ~target_bytes:0 in
  check_int "zero target reclaims nothing" 0
    (z.Malloc.front_end_bytes + z.Malloc.transfer_bytes + z.Malloc.cfl_span_bytes
   + z.Malloc.os_released_bytes);
  check_int "zero target records no event" 1 (Telemetry.reclaim_events tel);
  List.iter (fun a -> Malloc.free m ~cpu:0 a ~size:128) live

let test_release_skips_drains_when_backlog_suffices () =
  let _, m = make_malloc () in
  (* Populate the per-CPU cache... *)
  let small = List.init 50 (fun _ -> Malloc.malloc m ~cpu:0 ~size:256) in
  List.iter (fun a -> Malloc.free m ~cpu:0 a ~size:256) small;
  let cached_before = Per_cpu_cache.cached_bytes (Malloc.per_cpu_caches m) in
  check_bool "cache populated" true (cached_before > 0);
  (* ...and give the pageheap a large releasable backlog. *)
  let big = Malloc.malloc m ~cpu:0 ~size:(4 * mib) in
  Malloc.free m ~cpu:0 big ~size:(4 * mib);
  let o = Malloc.release_memory m ~target_bytes:mib in
  check_int "front-end untouched" 0 o.Malloc.front_end_bytes;
  check_int "transfer untouched" 0 o.Malloc.transfer_bytes;
  check_int "hot caches preserved" cached_before
    (Per_cpu_cache.cached_bytes (Malloc.per_cpu_caches m))

let test_oom_after_exhausted_retries () =
  let _, m = make_malloc () in
  let vm = Malloc.vm m in
  Vm.set_hard_limit vm (Some Units.hugepage_size);
  (* A 4 MiB span needs two hugepages: no amount of reclaim helps. *)
  check_bool "OOM surfaces" true
    (try
       ignore (Malloc.malloc m ~cpu:0 ~size:(4 * mib));
       false
     with Stdlib.Out_of_memory -> true);
  let tel = Malloc.telemetry m in
  let retries = (Malloc.config m).Config.reclaim_retries in
  check_int "every retry consumed" retries (Telemetry.reclaim_retries tel);
  check_int "one OOM recorded" 1 (Telemetry.oom_events tel);
  check_bool "limit failures counted" true (Vm.limit_mmap_failures vm > retries)

let test_transient_burst_survival () =
  let _, m = make_malloc () in
  let vm = Malloc.vm m in
  let remaining = ref 2 in
  Vm.set_fault_hook vm
    (Some
       (fun ~bytes:_ ->
         if !remaining > 0 then begin
           decr remaining;
           true
         end
         else false));
  (* Two consecutive mmap refusals stay within the retry budget. *)
  let a = Malloc.malloc m ~cpu:0 ~size:mib in
  check_bool "allocation survived the burst" true (a > 0);
  let tel = Malloc.telemetry m in
  check_int "two retries" 2 (Telemetry.reclaim_retries tel);
  check_int "no OOM" 0 (Telemetry.oom_events tel);
  check_int "failures recorded" 2 (Vm.transient_mmap_failures vm)

let test_soft_limit_watchdog () =
  let clock, m = make_malloc () in
  let addrs = List.init 300 (fun _ -> Malloc.malloc m ~cpu:0 ~size:512) in
  List.iter (fun a -> Malloc.free m ~cpu:0 a ~size:512) addrs;
  Vm.set_soft_limit (Malloc.vm m) (Some 1);
  let tel = Malloc.telemetry m in
  check_int "no reclaim yet" 0 (Telemetry.reclaim_events tel);
  Clock.advance clock (2.0 *. (Malloc.config m).Config.soft_limit_check_interval_ns);
  check_bool "watchdog ran the cascade" true (Telemetry.reclaim_events tel > 0);
  check_int "caches drained" 0 (Per_cpu_cache.cached_bytes (Malloc.per_cpu_caches m))

(* {1 Heap auditor} *)

let test_audit_clean () =
  let _, m = make_malloc () in
  check_bool "empty heap is clean" true (Audit.is_clean (Audit.run m));
  let addrs = List.init 200 (fun i -> Malloc.malloc m ~cpu:0 ~size:(64 + (i mod 7 * 512))) in
  let big = Malloc.malloc m ~cpu:0 ~size:(3 * mib) in
  let r = Audit.run m in
  check_bool "live heap is clean" true (Audit.is_clean r);
  check_bool "spans walked" true (r.Audit.spans_walked > 0);
  check_bool "hugepages walked" true (r.Audit.hugepages_walked > 0);
  List.iteri (fun i a -> Malloc.free m ~cpu:0 a ~size:(64 + (i mod 7 * 512))) addrs;
  Malloc.free m ~cpu:0 big ~size:(3 * mib);
  ignore (Malloc.release_memory m ~target_bytes:(256 * mib));
  check_bool "clean after full reclaim" true (Audit.is_clean (Audit.run m))

let test_audit_reports_hard_limit_breach () =
  let _, m = make_malloc () in
  ignore (Malloc.malloc m ~cpu:0 ~size:mib);
  (* Install a limit below current residency: the auditor must report it
     as a structured violation, not assert. *)
  Vm.set_hard_limit (Malloc.vm m) (Some 1);
  let r = Audit.run m in
  check_bool "violation reported" false (Audit.is_clean r);
  check_bool "named check" true
    (List.exists (fun v -> v.Audit.check = "hard-limit") r.Audit.violations);
  check_bool "printable" true (contains (Audit.to_string r) "hard-limit")

(* Every small object is in exactly one place: relabelling one through
   {!Span} without moving it must be reported. *)
let slot_flip_reported flip () =
  let _, m = make_malloc () in
  let held = List.init 20 (fun _ -> Malloc.malloc m ~cpu:0 ~size:128) in
  let cached = Malloc.malloc m ~cpu:0 ~size:128 in
  Malloc.free m ~cpu:0 cached ~size:128;
  check_bool "clean before the flip" true (Audit.is_clean (Audit.run m));
  let span_of a = Option.get (Pageheap.span_of_addr (Malloc.pageheap m) a) in
  (match flip with
  | `Cached_to_held -> ignore (Span.mark_held (span_of cached) cached)
  | `Held_to_cached ->
    let a = List.hd held in
    ignore (Span.mark_cached (span_of a) a));
  let r = Audit.run m in
  check_bool "violation reported" false (Audit.is_clean r);
  check_bool "named check" true
    (List.exists (fun v -> v.Audit.check = "torn-operation") r.Audit.violations)

(* {1 Integration: survival under limits and faults} *)

let pressure_fault_config =
  {
    Fault.seed = 5;
    mmap_failure_rate = 0.02;
    mmap_failure_burst = 2;
    pressure_period_ns = 1.5 *. Units.sec;
    pressure_duration_ns = 0.4 *. Units.sec;
    pressure_bytes = 16 * mib;
    cpu_churn_period_ns = Units.sec;
  }

let test_memory_pressure_survival () =
  let hard = 512 * mib in
  let machine =
    Machine.create ~seed:7 ~soft_limit_bytes:(64 * mib) ~hard_limit_bytes:hard
      ~faults:pressure_fault_config ~audit_interval_ns:(0.5 *. Units.sec)
      ~platform:Topology.default
      ~jobs:[ Apps.by_name "redis" ]
      ()
  in
  Machine.run machine ~duration_ns:(3.0 *. Units.sec) ~epoch_ns:Units.ms;
  let job = List.hd (Machine.jobs machine) in
  let tel = Backend.telemetry job.Machine.backend in
  let vm = Backend.vm job.Machine.backend in
  (* The run completed: transient faults were absorbed, no OOM. *)
  check_bool "made progress" true (Driver.allocations job.Machine.driver > 10_000);
  check_bool "faults were injected" true (Vm.transient_mmap_failures vm > 0);
  check_int "no OOM" 0 (Telemetry.oom_events tel);
  (* The tight soft limit forced the cascade through every tier. *)
  check_bool "reclaim ran" true (Telemetry.reclaim_events tel > 0);
  List.iter
    (fun tier ->
      check_bool
        (Printf.sprintf "tier %s reclaimed bytes" (Telemetry.reclaim_tier_name tier))
        true
        (Telemetry.reclaimed_bytes tel tier > 0))
    Telemetry.all_reclaim_tiers;
  (* Residency stayed under the hard limit throughout. *)
  check_bool "peak RSS under hard limit" true
    (Driver.peak_rss_bytes job.Machine.driver <= hard);
  (* The heap stayed structurally consistent at every audit point. *)
  check_bool "audits taken" true (Driver.audit_reports job.Machine.driver <> []);
  check_int "zero audit violations" 0 (Driver.audit_violations job.Machine.driver)

(* {1 Determinism under a fault schedule} *)

type signature = {
  stats : Malloc.heap_stats;
  allocs : int;
  frees : int;
  requests : float;
  mmap_failures : int;
  transient : int;
  limit : int;
  reclaim_events : int;
  reclaim_retries : int;
  oom : int;
  reclaimed : int list;
  injected : int;
  audits : int;
  violations : int;
}

let run_signature () =
  let machine =
    Machine.create ~seed:11 ~soft_limit_bytes:(96 * mib) ~hard_limit_bytes:(512 * mib)
      ~faults:pressure_fault_config ~audit_interval_ns:Units.sec
      ~platform:Topology.default
      ~jobs:[ Apps.by_name "redis" ]
      ()
  in
  Machine.run machine ~duration_ns:(2.0 *. Units.sec) ~epoch_ns:Units.ms;
  let job = List.hd (Machine.jobs machine) in
  let tel = Backend.telemetry job.Machine.backend in
  let vm = Backend.vm job.Machine.backend in
  {
    stats = Backend.heap_stats job.Machine.backend;
    allocs = Telemetry.alloc_count tel;
    frees = Telemetry.free_count tel;
    requests = Driver.requests_completed job.Machine.driver;
    mmap_failures = Vm.mmap_failures vm;
    transient = Vm.transient_mmap_failures vm;
    limit = Vm.limit_mmap_failures vm;
    reclaim_events = Telemetry.reclaim_events tel;
    reclaim_retries = Telemetry.reclaim_retries tel;
    oom = Telemetry.oom_events tel;
    reclaimed =
      List.map (Telemetry.reclaimed_bytes tel) Telemetry.all_reclaim_tiers;
    injected = (match job.Machine.fault with Some f -> Fault.injected_failures f | None -> -1);
    audits = List.length (Driver.audit_reports job.Machine.driver);
    violations = Driver.audit_violations job.Machine.driver;
  }

let test_fault_schedule_determinism () =
  let a = run_signature () in
  let b = run_signature () in
  check_bool "faults actually fired" true (a.injected > 0);
  check_bool "reclaim actually ran" true (a.reclaim_events > 0);
  check_bool "bit-identical heap stats and telemetry" true (a = b)

let suite =
  [
    ( "free_hardening",
      [
        Alcotest.test_case "double free in cache tier" `Quick test_double_free_cached_tier;
        Alcotest.test_case "double free in span tier" `Quick test_double_free_span_tier;
        Alcotest.test_case "wrong class" `Quick test_wrong_class_free;
        Alcotest.test_case "misaligned" `Quick test_misaligned_free;
        Alcotest.test_case "small free of large alloc" `Quick test_small_free_of_large_alloc;
        Alcotest.test_case "large free errors" `Quick test_large_free_errors;
        prop_double_free_detected;
        prop_double_free_model ~name:"free_raises_iff_not_held" ~preempt_prob:0.0;
        prop_double_free_model ~name:"free_raises_iff_not_held_rseq" ~preempt_prob:0.05;
        prop_wrong_size_free_detected;
      ] );
    ( "reclaim",
      [
        Alcotest.test_case "cascade drains every tier" `Quick test_release_memory_cascade;
        Alcotest.test_case "backlog skips cache drains" `Quick
          test_release_skips_drains_when_backlog_suffices;
        Alcotest.test_case "oom after exhausted retries" `Quick
          test_oom_after_exhausted_retries;
        Alcotest.test_case "transient burst survival" `Quick test_transient_burst_survival;
        Alcotest.test_case "soft limit watchdog" `Quick test_soft_limit_watchdog;
      ] );
    ( "audit",
      [
        Alcotest.test_case "clean heaps stay clean" `Quick test_audit_clean;
        Alcotest.test_case "hard limit breach reported" `Quick
          test_audit_reports_hard_limit_breach;
        Alcotest.test_case "cached object marked held reported" `Quick
          (slot_flip_reported `Cached_to_held);
        Alcotest.test_case "held object marked cached reported" `Quick
          (slot_flip_reported `Held_to_cached);
      ] );
    ( "pressure_integration",
      [
        Alcotest.test_case "survival under limits and faults" `Slow
          test_memory_pressure_survival;
        Alcotest.test_case "fault schedule determinism" `Slow
          test_fault_schedule_determinism;
      ] );
  ]
