(* Redis under redis-benchmark (Sec. 2.3):

     dune exec examples/redis_benchmark.exe

   Simulates the paper's Redis v7.0.8 benchmark setup — single-threaded,
   a 100K-key keyspace of ~1000 B values, high request rate — and prints a
   redis-benchmark-style summary plus the allocator's view.  Redis is the
   workload the paper excludes from the multi-threaded optimizations
   (Figs. 10/14, Table 1) but includes for the lifetime-aware filler
   (Table 2: +1.05% throughput, -7.02% memory). *)

open Core
module Units = Substrate.Units
module Malloc = Tcmalloc.Malloc
module Driver = Workload.Driver

let () =
  let app = Workload.Apps.redis in
  Printf.printf "simulating redis-benchmark: single-threaded, ~100K-key keyspace, 1000B values\n%!";
  let job = Quick.run_app ~duration_ns:(30.0 *. Units.sec) app in
  let driver = job.Fleet_sim.Machine.driver in
  let requests = Driver.requests_completed driver in
  Printf.printf "\n====== simulated workload ======\n";
  Printf.printf "  %.0f requests completed in 30.00 seconds\n" requests;
  Printf.printf "  %.2f requests per second (allocator-visible)\n" (requests /. 30.0);
  Printf.printf "  %d allocations issued, %d objects still live\n"
    (Driver.allocations driver) (Driver.live_objects driver);
  let stats = Backend.heap_stats job.Fleet_sim.Machine.backend in
  Printf.printf "\n====== allocator view ======\n";
  Printf.printf "  keyspace + working set : %s live\n"
    (Units.bytes_to_string stats.Malloc.live_requested_bytes);
  Printf.printf "  simulated RSS          : %s (peak %s)\n"
    (Units.bytes_to_string stats.Malloc.resident_bytes)
    (Units.bytes_to_string (Driver.peak_rss_bytes driver));
  Printf.printf "  fragmentation ratio    : %.1f%%\n"
    (100.0 *. Malloc.fragmentation_ratio stats);
  Printf.printf "  hugepage coverage      : %.1f%%\n"
    (100.0 *. Backend.hugepage_coverage job.Fleet_sim.Machine.backend);
  (* Redis is single-threaded: exactly one per-CPU cache gets populated,
     which is why the paper omits it from the per-CPU cache study. *)
  Printf.printf "  populated per-CPU caches: %d (single-threaded)\n"
    (List.length
       (Tcmalloc.Per_cpu_cache.populated_vcpus
          (Malloc.per_cpu_caches (Backend.tc_exn job.Fleet_sim.Machine.backend))))
