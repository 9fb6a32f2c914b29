(* Bit-identity golden: digests of a machine run, a small fleet, the raw
   distribution streams and a drained driver on pinned seeds.  Any change
   to driver event order, malloc state, telemetry, sampling or the
   pending-free and ticker queue disciplines moves one of these digests.
   A refactor that claims to change no simulated output must leave this
   test green; a change that moves them on purpose re-captures the values
   below and says so. *)

open Wsc_substrate
module Machine = Wsc_fleet.Machine
module Fleet = Wsc_fleet.Fleet
module Apps = Wsc_workload.Apps
module Profile = Wsc_workload.Profile
module Driver = Wsc_workload.Driver
module Backend = Wsc_backend.Backend
module Rseq = Wsc_os.Rseq
module Config = Wsc_tcmalloc.Config
module Malloc = Wsc_tcmalloc.Malloc
module Writer = Wsc_trace.Writer
module Recorder = Wsc_trace.Recorder
module Replay = Wsc_trace.Replay

let check_string = Alcotest.(check string)
let hex_digest (s : Machine.summary) = Digest.to_hex s.Machine.sm_digest

(* Machine-level outcome: driver event order, malloc state, telemetry, the
   pending-free calendar and Clock's ticker order.  Then drain the first
   job to empty (Driver.drain, i.e. drain_until infinity). *)
let test_machine_and_drain () =
  let m =
    Machine.create ~seed:42 ~platform:Wsc_hw.Topology.default
      ~jobs:[ Apps.fleet; Apps.monarch ] ()
  in
  Machine.run m ~duration_ns:(3.0 *. Units.sec) ~epoch_ns:Units.ms;
  check_string "machine digest" "c04c79435a0fcd693d3dc1fe509c494b"
    (hex_digest (Machine.summary m));
  let d = (List.hd (Machine.jobs m)).Machine.driver in
  Driver.drain d;
  check_string "post-drain counters" "live 0 allocs 29988"
    (Printf.sprintf "live %d allocs %d" (Driver.live_objects d)
       (Driver.allocations d))

(* Fleet sampling streams: categorical platform mix and Zipf binary draws. *)
let test_fleet_machines () =
  let f = Fleet.create ~seed:7 ~num_machines:6 ~num_binaries:50 () in
  let sums = Fleet.run f ~jobs:1 ~duration_ns:(0.5 *. Units.sec) ~epoch_ns:Units.ms in
  Alcotest.(check (list string))
    "fleet machine digests"
    [
      "a1845f48d20d3dd52e4481b28429be5c";
      "adee99cced397bd45bc32f6fabee0213";
      "887d85cf430b4c41237f0e1011124038";
      "02b8852952db96a3455814639482fb4b";
      "42e55a93045f12ac83adaf31f21030a9";
      "ccdc008ac338f137551c00fd30028c53";
    ]
    (List.map hex_digest sums)

(* Raw distribution streams, hex-exact. *)
let test_dist_stream () =
  let rng = Rng.create 99 in
  let buf = Buffer.create 4096 in
  for _ = 1 to 2000 do
    Buffer.add_string buf
      (Printf.sprintf "%d %d %h %h\n"
         (Dist.zipf rng ~n:50 ~s:0.9)
         (Dist.categorical rng Fleet.platform_mix)
         (Dist.sample Profile.fleet_size_dist rng)
         (Profile.sample_lifetime Apps.fleet rng ~size:512))
  done;
  check_string "dist stream digest" "3153f6263f76b00e7d08a2147c71a32a"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Restartable-sequence machines: two jobs of the optimized config under
   CPU churn, transient mmap faults and audits, so the rseq miss paths,
   both fallbacks and every per-CPU eviction (decay, resize, churn's
   drain_vcpu, the reclaim cascade's drain) run.  Each digest covers the
   machine summary, every job's whole Telemetry record and its injector's
   op, restart and fallback counts. *)
let rseq_machine_digest ~preempt_prob ~max_restarts =
  let faults =
    {
      Wsc_os.Fault.no_faults with
      seed = 3;
      mmap_failure_rate = 0.05;
      mmap_failure_burst = 1;
      cpu_churn_period_ns = 0.25 *. Units.sec;
    }
  in
  let m =
    Machine.create ~seed:3 ~config:Wsc_tcmalloc.Config.all_optimizations ~faults
      ~rseq:{ Rseq.seed = 3; preempt_prob; max_restarts }
      ~audit_interval_ns:(0.5 *. Units.sec) ~platform:Wsc_hw.Topology.default
      ~jobs:[ Apps.monarch; Apps.search_middle_tier ]
      ()
  in
  Machine.run m ~duration_ns:(3.0 *. Units.sec) ~epoch_ns:Units.ms;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (hex_digest (Machine.summary m));
  List.iter
    (fun (job : Machine.job) ->
      if Driver.audit_violations job.Machine.driver > 0 then
        Alcotest.failf "%s: heap audit found violations" job.Machine.profile.Profile.name;
      let tel = Backend.telemetry job.Machine.backend in
      let s = Rseq.stats (Option.get (Backend.rseq job.Machine.backend)) in
      Buffer.add_string buf (Digest.to_hex (Digest.string (Marshal.to_string tel [])));
      Buffer.add_string buf
        (Printf.sprintf " ops %d restarts %d fallbacks %d\n" s.Rseq.ops s.Rseq.restarts
           s.Rseq.fallbacks))
    (Machine.jobs m);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_rseq_mild () =
  check_string "rseq mild digest" "72ef5a8a03b299c6fc4e962df5f9b5be"
    (rseq_machine_digest ~preempt_prob:0.01 ~max_restarts:3)

let test_rseq_fallback_heavy () =
  check_string "rseq fallback-heavy digest" "4d0a1eccc268e0b8d8df2935d0c74f94"
    (rseq_machine_digest ~preempt_prob:0.2 ~max_restarts:1)

(* A region-heavy trace: 5 s of spanner on seed 1, whose 2.1 MiB-class
   allocations go to the hugepage region (Sec. 4.4), recorded, then
   replayed under the four arms of perfbench's trace workload.  One digest
   pins the encoded bytes (codec and live index); the other pins each
   arm's counts, peak RSS, final heap_stats and modelled allocator time,
   the fields perfbench's results line prints. *)
let test_spanner_trace () =
  let path = Filename.temp_file "wsc_refcheck" ".wtrace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore
        (Writer.with_file path (fun writer ->
             Recorder.record_app ~seed:1 ~duration_ns:(5.0 *. Units.sec) ~writer Apps.spanner));
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let arms =
        [
          ("tcmalloc-baseline", Config.baseline);
          ("tcmalloc-all", Config.all_optimizations);
          ("rpmalloc", Config.with_backend Backend.Rpmalloc Config.baseline);
          ("jemalloc", Config.with_backend Backend.Jemalloc Config.baseline);
        ]
      in
      let heap (h : Malloc.heap_stats) =
        String.concat " "
          (List.map string_of_int
             [
               h.Malloc.live_requested_bytes;
               h.Malloc.live_rounded_bytes;
               h.Malloc.front_end_cached_bytes;
               h.Malloc.transfer_cached_bytes;
               h.Malloc.cfl_fragmented_bytes;
               h.Malloc.pageheap_fragmented_bytes;
               h.Malloc.internal_fragmentation_bytes;
               h.Malloc.external_fragmentation_bytes;
               h.Malloc.resident_bytes;
             ])
      in
      let line =
        String.concat ";"
          (List.map
             (fun (name, (r : Replay.result)) ->
               Printf.sprintf "%s allocs=%d frees=%d retires=%d peak=%d heap=%s malloc_ns=%h" name
                 r.Replay.allocations r.Replay.frees r.Replay.retires r.Replay.peak_rss_bytes
                 (heap r.Replay.final_stats) r.Replay.malloc_ns)
             (Replay.run_configs ~jobs:1 ~configs:arms path))
      in
      check_string "spanner trace bytes" "af70021fee8eab0ff2b07b25cba2064e"
        (Digest.to_hex (Digest.string bytes));
      check_string "four-arm replay" "6611c8a6d05e950be6aac34b95892dc1"
        (Digest.to_hex (Digest.string line)))

(* Legacy per-thread front end (footnote 2), the only config that reads
   the driver's thread ids: 3 s of search_middle_tier, whose pool shrinks
   and regrows with fresh thread ids every 0.25 s.  The digest covers the
   machine summary and the job's whole Telemetry record, whose per-cache
   miss counts are indexed by thread id in this mode.  The same run under
   the per-CPU baseline must digest differently, or no thread id reached
   the front end. *)
let front_end_digest config =
  let m =
    Machine.create ~seed:13 ~config ~platform:Wsc_hw.Topology.default
      ~jobs:[ Apps.search_middle_tier ] ()
  in
  Machine.run m ~duration_ns:(3.0 *. Units.sec) ~epoch_ns:Units.ms;
  let buf = Buffer.create 256 in
  Buffer.add_string buf (hex_digest (Machine.summary m));
  List.iter
    (fun (job : Machine.job) ->
      let tel = Backend.telemetry job.Machine.backend in
      Buffer.add_string buf (Digest.to_hex (Digest.string (Marshal.to_string tel []))))
    (Machine.jobs m);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_per_thread_front_end () =
  let per_thread = front_end_digest Config.legacy_per_thread in
  check_string "per-thread digest" "b174d308dd99f20bd7ae0f4bfff4ee71" per_thread;
  if per_thread = front_end_digest Config.baseline then
    Alcotest.fail "per-thread run equals the per-CPU run: thread ids never reached malloc"

let suite =
  [
    ( "refcheck",
      [
        Alcotest.test_case "machine digest and drain" `Quick test_machine_and_drain;
        Alcotest.test_case "fleet machine digests" `Quick test_fleet_machines;
        Alcotest.test_case "dist stream digest" `Quick test_dist_stream;
        Alcotest.test_case "rseq mild machine digest" `Quick test_rseq_mild;
        Alcotest.test_case "rseq fallback-heavy digest" `Quick test_rseq_fallback_heavy;
        Alcotest.test_case "spanner trace and four-arm replay" `Quick test_spanner_trace;
        Alcotest.test_case "per-thread front-end digest" `Quick test_per_thread_front_end;
      ] );
  ]
