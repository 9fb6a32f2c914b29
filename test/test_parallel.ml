(* Tests for deterministic domain-parallel execution: the Parallel pool's
   map contract (ordered, exactly-once, exception-safe, nest-safe), the
   bit-identical N-domain vs 1-domain guarantee for fleet and A/B runs, the
   Event_heap_reference/Binheap pop-order equivalence, and the bounded series
   accumulators. *)

open Wsc_substrate
open Wsc_fleet
module Config = Wsc_tcmalloc.Config
module Malloc = Wsc_tcmalloc.Malloc
module Backend = Wsc_backend.Backend
module Telemetry = Wsc_tcmalloc.Telemetry
module Apps = Wsc_workload.Apps
module Driver = Wsc_workload.Driver
module Topology = Wsc_hw.Topology

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qcheck t = QCheck_alcotest.to_alcotest t

(* {1 Parallel.map contract} *)

let map_matches_sequential =
  QCheck.Test.make ~name:"parallel_map_matches_sequential_for_any_jobs" ~count:50
    QCheck.(pair (int_range 1 6) (list small_int))
    (fun (jobs, xs) ->
      let arr = Array.of_list xs in
      let f x = (x * 37) lxor (x lsr 2) in
      Parallel.map ~jobs f arr = Array.map f arr)

let map_exactly_once =
  QCheck.Test.make ~name:"parallel_map_runs_each_task_exactly_once_in_order" ~count:30
    QCheck.(pair (int_range 1 6) (int_range 0 200))
    (fun (jobs, n) ->
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      let out =
        Parallel.map ~jobs
          (fun i ->
            Atomic.incr hits.(i);
            i)
          (Array.init n Fun.id)
      in
      out = Array.init n Fun.id && Array.for_all (fun a -> Atomic.get a = 1) hits)

let test_map_propagates_exception () =
  match
    Parallel.map ~jobs:4 (fun i -> if i >= 3 then failwith "boom" else i) (Array.init 8 Fun.id)
  with
  | _ -> Alcotest.fail "expected the task failure to re-raise"
  | exception Failure msg -> Alcotest.(check string) "task exception" "boom" msg

let test_nested_map_completes () =
  (* A map issued from inside a task must degrade to sequential execution,
     not deadlock on the busy pool. *)
  let sums =
    Parallel.map ~jobs:4
      (fun n ->
        Array.fold_left ( + ) 0 (Parallel.map ~jobs:4 (fun i -> i * i) (Array.init n Fun.id)))
      [| 10; 20; 30; 40 |]
  in
  let expect n = Array.fold_left ( + ) 0 (Array.init n (fun i -> i * i)) in
  check_bool "nested results" true (sums = Array.map expect [| 10; 20; 30; 40 |])

let test_default_jobs_override () =
  Parallel.set_default_jobs 2;
  check_int "override wins" 2 (Parallel.default_jobs ());
  (match Parallel.set_default_jobs 0 with
  | () -> Alcotest.fail "jobs = 0 must be rejected"
  | exception Invalid_argument _ -> ());
  (* Leave the process in sequential-default mode for the other suites. *)
  Parallel.set_default_jobs 1;
  check_int "override reset" 1 (Parallel.default_jobs ())

(* {1 N-domain vs 1-domain bit-identical results} *)

let fleet_fingerprint fleet =
  List.map
    (fun (j : Machine.job) ->
      let tel = Backend.telemetry j.Machine.backend in
      ( Telemetry.alloc_count tel,
        Telemetry.free_count tel,
        Telemetry.live_requested_bytes tel,
        (Backend.heap_stats j.Machine.backend).Malloc.resident_bytes,
        Driver.requests_completed j.Machine.driver,
        Driver.avg_rss_bytes j.Machine.driver ))
    (Fleet.jobs fleet)

let test_fleet_parallel_determinism () =
  let run jobs =
    let fleet = Fleet.create ~seed:23 ~num_machines:4 () in
    let summaries =
      Fleet.run ~jobs fleet ~duration_ns:(2.0 *. Units.sec) ~epoch_ns:Units.ms
    in
    (summaries, fleet_fingerprint fleet)
  in
  check_bool "4-domain fleet == 1-domain fleet" true (run 1 = run 4)

let test_ab_parallel_determinism () =
  let run jobs =
    Ab_test.run_app ~jobs ~seed:3 ~replicas:2 ~warmup_ns:(1.0 *. Units.sec)
      ~duration_ns:(2.0 *. Units.sec) ~control:Config.baseline
      ~experiment:Config.all_optimizations Apps.redis
  in
  check_bool "4-domain A/B == 1-domain A/B" true (run 1 = run 4)

(* {1 Event_heap_reference vs Binheap equivalence} *)

let event_heap_matches_binheap =
  QCheck.Test.make ~name:"event_heap_pop_order_matches_binheap" ~count:100
    QCheck.(list (pair (int_range 0 7) small_int))
    (fun entries ->
      (* Keys collide constantly (8 distinct values): equal-key pop order
         must match Binheap's exactly, including across bounded drains. *)
      let eh = Event_heap_reference.create () in
      let bh = Binheap.create () in
      List.iteri
        (fun i (k, v) ->
          let key = float_of_int k in
          Event_heap_reference.push eh key ~a:v ~b:i ~c:(i land 3);
          Binheap.push bh key (v, i))
        entries;
      let got = ref [] and want = ref [] in
      List.iter
        (fun bound ->
          Event_heap_reference.drain_until eh bound (fun ~key ~a ~b ~c:_ ->
              got := (key, a, b) :: !got);
          List.iter (fun (k, (v, i)) -> want := (k, v, i) :: !want) (Binheap.pop_until bh bound))
        [ 2.0; 5.0; infinity ];
      Event_heap_reference.is_empty eh && Binheap.is_empty bh && !got = !want)

(* {1 Bounded series accumulators} *)

let test_series_cap () =
  let clock = Clock.create () in
  let topology = Topology.default in
  let backend = Backend.create ~topology ~clock () in
  let sched = Wsc_os.Sched.spread topology ~first_cpu:0 ~cpus:8 ~domains:1 in
  let driver =
    Driver.create ~seed:5 ~series_cap:64 ~profile:Apps.fleet ~sched ~backend ~clock ()
  in
  (* Series ticks are 0.25 s of simulated time apart: 40 s ~ 160 ticks,
     which crosses the 64-sample cap more than once. *)
  Driver.run driver ~duration_ns:(40.0 *. Units.sec) ~epoch_ns:Units.ms;
  let samples = Driver.series_samples driver in
  check_bool "samples bounded" true (samples <= 64 && samples >= 32);
  let stride = Driver.series_stride driver in
  check_bool "stride doubled" true (stride > 1 && stride land (stride - 1) = 0);
  let series = Driver.thread_series driver in
  check_int "thread series length" samples (List.length series);
  let times = List.map fst series in
  check_bool "times ascending" true (List.sort compare times = times)

let suite =
  [
    ( "parallel",
      [
        qcheck map_matches_sequential;
        qcheck map_exactly_once;
        Alcotest.test_case "map propagates task exception" `Quick test_map_propagates_exception;
        Alcotest.test_case "nested map completes" `Quick test_nested_map_completes;
        Alcotest.test_case "default jobs override" `Quick test_default_jobs_override;
        Alcotest.test_case "fleet 4-domain determinism" `Slow test_fleet_parallel_determinism;
        Alcotest.test_case "A/B 4-domain determinism" `Slow test_ab_parallel_determinism;
        qcheck event_heap_matches_binheap;
        Alcotest.test_case "series cap bounds accumulators" `Quick test_series_cap;
      ] );
  ]
