(* Tests for warm-state checkpoint/restore (wsc_persist): the bit-identity
   invariant at driver, machine and file level, container corruption
   detection (mirroring test_trace_stream's codec tests), and a qcheck
   property over random configs/seeds/split points. *)

open Wsc_substrate
module Config = Wsc_tcmalloc.Config
module Malloc = Wsc_tcmalloc.Malloc
module Span_stats = Wsc_tcmalloc.Span_stats
module Backend = Wsc_backend.Backend
module Telemetry = Wsc_tcmalloc.Telemetry
module Audit = Wsc_tcmalloc.Audit
module Cost_model = Wsc_hw.Cost_model
module Topology = Wsc_hw.Topology
module Apps = Wsc_workload.Apps
module Profile = Wsc_workload.Profile
module Driver = Wsc_workload.Driver
module Machine = Wsc_fleet.Machine
module Persist = Wsc_persist.Persist

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let qcheck t = QCheck_alcotest.to_alcotest t

let with_temp f =
  let path = Filename.temp_file "wsc_persist" ".wsnap" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Everything observable about one job: heap stats, telemetry counters,
   tier hits, driver progress, and a fresh audit.  Bit-identity means
   structural equality of this digest. *)
let job_digest driver =
  let backend = Driver.backend driver in
  let tel = Backend.telemetry backend in
  ( Backend.heap_stats backend,
    Telemetry.alloc_count tel,
    Telemetry.free_count tel,
    Telemetry.total_malloc_ns tel,
    List.map (fun tier -> Telemetry.hits tel tier) Cost_model.all_tiers,
    Driver.requests_completed driver,
    Driver.allocations driver,
    Driver.live_objects driver,
    Backend.audit backend )

let machine_digest machine =
  ( Clock.now (Machine.clock machine),
    List.map (fun (j : Machine.job) -> job_digest j.Machine.driver) (Machine.jobs machine)
  )

let sec = Units.sec
let ms = Units.ms

(* {1 Bit-identity} *)

(* The unit-test half of the ISSUE's bit-identity gate (the CI smoke job
   covers the CLI half): checkpoint mid-run, keep running the original to
   prove restore does not alias it, resume, continue — digest equal to an
   uninterrupted run of the same total duration. *)
let test_machine_checkpoint_bit_identity () =
  let mk () =
    Machine.create ~seed:5 ~platform:Topology.default
      ~rseq:{ Wsc_os.Rseq.seed = 5; preempt_prob = 0.002; max_restarts = 3 }
      ~audit_interval_ns:sec
      ~jobs:[ Apps.redis; Apps.fleet ] ()
  in
  let reference = mk () in
  Machine.run reference ~duration_ns:(2.0 *. sec) ~epoch_ns:ms;
  let split = mk () in
  Machine.run split ~duration_ns:(1.0 *. sec) ~epoch_ns:ms;
  let blob = Machine.checkpoint split in
  Machine.run split ~duration_ns:(0.5 *. sec) ~epoch_ns:ms;
  let resumed = Machine.resume blob in
  Machine.run resumed ~duration_ns:(1.0 *. sec) ~epoch_ns:ms;
  check_bool "resumed == uninterrupted" true
    (machine_digest reference = machine_digest resumed);
  check_bool "original diverged past the checkpoint" true
    (machine_digest split <> machine_digest resumed)

let test_driver_checkpoint_bit_identity () =
  let mk () =
    let clock = Clock.create () in
    let topology = Topology.default in
    let backend = Backend.create ~config:Config.all_optimizations ~topology ~clock () in
    let sched = Wsc_os.Sched.slice topology ~first_cpu:0 ~cpus:8 in
    Driver.create ~seed:9 ~profile:Apps.redis ~sched ~backend ~clock ()
  in
  let reference = mk () in
  Driver.run reference ~duration_ns:(1.5 *. sec) ~epoch_ns:ms;
  let split = mk () in
  Driver.run split ~duration_ns:(0.75 *. sec) ~epoch_ns:ms;
  let resumed = Driver.resume (Driver.checkpoint split) in
  Driver.run resumed ~duration_ns:(0.75 *. sec) ~epoch_ns:ms;
  check_bool "resumed == uninterrupted" true (job_digest reference = job_digest resumed)

(* Persist.run_machine with an absolute target must reproduce Machine.run's
   epoch sequence exactly (that is what makes segmented CLI runs equal). *)
let test_run_machine_epoch_sequence () =
  let mk () =
    Machine.create ~seed:2 ~platform:Topology.default ~jobs:[ Apps.fleet ] ()
  in
  let a = mk () in
  Machine.run a ~duration_ns:(1.2 *. sec) ~epoch_ns:ms;
  let b = mk () in
  Persist.run_machine b ~until_ns:(0.4 *. sec) ~epoch_ns:ms;
  Persist.run_machine b ~until_ns:(1.2 *. sec) ~epoch_ns:ms;
  check_bool "segmented == one-shot" true (machine_digest a = machine_digest b)

(* {1 File round-trip} *)

let test_file_round_trip () =
  with_temp @@ fun path ->
  let mk () =
    Machine.create ~seed:7 ~platform:Topology.default ~jobs:[ Apps.redis ] ()
  in
  let reference = mk () in
  Machine.run reference ~duration_ns:(2.0 *. sec) ~epoch_ns:ms;
  let m = mk () in
  Persist.run_machine m ~until_ns:sec ~epoch_ns:ms ~checkpoint_path:path;
  let restored = Persist.load_machine ~path in
  Persist.run_machine restored ~until_ns:(2.0 *. sec) ~epoch_ns:ms;
  check_bool "file round-trip == uninterrupted" true
    (machine_digest reference = machine_digest restored);
  let info = Persist.info ~path in
  check_string "kind" "machine" info.Persist.kind;
  check_bool "records simulated time" true (info.Persist.sim_now_ns = sec);
  check_bool "one job, right profile" true
    (List.map fst info.Persist.jobs = [ Apps.redis.Profile.name ])

let test_driver_file_round_trip () =
  with_temp @@ fun path ->
  let clock = Clock.create () in
  let backend = Backend.create ~topology:Topology.default ~clock () in
  let sched = Wsc_os.Sched.slice Topology.default ~first_cpu:0 ~cpus:4 in
  let driver = Driver.create ~seed:3 ~profile:Apps.fleet ~sched ~backend ~clock () in
  Driver.run driver ~duration_ns:(0.5 *. sec) ~epoch_ns:ms;
  Persist.save_driver driver ~path ~note:"unit test";
  let restored = Persist.load_driver ~path in
  check_bool "restored digest matches" true (job_digest driver = job_digest restored);
  check_string "note survives" "unit test" (Persist.info ~path).Persist.note

(* The long-horizon experiment's seam: a driver with span snapshots on,
   saved to disk, dropped and reloaded twice, equals one uninterrupted
   run, span statistics included. *)
let test_chained_span_snapshots () =
  with_temp @@ fun path ->
  let mk () =
    let clock = Clock.create () in
    let backend =
      Backend.create ~span_snapshot_interval_ns:sec ~topology:Topology.default ~clock ()
    in
    let sched = Wsc_os.Sched.spread Topology.default ~first_cpu:0 ~cpus:16 ~domains:2 in
    Driver.create ~seed:42 ~profile:Apps.fleet ~sched ~backend ~clock ()
  in
  (* Each class's return rates by live-allocation bucket cover every
     occupancy observation the snapshot ticker made. *)
  let span_digest driver =
    let stats = Option.get (Malloc.span_stats (Backend.tc_exn (Driver.backend driver))) in
    let by_class = Span_stats.return_rate_by_class stats in
    ( Span_stats.observation_count stats,
      by_class,
      List.map
        (fun (cls, _, _) ->
          Span_stats.return_rate_by_live_allocations stats ~cls ~window_ns:(5.0 *. sec)
            ~bucket:1)
        by_class,
      Span_stats.capacity_return_correlation stats )
  in
  let reference = mk () in
  Driver.run reference ~duration_ns:(6.0 *. sec) ~epoch_ns:ms;
  let chained = ref (mk ()) in
  for _seam = 1 to 2 do
    Driver.run !chained ~duration_ns:(3.0 *. sec) ~epoch_ns:ms;
    Persist.save_driver !chained ~path;
    chained := Persist.load_driver ~path
  done;
  check_bool "chained == uninterrupted" true (job_digest reference = job_digest !chained);
  (* [compare], not [=]: a correlation over too few classes is nan. *)
  check_bool "span statistics chained == uninterrupted" true
    (compare (span_digest reference) (span_digest !chained) = 0)

(* {1 Corruption} *)

let saved_snapshot f =
  with_temp @@ fun path ->
  let m = Machine.create ~seed:1 ~platform:Topology.uniprocessor ~jobs:[ Apps.redis ] () in
  Machine.run m ~duration_ns:(0.2 *. sec) ~epoch_ns:ms;
  Persist.save_machine m ~path;
  f path (read_file path)

let expect_corrupt ~expected_section path =
  match Persist.load_machine ~path with
  | _ -> Alcotest.failf "load of damaged snapshot succeeded"
  | exception Persist.Corrupt { section; reason = _ } ->
    check_string "failing section" expected_section section

let test_corrupt_truncated () =
  saved_snapshot @@ fun path data ->
  (* Cut into the state payload: the error names the section that was cut
     short. *)
  write_file path (String.sub data 0 (String.length data / 2));
  expect_corrupt ~expected_section:"state" path;
  (* Shaving the last bytes only destroys the v2 trailer — redundancy, not
     data — so the load degrades gracefully instead of failing. *)
  saved_snapshot @@ fun path data ->
  write_file path (String.sub data 0 (String.length data - 10));
  let a = Persist.audit ~path in
  check_bool "trailer lost" false a.Persist.a_trailer_intact;
  check_bool "sections all intact" true a.Persist.a_salvageable;
  let (_ : Machine.t) = Persist.load_machine ~path in
  ()

let test_corrupt_flipped_byte () =
  saved_snapshot @@ fun path data ->
  let b = Bytes.of_string data in
  let pos = String.length data / 2 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20));
  write_file path (Bytes.to_string b);
  expect_corrupt ~expected_section:"state" path

let test_corrupt_wrong_version () =
  saved_snapshot @@ fun path data ->
  let b = Bytes.of_string data in
  Bytes.set b 8 (Char.chr (Persist.format_version + 41));
  write_file path (Bytes.to_string b);
  expect_corrupt ~expected_section:"header" path

let test_corrupt_bad_magic () =
  saved_snapshot @@ fun path data ->
  write_file path ("XX" ^ String.sub data 2 (String.length data - 2));
  expect_corrupt ~expected_section:"header" path

let test_corrupt_wrong_kind () =
  with_temp @@ fun path ->
  let clock = Clock.create () in
  let backend = Backend.create ~topology:Topology.uniprocessor ~clock () in
  let sched = Wsc_os.Sched.slice Topology.uniprocessor ~first_cpu:0 ~cpus:1 in
  let driver = Driver.create ~seed:1 ~profile:Apps.redis ~sched ~backend ~clock () in
  Driver.run driver ~duration_ns:(0.05 *. sec) ~epoch_ns:ms;
  Persist.save_driver driver ~path;
  (match Persist.load_machine ~path with
  | _ -> Alcotest.failf "driver snapshot loaded as a machine"
  | exception Persist.Corrupt { section; _ } -> check_string "section" "meta" section);
  check_bool "but loads fine as what it is" true
    (job_digest (Persist.load_driver ~path) = job_digest driver)

(* {1 Property} *)

(* For random configs, seeds and split points: N epochs, snapshot, continue
   M epochs == uninterrupted N+M epochs — on heap stats, telemetry
   counters, and the heap auditor's report. *)
let test_split_equivalence_property =
  let configs =
    [|
      Config.baseline;
      Config.with_dynamic_per_cpu true Config.baseline;
      Config.with_nuca_transfer_cache true Config.baseline;
      Config.with_span_prioritization true Config.baseline;
      Config.with_lifetime_aware_filler true Config.baseline;
      Config.all_optimizations;
    |]
  in
  let apps = [| Apps.redis; Apps.fleet; Apps.monarch |] in
  qcheck
    (QCheck.Test.make ~name:"snapshot_split_equivalence" ~count:12
       QCheck.(
         quad (int_range 0 5) (int_range 0 2) (int_range 1 1000)
           (pair (int_range 20 150) (int_range 20 150)))
       (fun (config_i, app_i, seed, (n_epochs, m_epochs)) ->
         let config = configs.(config_i) and app = apps.(app_i) in
         let mk () =
           Machine.create ~seed ~config ~platform:Topology.default ~jobs:[ app ] ()
         in
         let epochs m k = Machine.run m ~duration_ns:(float_of_int k *. ms) ~epoch_ns:ms in
         let reference = mk () in
         epochs reference (n_epochs + m_epochs);
         let split = mk () in
         epochs split n_epochs;
         let resumed = Machine.resume (Machine.checkpoint split) in
         epochs resumed m_epochs;
         machine_digest reference = machine_digest resumed))

let suite =
  [
    ( "persist",
      [
        Alcotest.test_case "machine bit-identity" `Quick
          test_machine_checkpoint_bit_identity;
        Alcotest.test_case "driver bit-identity" `Quick
          test_driver_checkpoint_bit_identity;
        Alcotest.test_case "run_machine epoch sequence" `Quick
          test_run_machine_epoch_sequence;
        Alcotest.test_case "file round-trip + info" `Quick test_file_round_trip;
        Alcotest.test_case "driver file round-trip" `Quick test_driver_file_round_trip;
        Alcotest.test_case "chained driver equals uninterrupted" `Quick
          test_chained_span_snapshots;
        Alcotest.test_case "corrupt: truncated" `Quick test_corrupt_truncated;
        Alcotest.test_case "corrupt: flipped byte" `Quick test_corrupt_flipped_byte;
        Alcotest.test_case "corrupt: wrong version" `Quick test_corrupt_wrong_version;
        Alcotest.test_case "corrupt: bad magic" `Quick test_corrupt_bad_magic;
        Alcotest.test_case "corrupt: wrong kind" `Quick test_corrupt_wrong_kind;
        test_split_equivalence_property;
      ] );
  ]
