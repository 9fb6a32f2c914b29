(* Backend conformance and rival-model tests.

   The qcheck properties drive [Conformance] scripts — random
   alloc/free/churn/pressure sequences with invariants checked at every
   [Check] — against all three backends, with and without a hard memory
   limit.  The unit tests pin down the rival models' size-class algebra
   and the dispatcher's contract (rseq rejection, snapshot round-trips,
   cross-CPU free draining). *)

module Backend = Wsc_backend.Backend
module Rp = Wsc_backend.Rpmalloc_model
module Je = Wsc_backend.Jemalloc_model
module Clock = Wsc_substrate.Clock
module Topology = Wsc_hw.Topology
module Config = Wsc_tcmalloc.Config
module Malloc = Wsc_tcmalloc.Malloc
module Telemetry = Wsc_tcmalloc.Telemetry
module Audit = Wsc_tcmalloc.Audit
module Vm = Wsc_os.Vm
module Rseq = Wsc_os.Rseq
module Units = Wsc_substrate.Units
module Driver = Wsc_workload.Driver
module Machine = Wsc_fleet.Machine
module Fleet = Wsc_fleet.Fleet

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qcheck t = QCheck_alcotest.to_alcotest t

let config_of kind = Config.with_backend kind Config.baseline

let fresh_backend kind =
  Backend.create ~config:(config_of kind) ~topology:Topology.default
    ~clock:(Clock.create ()) ()

let report_failures result =
  String.concat "; " (List.map Conformance.describe_failure result.Conformance.failures)

(* {1 Conformance properties} *)

let conformance_property kind =
  QCheck.Test.make
    ~name:(Printf.sprintf "conformance_%s" (Config.backend_name kind))
    ~count:15
    QCheck.(int_range 0 1000)
    (fun seed ->
      let script = Conformance.script ~seed ~length:400 in
      let result = Conformance.run ~config:(config_of kind) ~script () in
      if not (Conformance.passed result) then
        QCheck.Test.fail_report (report_failures result);
      result.Conformance.checks > 0)

let conformance_under_limit_property kind =
  QCheck.Test.make
    ~name:(Printf.sprintf "conformance_%s_hard_limit" (Config.backend_name kind))
    ~count:8
    QCheck.(int_range 0 1000)
    (fun seed ->
      (* A tight limit forces the reclaim-retry path and legal OOMs. *)
      let script = Conformance.script ~seed ~length:300 in
      let result =
        Conformance.run ~config:(config_of kind)
          ~hard_limit_bytes:(48 * 1024 * 1024) ~script ()
      in
      if not (Conformance.passed result) then
        QCheck.Test.fail_report (report_failures result);
      true)

(* {1 Fleet determinism per backend} *)

let fleet_fingerprint fleet =
  List.map
    (fun (j : Machine.job) ->
      let tel = Backend.telemetry j.Machine.backend in
      ( Telemetry.alloc_count tel,
        Telemetry.free_count tel,
        Telemetry.live_requested_bytes tel,
        (Backend.heap_stats j.Machine.backend).Malloc.resident_bytes,
        Driver.requests_completed j.Machine.driver ))
    (Fleet.jobs fleet)

let fleet_determinism_property kind =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "fleet_%s_jobs4_eq_jobs1" (Config.backend_name kind))
    ~count:2
    QCheck.(int_range 0 1000)
    (fun seed ->
      let run jobs =
        let fleet =
          Fleet.create ~seed ~num_machines:3 ~config:(config_of kind) ()
        in
        let summaries =
          Fleet.run ~jobs fleet ~duration_ns:(1.0 *. Units.sec) ~epoch_ns:Units.ms
        in
        (summaries, fleet_fingerprint fleet)
      in
      run 1 = run 4)

(* {1 rpmalloc model} *)

let test_rp_class_math () =
  check_int "16B granularity below small_max" 16 (Rp.class_size (Rp.class_of_size 1));
  for size = 1 to Rp.medium_max do
    let cls = Rp.class_of_size size in
    let rounded = Rp.class_size cls in
    if rounded < size then
      Alcotest.failf "class_size %d = %d below request %d" cls rounded size;
    if size <= Rp.small_max && rounded - size >= 16 then
      Alcotest.failf "small class slack %d for request %d" (rounded - size) size
  done;
  check_int "class count" Rp.class_count
    (Rp.class_of_size Rp.medium_max + 1)

let test_rp_roundtrip () =
  let backend = fresh_backend Config.Rpmalloc in
  let live = ref [] in
  for i = 0 to 999 do
    let size = 16 + (i * 37 mod 4000) in
    let cpu = i mod 8 in
    let addr = Backend.malloc backend ~cpu ~size in
    live := (addr, size, cpu) :: !live
  done;
  let tel = Backend.telemetry backend in
  check_int "alloc count" 1000 (Telemetry.alloc_count tel);
  List.iter (fun (addr, size, cpu) -> Backend.free backend ~cpu addr ~size)
    !live;
  check_int "free count" 1000 (Telemetry.free_count tel);
  check_int "live bytes" 0 (Telemetry.live_requested_bytes tel);
  check_bool "audit clean" true (Audit.is_clean (Backend.audit backend))

let test_rp_cross_cpu_free () =
  let backend = fresh_backend Config.Rpmalloc in
  (* Producer on CPU 0, consumer on CPU 5: every free is remote and lands
     on the span's deferred list until CPU 0 allocates again. *)
  let addrs =
    List.init 256 (fun _ -> Backend.malloc backend ~cpu:0 ~size:128)
  in
  List.iter (fun a -> Backend.free backend ~cpu:5 a ~size:128) addrs;
  check_bool "audit clean after remote frees" true
    (Audit.is_clean (Backend.audit backend));
  (* The owner drains its deferred lists on its next allocations. *)
  let again =
    List.init 256 (fun _ -> Backend.malloc backend ~cpu:0 ~size:128)
  in
  List.iter (fun a -> Backend.free backend ~cpu:0 a ~size:128) again;
  check_bool "audit clean after drain" true (Audit.is_clean (Backend.audit backend));
  check_int "all frees recorded" 512
    (Telemetry.free_count (Backend.telemetry backend))

let test_rp_release_memory () =
  let backend = fresh_backend Config.Rpmalloc in
  let addrs =
    List.init 512 (fun i ->
        let size = 64 + (i mod 7) * 512 in
        (Backend.malloc backend ~cpu:(i mod 4) ~size, size, i mod 4))
  in
  List.iter (fun (a, size, cpu) -> Backend.free backend ~cpu a ~size) addrs;
  let before = Backend.resident_bytes backend in
  let outcome = Backend.release_memory backend ~target_bytes:before in
  let after = Backend.resident_bytes backend in
  check_bool "released something" true
    Malloc.(
      outcome.transfer_bytes + outcome.cfl_span_bytes + outcome.os_released_bytes > 0);
  check_bool "resident dropped to zero" true (after = 0);
  check_bool "audit clean after release" true (Audit.is_clean (Backend.audit backend))

(* {1 jemalloc model} *)

let test_je_class_math () =
  (* 25% spacing: four classes per doubling above 128 B. *)
  for size = 1 to Je.small_max do
    let cls = Je.class_of_size size in
    let rounded = Je.class_size cls in
    if rounded < size then
      Alcotest.failf "class_size %d = %d below request %d" cls rounded size;
    if size > 128 && float_of_int rounded > 1.25 *. float_of_int size +. 1.0 then
      Alcotest.failf "class spacing above 25%%: request %d rounded %d" size rounded
  done;
  check_int "class count" Je.class_count (Je.class_of_size Je.small_max + 1);
  (* Every slab holds at least four objects. *)
  for cls = 0 to Je.class_count - 1 do
    let pages = Je.slab_pages_of cls in
    if pages * Je.page_size / Je.class_size cls < 4 then
      Alcotest.failf "slab of class %d holds fewer than 4 objects" cls
  done

let test_je_arena_binding () =
  let backend = fresh_backend Config.Jemalloc in
  (* Allocations from CPUs 0..7 exercise all [num_arenas] arenas
     round-robin; frees from a different CPU land in that CPU's tcache of
     the same arena-bound slab. *)
  let addrs =
    List.init 512 (fun i ->
        (Backend.malloc backend ~cpu:(i mod 8) ~size:192, (i + 3) mod 8))
  in
  List.iter (fun (a, cpu) -> Backend.free backend ~cpu a ~size:192) addrs;
  check_bool "audit clean" true (Audit.is_clean (Backend.audit backend));
  (* Flushing every CPU returns tcache objects to their slabs. *)
  for cpu = 0 to 7 do
    Backend.cpu_idle ~flush:true backend ~cpu
  done;
  let s = Backend.heap_stats backend in
  check_int "tcaches empty after flush" 0 s.Malloc.front_end_cached_bytes;
  check_bool "audit clean after flush" true (Audit.is_clean (Backend.audit backend))

let test_je_extent_coalescing () =
  let backend = fresh_backend Config.Jemalloc in
  (* Large allocations carve extents; freeing everything must coalesce
     back to whole chunks and unmap them. *)
  let addrs =
    List.init 64 (fun i ->
        let size = (1 + (i mod 5)) * 64 * 1024 in
        (Backend.malloc backend ~cpu:0 ~size, size))
  in
  List.iter (fun (a, size) -> Backend.free backend ~cpu:0 a ~size) addrs;
  ignore (Backend.release_memory backend ~target_bytes:max_int);
  check_int "all chunks unmapped" 0 (Backend.resident_bytes backend);
  check_bool "audit clean" true (Audit.is_clean (Backend.audit backend))

(* {1 Pressure survival} *)

let test_pressure_survival kind () =
  let backend = fresh_backend kind in
  let limit = 32 * 1024 * 1024 in
  Vm.set_hard_limit (Backend.vm backend) (Some limit);
  let live = ref [] in
  let ooms = ref 0 in
  (* Push well past the limit; the backend must either satisfy each
     allocation within the limit or raise Out_of_memory — never crash,
     never exceed resident > limit. *)
  for i = 0 to 4095 do
    let size = 16 * 1024 in
    match Backend.malloc backend ~cpu:(i mod 4) ~size with
    | addr ->
      live := (addr, size, i mod 4) :: !live;
      if List.length !live > 1024 then begin
        match !live with
        | (a, s, c) :: rest ->
          Backend.free backend ~cpu:c a ~size:s;
          live := rest
        | [] -> ()
      end
    | exception Stdlib.Out_of_memory ->
      incr ooms;
      (match !live with
      | (a, s, c) :: rest ->
        Backend.free backend ~cpu:c a ~size:s;
        live := rest
      | [] -> ())
  done;
  check_bool "stayed under hard limit" true (Backend.resident_bytes backend <= limit);
  check_bool "audit clean under pressure" true (Audit.is_clean (Backend.audit backend));
  List.iter (fun (a, s, c) -> Backend.free backend ~cpu:c a ~size:s) !live;
  ignore (Backend.release_memory backend ~target_bytes:max_int);
  check_bool "audit clean after recovery" true (Audit.is_clean (Backend.audit backend))

(* {1 Dispatcher contract} *)

let test_rseq_rejected () =
  let rseq =
    Rseq.create { Rseq.seed = 1; preempt_prob = 0.0; max_restarts = 3 }
  in
  List.iter
    (fun kind ->
      match
        Backend.create ~config:(config_of kind) ~rseq ~topology:Topology.default
          ~clock:(Clock.create ()) ()
      with
      | exception Invalid_argument _ -> ()
      | (_ : Backend.t) ->
        Alcotest.failf "rseq accepted by %s backend" (Config.backend_name kind))
    [ Config.Rpmalloc; Config.Jemalloc ];
  (* ... and accepted by tcmalloc. *)
  let backend =
    Backend.create ~config:Config.baseline ~rseq ~topology:Topology.default
      ~clock:(Clock.create ()) ()
  in
  check_bool "tcmalloc keeps its rseq" true (Backend.rseq backend <> None)

let test_snapshot_roundtrip kind () =
  let backend = fresh_backend kind in
  let addrs =
    List.init 200 (fun i ->
        let size = 32 + (i mod 9) * 100 in
        (Backend.malloc backend ~cpu:(i mod 4) ~size, size, i mod 4))
  in
  let blob = Backend.snapshot backend in
  let restored = Backend.restore ~kind blob in
  check_bool "same stats after restore" true
    (Backend.heap_stats restored = Backend.heap_stats backend);
  (* The restored heap keeps working: free everything that was live. *)
  List.iter (fun (a, s, c) -> Backend.free restored ~cpu:c a ~size:s) addrs;
  check_bool "restored audit clean" true (Audit.is_clean (Backend.audit restored))

let test_kind_names () =
  List.iter
    (fun kind ->
      check_bool "name round-trips" true
        (Config.backend_of_name (Config.backend_name kind) = Some kind))
    Config.all_backends;
  check_bool "unknown rejected" true (Config.backend_of_name "hoard" = None)

let suite =
  [
    ( "backend",
      List.map conformance_property Config.all_backends
      @ List.map conformance_under_limit_property Config.all_backends
      @ List.map fleet_determinism_property Config.all_backends
      |> List.map qcheck )
    ;
    ( "backend_models",
      [
        Alcotest.test_case "rp_class_math" `Quick test_rp_class_math;
        Alcotest.test_case "rp_roundtrip" `Quick test_rp_roundtrip;
        Alcotest.test_case "rp_cross_cpu_free" `Quick test_rp_cross_cpu_free;
        Alcotest.test_case "rp_release_memory" `Quick test_rp_release_memory;
        Alcotest.test_case "je_class_math" `Quick test_je_class_math;
        Alcotest.test_case "je_arena_binding" `Quick test_je_arena_binding;
        Alcotest.test_case "je_extent_coalescing" `Quick test_je_extent_coalescing;
        Alcotest.test_case "rp_pressure_survival" `Quick
          (test_pressure_survival Config.Rpmalloc);
        Alcotest.test_case "je_pressure_survival" `Quick
          (test_pressure_survival Config.Jemalloc);
        Alcotest.test_case "tc_pressure_survival" `Quick
          (test_pressure_survival Config.Tcmalloc);
        Alcotest.test_case "rseq_rejected_by_rivals" `Quick test_rseq_rejected;
        Alcotest.test_case "rp_snapshot_roundtrip" `Quick
          (test_snapshot_roundtrip Config.Rpmalloc);
        Alcotest.test_case "je_snapshot_roundtrip" `Quick
          (test_snapshot_roundtrip Config.Jemalloc);
        Alcotest.test_case "tc_snapshot_roundtrip" `Quick
          (test_snapshot_roundtrip Config.Tcmalloc);
        Alcotest.test_case "kind_names" `Quick test_kind_names;
      ] );
  ]
