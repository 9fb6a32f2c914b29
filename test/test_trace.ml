(* Tests for the trace event vocabulary (text v1 line codec) and the
   sampler's heap-profile estimator. *)

open Wsc_substrate
open Wsc_workload
module Sampler = Wsc_tcmalloc.Sampler

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_line_roundtrip () =
  let fail () = Alcotest.fail "parse_line rejected a line_of_event output" in
  List.iter
    (fun ev ->
      let line = Trace.line_of_event ev in
      check_bool
        (Printf.sprintf "roundtrip %S" line)
        true
        (Trace.parse_line ~fail line = ev))
    [
      Trace.Alloc { id = 1; size = 100; cpu = 0 };
      Trace.Alloc { id = max_int; size = 2 * Units.mib; cpu = 63 };
      Trace.Free { id = 1; cpu = 2 };
      Trace.Advance { dt_ns = 1e6 };
      (* %.17g must survive floats with no short decimal form. *)
      Trace.Advance { dt_ns = 0.1 +. 0.2 };
      Trace.Retire { cpu = 5; flush = true };
      Trace.Retire { cpu = 0; flush = false };
    ]

let test_parse_line_rejects_garbage () =
  let saw_fail = ref 0 in
  let sentinel = Trace.Advance { dt_ns = 0.0 } in
  let fail () = incr saw_fail; sentinel in
  List.iter
    (fun line -> ignore (Trace.parse_line ~fail line))
    [ "not a trace line"; "a 1 100"; "a x y z"; "f 1"; "t"; "r 1"; "q 1 2" ];
  check_int "every malformed line rejected" 7 !saw_fail

let test_line_roundtrip_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"recorded_stream_text_roundtrip" ~count:10
       QCheck.(int_range 1 500)
       (fun seed ->
         let fail () = QCheck.Test.fail_report "parse_line rejected a rendered line" in
         Array.for_all
           (fun ev -> Trace.parse_line ~fail (Trace.line_of_event ev) = ev)
           (Fixtures.recorded_events ~seed)))

(* {1 Sampler heap profiling} *)

let test_sampler_live_profile () =
  let s = Sampler.create ~period_bytes:1000 in
  (* Allocate 10 KB of 500 B objects: ~10 samples tracked while live. *)
  for i = 1 to 20 do
    ignore (Sampler.on_alloc s i ~size:500 ~now:0.0)
  done;
  check_int "estimate = tracked x period" (Sampler.live_tracked s * 1000)
    (Sampler.live_heap_estimate_bytes s);
  let profile = Sampler.live_profile s in
  check_bool "one size bin" true (List.length profile = 1);
  (match profile with
  | [ (bin, n) ] ->
    check_int "bin is 256 (2^8 <= 500)" 256 bin;
    check_int "all tracked in bin" (Sampler.live_tracked s) n
  | _ -> Alcotest.fail "unexpected profile shape");
  (* Freeing tracked objects empties the profile. *)
  for i = 1 to 20 do
    ignore (Sampler.on_free s i ~now:1.0)
  done;
  check_int "empty after frees" 0 (Sampler.live_heap_estimate_bytes s)

let suite =
  [
    ( "trace",
      [
        Alcotest.test_case "line roundtrip" `Quick test_line_roundtrip;
        Alcotest.test_case "parse rejects garbage" `Quick test_parse_line_rejects_garbage;
        test_line_roundtrip_property;
      ] );
    ( "sampler_profile",
      [ Alcotest.test_case "live profile" `Quick test_sampler_live_profile ] );
  ]
