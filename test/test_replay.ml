(* Differential tests for trace replay: every entry point of
   [Wsc_trace.Replay] (run, run_file, run_salvage, run_preloaded, and the
   fan-outs run_configs and run_configs_preloaded at jobs 1 and 4) must
   return what the per-arm reference in replay_reference.ml returns for
   every arm, or raise the same error.  Inputs: hand-built traces that hit
   every corner of the compiled stream (id gaps, escaped and folded cpus,
   repeated and changing steps, both retire kinds, frees at large ranks),
   random traces, a trace longer than one compiled window, and damaged
   traces. *)

open Wsc_trace
module Trace = Wsc_workload.Trace
module Config = Wsc_tcmalloc.Config
module Backend = Wsc_backend.Backend
module Topology = Wsc_hw.Topology
module Reference = Replay_reference

let qcheck t = QCheck_alcotest.to_alcotest t

let arms =
  [
    ("tcmalloc-baseline", Config.baseline);
    ("tcmalloc-all", Config.all_optimizations);
    ("rpmalloc", Config.with_backend Backend.Rpmalloc Config.baseline);
    ("jemalloc", Config.with_backend Backend.Jemalloc Config.baseline);
  ]

let with_temp f =
  let path = Filename.temp_file "wsc_replay" ".wtrace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_events path events = Writer.with_file path (fun w -> List.iter (Writer.add w) events)

(* An error is compared by its printed form, which names the exception,
   the block and the reason. *)
let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let show = function Ok _ -> "a result" | Error e -> e

(* Every entry point against the reference on one trace file: [true], or
   a failure naming every difference. *)
let matches_reference ?topology ?(jobs = [ 1; 4 ]) path =
  let diffs = ref [] in
  let same what ~expected got =
    if got <> expected then
      diffs := Printf.sprintf "%s: got %s, reference %s" what (show got) (show expected) :: !diffs
  in
  let expected = outcome (fun () -> Reference.run_configs ~jobs:1 ?topology ~configs:arms path) in
  let events = Replay.preload path in
  List.iter
    (fun jobs ->
      same (Printf.sprintf "run_configs jobs %d" jobs) ~expected
        (outcome (fun () -> Replay.run_configs ~jobs ?topology ~configs:arms path));
      same (Printf.sprintf "run_configs_preloaded jobs %d" jobs) ~expected
        (outcome (fun () -> Replay.run_configs_preloaded ~jobs ?topology ~configs:arms events)))
    jobs;
  List.iter
    (fun (name, config) ->
      let expected = outcome (fun () -> Reference.run_file ~config ?topology path) in
      let same_arm what = same (Printf.sprintf "%s %s" what name) ~expected in
      same_arm "run_file" (outcome (fun () -> Replay.run_file ~config ?topology path));
      same_arm "run"
        (outcome (fun () -> Reader.with_file path (fun r -> Replay.run ~config ?topology r)));
      same_arm "run_preloaded" (outcome (fun () -> Replay.run_preloaded ~config ?topology events));
      same ("run_salvage " ^ name)
        ~expected:(outcome (fun () -> Reference.run_salvage ~config ?topology path))
        (outcome (fun () -> Replay.run_salvage ~config ?topology path)))
    arms;
  match !diffs with
  | [] -> true
  | d -> QCheck.Test.fail_report (String.concat "\n" (List.rev d))

let check_file ?topology ?jobs path = ignore (matches_reference ?topology ?jobs path : bool)

(* Explicit ids with gaps, a negative id and [max_int]; cpus at the
   escape code, past it and past the topology's cpu count; a step that
   repeats, changes and comes back; both retire kinds; an id reused after
   its free; small, large and region-sized objects; then 3,000 objects
   freed oldest first, so every free sits at a large recency rank. *)
let hand_built =
  let open Trace in
  [
    Alloc { id = 0; size = 24; cpu = 0 };
    Alloc { id = 7; size = 100; cpu = 62 };
    Alloc { id = 1000; size = 20_000; cpu = 63 };
    Advance { dt_ns = 1000.0 };
    Advance { dt_ns = 1000.0 };
    Alloc { id = -5; size = 3 lsl 20; cpu = 500 };
    Retire { cpu = 62; flush = true };
    Free { id = 7; cpu = 300 };
    Advance { dt_ns = 0.5 };
    Retire { cpu = 1000; flush = false };
    Advance { dt_ns = 1000.0 };
    Alloc { id = max_int; size = 1; cpu = 64 };
    Alloc { id = 7; size = 4096; cpu = 287 };
    Advance { dt_ns = 0.0 };
    Advance { dt_ns = 0.0 };
  ]
  @ List.init 3000 (fun i -> Alloc { id = 2000 + (3 * i); size = 16 + (i * 37 mod 40_000); cpu = i mod 400 })
  @ [ Advance { dt_ns = 2.5e6 } ]
  @ List.init 3000 (fun i -> Free { id = 2000 + (3 * i); cpu = (7 * i) mod 300 })
  @ Trace.
      [
        Free { id = -5; cpu = 1 };
        Retire { cpu = 63; flush = true };
        Free { id = max_int; cpu = 2 };
        Advance { dt_ns = 1e9 };
        Free { id = 0; cpu = 3 };
        Retire { cpu = 0; flush = false };
      ]

let write_text path events =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun ev -> output_string oc (Trace.line_of_event ev ^ "\n")) events)

let test_hand_built () =
  with_temp (fun path ->
      write_events path hand_built;
      check_file path;
      (* One cpu: every cpu folds to 0. *)
      check_file ~topology:Topology.uniprocessor ~jobs:[ 4 ] path);
  with_temp (fun path ->
      write_text path hand_built;
      check_file ~jobs:[ 4 ] path)

(* Random valid traces: allocations with id gaps, every size tier and
   cpus past the escape code; frees of a random live object (any rank);
   advances drawn from a few steps, so steps repeat and change; retires of
   both kinds. *)
let random_events ops =
  let live = ref [||] and n_live = ref 0 and next_id = ref 0 in
  List.filter_map
    (fun (op, p) ->
      if op < 45 then begin
        next_id := !next_id + 1 + (p mod 3);
        let size =
          match p mod 8 with
          | 0 -> 1 + (p mod 16_384)
          | 1 -> 16_385 + (p mod 300_000)
          | 2 -> (2 lsl 20) + (p mod 5000)
          | _ -> 8 + (p mod 1024)
        in
        if !n_live = Array.length !live then
          live := Array.append !live (Array.make (max 16 !n_live) 0);
        !live.(!n_live) <- !next_id;
        incr n_live;
        Some (Trace.Alloc { id = !next_id; size; cpu = p mod 400 })
      end
      else if op < 80 then begin
        if !n_live = 0 then None
        else begin
          let i = p mod !n_live in
          let id = !live.(i) in
          !live.(i) <- !live.(!n_live - 1);
          decr n_live;
          Some (Trace.Free { id; cpu = p mod 97 })
        end
      end
      else if op < 93 then Some (Trace.Advance { dt_ns = [| 0.0; 1e3; 2.5e5; 1e7 |].(p mod 4) })
      else Some (Trace.Retire { cpu = p mod 300; flush = p mod 2 = 0 }))
    ops

let random_traces_match =
  QCheck.Test.make ~name:"replay_matches_reference_on_random_traces" ~count:12
    QCheck.(list_of_size (Gen.int_range 0 1500) (pair (int_range 0 99) (int_range 0 999_999)))
    (fun ops ->
      with_temp (fun path ->
          write_events path (random_events ops);
          matches_reference path))

(* A trace longer than one compiled window (4 MiB of stream).  Every
   advance takes a new step, nine bytes of window, so the trace spans two
   windows; objects and handles live across the window boundary, and each
   free, at rank 2,000, reaches back 8,000 events. *)
let long_events w =
  let live = 2000 in
  for i = 0 to 199_999 do
    Writer.add w (Trace.Alloc { id = i; size = 16 + (i mod 3000); cpu = i mod 200 });
    Writer.add w (Trace.Advance { dt_ns = float_of_int (i mod 99_991) });
    if i >= live then Writer.add w (Trace.Free { id = i - live; cpu = i mod 150 });
    Writer.add w (Trace.Advance { dt_ns = float_of_int (i mod 9973) +. 0.5 });
    if i mod 1000 = 0 then Writer.add w (Trace.Retire { cpu = i mod 64; flush = i mod 2000 = 0 })
  done

let long_arms = [ List.nth arms 0; List.nth arms 3 ]

let test_longer_than_a_window () =
  with_temp (fun path ->
      Writer.with_file path long_events;
      let expected = Reference.run_configs ~jobs:1 ~configs:long_arms path in
      let same what got = if got <> expected then Alcotest.failf "%s differs from the reference" what in
      same "run_configs jobs 1" (Replay.run_configs ~jobs:1 ~configs:long_arms path);
      same "run_configs jobs 4" (Replay.run_configs ~jobs:4 ~configs:long_arms path);
      same "run_configs_preloaded jobs 4"
        (Replay.run_configs_preloaded ~jobs:4 ~configs:long_arms (Replay.preload path));
      let config = snd (List.hd long_arms) in
      if Replay.run_file ~config path <> snd (List.hd expected) then
        Alcotest.fail "run_file differs from the reference")

(* A damaged binary trace raises Reader.Corrupt naming the same block and
   reason from every entry point, and a damaged text trace the same
   Invalid_argument naming the line; the multi-window trace is damaged in
   its last window, after the first has run.  A preloaded array that
   frees an unknown id raises the same Invalid_argument. *)
let flip path ~at =
  let s = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let at = if at < 0 then Bytes.length s + at else at in
  Bytes.set s at (Char.chr (Char.code (Bytes.get s at) lxor 0x40));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc s)

let expect_error what = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected an error" what

let check_corrupt ~arms ~jobs ~per_arm path =
  let strict config = outcome (fun () -> Reference.run_file ~config path) in
  expect_error "reference replay of a damaged trace" (strict (snd (List.hd arms)));
  let diffs = ref [] in
  let same what ~expected got = if got <> expected then diffs := what :: !diffs in
  let expected = outcome (fun () -> Reference.run_configs ~jobs:1 ~configs:arms path) in
  List.iter
    (fun jobs ->
      same (Printf.sprintf "run_configs jobs %d" jobs) ~expected
        (outcome (fun () -> Replay.run_configs ~jobs ~configs:arms path)))
    jobs;
  List.iter
    (fun (name, config) ->
      let expected = strict config in
      same ("run_file " ^ name) ~expected (outcome (fun () -> Replay.run_file ~config path));
      same ("run " ^ name) ~expected
        (outcome (fun () -> Reader.with_file path (fun r -> Replay.run ~config r))))
    per_arm;
  same "preload" ~expected:(Result.map ignore expected)
    (outcome (fun () -> ignore (Replay.preload path)));
  if !diffs <> [] then Alcotest.failf "damaged trace: %s" (String.concat ", " (List.rev !diffs))

let test_corrupt () =
  with_temp (fun path ->
      write_events path hand_built;
      flip path ~at:(Codec.header_len + 3000);
      check_corrupt ~arms ~jobs:[ 1; 4 ] ~per_arm:arms path);
  (* A text trace whose 4,000th line frees an id that is not live. *)
  with_temp (fun path ->
      write_text path
        (List.filteri (fun i _ -> i < 3999) hand_built
        @ [ Trace.Free { id = 123_456; cpu = 0 } ]
        @ List.filteri (fun i _ -> i >= 3999) hand_built);
      check_corrupt ~arms ~jobs:[ 4 ] ~per_arm:[ List.hd arms ] path);
  with_temp (fun path ->
      Writer.with_file path long_events;
      flip path ~at:(-2000);
      check_corrupt ~arms:long_arms ~jobs:[ 4 ] ~per_arm:[ List.hd long_arms ] path)

let test_unknown_free () =
  let events =
    Trace.[| Alloc { id = 1; size = 64; cpu = 0 }; Free { id = 1; cpu = 0 }; Free { id = 1; cpu = 0 } |]
  in
  let expected = outcome (fun () -> ignore (Reference.run_preloaded events)) in
  expect_error "reference" expected;
  let check what f =
    let got = outcome (fun () -> ignore (f ())) in
    if got <> expected then Alcotest.failf "%s: %s, reference %s" what (show got) (show expected)
  in
  check "run_preloaded" (fun () -> Replay.run_preloaded events);
  List.iter
    (fun jobs ->
      check
        (Printf.sprintf "run_configs_preloaded jobs %d" jobs)
        (fun () -> Replay.run_configs_preloaded ~jobs ~configs:arms events))
    [ 1; 4 ]

let suite =
  [
    ( "replay_differential",
      [
        Alcotest.test_case "hand-built traces" `Quick test_hand_built;
        qcheck random_traces_match;
        Alcotest.test_case "longer than one window" `Quick test_longer_than_a_window;
        Alcotest.test_case "damaged traces" `Quick test_corrupt;
        Alcotest.test_case "free of an unknown id" `Quick test_unknown_free;
      ] );
  ]
