(* Workload [trace]: set-up records a seeded spanner run through the
   Recorder; each timed round re-encodes the recording (Reader.copy_into
   a fresh Writer: `trace convert`) and replays it under four arms on two
   domains (Replay.run_configs: `trace replay --configs ... --backend`).

   Why: the work is codec encode and decode, replay bookkeeping, all three
   backends, and the mid/large-object pageheap path, which spanner
   exercises far more than monarch.  Generator, calendar and driver do no
   work in the timed phase, so an event-loop change must leave this
   workload unchanged. *)

open Common
module Recorder = Wsc_trace.Recorder
module Reader = Wsc_trace.Reader
module Writer = Wsc_trace.Writer
module Replay = Wsc_trace.Replay
module Apps = Wsc_workload.Apps
module Topology = Wsc_hw.Topology
module Config = Wsc_tcmalloc.Config

let profile = Apps.spanner
let record_ns = 60.0 *. Wsc_substrate.Units.sec
let jobs = 2
let setups = 3

let arms =
  [
    ("tcmalloc-baseline", Config.baseline);
    ("tcmalloc-all", Config.all_optimizations);
    ("rpmalloc", Config.with_backend Backend.Rpmalloc Config.baseline);
    ("jemalloc", Config.with_backend Backend.Jemalloc Config.baseline);
  ]

let kind_of config = Backend.kind_name config.Config.backend

type round = {
  wall_s : float;
  convert_s : float;
  replay_s : float;
  converted : int;
  results : (string * Replay.result) list;
}

let replayed_ops results =
  List.fold_left (fun n (_, (r : Replay.result)) -> n + r.Replay.allocations + r.Replay.frees) 0 results

let results_line results =
  String.concat ";"
    (List.map
       (fun (name, (r : Replay.result)) ->
         Printf.sprintf "%s allocs=%d frees=%d retires=%d peak=%d heap=%s malloc_ns=%h" name
           r.Replay.allocations r.Replay.frees r.Replay.retires r.Replay.peak_rss_bytes
           (heap_stats_line r.Replay.final_stats) r.Replay.malloc_ns)
       results)

let round ~recording ~converted_path =
  let t0 = Span.now_ns () in
  let converted =
    Reader.with_file recording (fun r ->
        Writer.with_file converted_path (fun w -> Reader.copy_into r w))
  in
  let t1 = Span.now_ns () in
  let results = Replay.run_configs ~jobs ~configs:arms recording in
  let t2 = Span.now_ns () in
  {
    wall_s = Span.seconds_between t0 t2;
    convert_s = Span.seconds_between t0 t1;
    replay_s = Span.seconds_between t1 t2;
    converted;
    results;
  }

let eps r = float_of_int (replayed_ops r.results) /. r.wall_s

(* Traced convert: a span around each Writer.add (and the final close),
   and the gaps between Reader.iter callbacks as decode time. *)
let convert_traced ~recording ~converted_path ~reader ~writer =
  Reader.with_file recording (fun r ->
      Writer.with_file converted_path (fun w ->
          let last = ref (Span.now_ns ()) in
          Reader.iter r (fun ev ->
              let t0 = Span.now_ns () in
              Span.add reader ~ns:(t0 - !last) ~words:0;
              let w0 = Gc.minor_words () in
              Writer.add w ev;
              let w1 = Gc.minor_words () in
              let t1 = Span.now_ns () in
              Span.add writer ~ns:(t1 - t0) ~words:(int_of_float (w1 -. w0));
              last := Span.now_ns ());
          let t0 = Span.now_ns () in
          Writer.close w;
          Span.add_uncounted writer ~ns:(Span.now_ns () - t0) ~words:0;
          Writer.bytes_written w))

(* One traced replay arm: the file decoded into a flat stream, then fed
   through Backend calls with a span per run of calls, in the order
   Replay.run issues them. *)
let arm_traced ~recording (name, config) =
  let stream = Redrive.load recording in
  let all = Redrive.accs () in
  let backend =
    Redrive.layers ~window_from_ns:infinity ~config ~topology:Topology.default ~all
      ~window:(Redrive.accs ()) stream
  in
  (name, all, Backend.heap_stats backend)

let run (s : settings) =
  let recording = Filename.concat s.work_dir "trace-recording.wtrace" in
  let converted_path = Filename.concat s.work_dir "trace-converted.wtrace" in
  let setup_s, recorded_heap =
    repeat_setup setups (fun () ->
        let d =
          Writer.with_file recording (fun writer ->
              Recorder.record_app ~seed:s.seed ~duration_ns:record_ns ~writer profile)
        in
        Backend.heap_stats (Driver.backend d))
  in
  let untraced_seconds = if s.traced then s.seconds /. 2.0 else s.seconds in
  let gc0 = Span.gc_now () in
  let rs = rounds ~seconds:untraced_seconds (fun _ -> round ~recording ~converted_path) in
  let gc = Span.gc_diff gc0 (Span.gc_now ()) in
  let host_rss = Host.vm_hwm_mib () in
  let untraced_eps = Span.median (List.map eps rs) in
  let r0 = List.hd rs in
  let recorded_bytes = read_file recording and converted_bytes = read_file converted_path in
  let baseline = List.assoc "tcmalloc-baseline" r0.results in
  let line = results_line r0.results in
  let digest =
    Digest.to_hex
      (Digest.string (Printf.sprintf "%s|%d|%s" (Digest.string converted_bytes) r0.converted line))
  in
  let identical = Checks.bytes_identical "re-encoded trace is byte-identical to the recording" in
  let baseline_stats =
    Checks.heap_stats_equal "tcmalloc-baseline arm ends at the recording driver's heap_stats"
      ~expected:recorded_heap
  in
  let checks =
    [
      identical recorded_bytes converted_bytes;
      baseline_stats ~actual:baseline.Replay.final_stats;
      expect "every round replays identically"
        (List.for_all (fun r -> results_line r.results = line && r.converted = r0.converted) rs)
        (Printf.sprintf "%d rounds" (List.length rs));
    ]
    @ Checks.reference ~workload:"trace" ~seed:s.seed ~actual:digest
    @ [
        Checks.fires "byte-identity check on a flipped trace byte"
          (identical recorded_bytes
             (Checks.flip_byte converted_bytes (String.length converted_bytes / 2)));
        Checks.fires "heap_stats check on a changed field"
          (baseline_stats ~actual:(Checks.bump_resident baseline.Replay.final_stats));
      ]
  in
  let ops = replayed_ops r0.results in
  let attempted = List.fold_left (fun n r -> n + replayed_ops r.results) 0 rs in
  let e2e =
    [
      ("setup_s", setup_s);
      ("events_per_s", untraced_eps);
      ("host_rss_peak_mb", host_rss);
      ( "sim_rss_mb",
        mib
          (float_of_int
             (List.fold_left (fun n (_, (r : Replay.result)) -> n + r.Replay.peak_rss_bytes) 0 r0.results)) );
      ( "sim_alloc_ns_per_op",
        List.fold_left (fun n (_, (r : Replay.result)) -> n +. r.Replay.malloc_ns) 0.0 r0.results
        /. float_of_int ops );
    ]
  in
  let base =
    {
      workload = "trace";
      digest;
      checks;
      attempted;
      failed = 0;
      metrics = e2e;
      breakdown = [];
      notes =
        [
          Printf.sprintf
            "%d untraced rounds: re-encode %d events (%.2f MB), replay %d arms at jobs %d (%d \
             malloc+free)"
            (List.length rs) r0.converted (mib (float_of_int (String.length recorded_bytes)))
            (List.length arms) jobs ops;
        ];
    }
  in
  if not s.traced then base
  else begin
    let reader = Span.acc () and writer = Span.acc () in
    let bytes = ref 0 in
    let per_arm = List.map (fun (name, _) -> (name, Redrive.accs ())) arms in
    let heaps = ref [] in
    let traced_walls =
      rounds ~min_rounds:1 ~seconds:(s.seconds /. 2.0) (fun _ ->
          let t0 = Span.now_ns () in
          bytes := convert_traced ~recording ~converted_path ~reader ~writer;
          let results = Wsc_substrate.Parallel.map_list ~jobs (arm_traced ~recording) arms in
          let wall = Span.seconds_between t0 (Span.now_ns ()) in
          List.iter (fun (name, a, _) -> Redrive.merge_into (List.assoc name per_arm) a) results;
          heaps := List.map (fun (name, _, heap) -> (name, heap)) results;
          wall)
    in
    let n_traced = float_of_int (List.length traced_walls) in
    let traced_eps = Span.median (List.map (fun w -> float_of_int ops /. w) traced_walls) in
    (* Untraced per-arm replays on one domain, and decoding alone: replay
       self time by subtraction, and the jobs=1 side of the speed-up. *)
    let arm_walls =
      List.map
        (fun (_, config) ->
          let t0 = Span.now_ns () in
          ignore (Replay.run_file ~config recording);
          Span.seconds_between t0 (Span.now_ns ()))
        arms
    in
    let decode_s =
      median_seconds 3 (fun () -> Reader.with_file recording (fun r -> Reader.iter r ignore))
    in
    (* Per-call tier attribution of every arm, and one more layers pass of
       the baseline arm for the reconstruction. *)
    let stream = Redrive.load recording in
    let calls_by_arm =
      List.map
        (fun (name, config) ->
          let acc = Redrive.accs () in
          ignore
            (Redrive.calls ~window_from_ns:infinity ~config ~topology:Topology.default ~all:acc
               ~window:(Redrive.accs ()) stream);
          (name, acc))
        arms
    in
    let base_layers = Redrive.accs () in
    ignore
      (Redrive.layers ~window_from_ns:infinity ~config:Config.baseline ~topology:Topology.default
         ~all:base_layers ~window:(Redrive.accs ()) stream);
    let events = Replay.preload recording in
    let preloaded_s =
      median_seconds 3 (fun () -> ignore (Replay.run_preloaded ~config:Config.baseline events))
    in
    let trace_events = Array.length events in
    let by_kind per_arm =
      let merged = List.map (fun k -> (k, Redrive.accs ())) Catalog.kinds in
      List.iter
        (fun (name, config) ->
          Redrive.merge_into (List.assoc (kind_of config) merged) (List.assoc name per_arm))
        arms;
      merged
    in
    let layers_by_kind = by_kind per_arm and calls_by_kind = by_kind calls_by_arm in
    (* Backend host ns of one pass over the stream, per arm. *)
    let backend_of (a : Redrive.accs) =
      (Redrive.backend_call_ns a +. Span.total_ns a.Redrive.advance) /. n_traced
    in
    let arms_backend_ns = List.fold_left (fun acc (_, a) -> acc +. backend_of a) 0.0 per_arm in
    let arms_call_ns =
      List.fold_left (fun acc (_, a) -> acc +. (Redrive.backend_call_ns a /. n_traced)) 0.0 per_arm
    in
    let arms_s = List.fold_left ( +. ) 0.0 arm_walls in
    let n_arms = float_of_int (List.length arms) in
    let replay_self_ns = (arms_s *. 1e9) -. (n_arms *. decode_s *. 1e9) -. arms_backend_ns in
    let replay_j2 = Span.median (List.map (fun r -> r.replay_s) rs) in
    let speedup = arms_s /. replay_j2 in
    let per_op ns = ns /. float_of_int ops in
    let j = float_of_int jobs in
    let breakdown, whole =
      attribute ~untraced_eps ~traced_eps
        [
          ("Reader (re-encode)", per_op (Span.total_ns reader /. n_traced));
          ("Writer (re-encode)", per_op (Span.total_ns writer /. n_traced));
          ("Reader (replay arms) / jobs", per_op (n_arms *. decode_s *. 1e9 /. j));
          ("Backend calls (replay arms) / jobs", per_op (arms_call_ns /. j));
          ( "Backend background (replay arms) / jobs",
            per_op ((arms_backend_ns -. arms_call_ns) /. j) );
          ("Replay self / jobs", per_op (replay_self_ns /. j));
          ("Parallel idle", per_op ((replay_j2 -. (arms_s /. j)) *. 1e9));
        ]
    in
    let fidelity =
      List.map
        (fun (name, _) ->
          Checks.heap_stats_equal
            (Printf.sprintf "re-driven %s arm reaches the replayed heap_stats" name)
            ~expected:(List.assoc name r0.results).Replay.final_stats
            ~actual:(List.assoc name !heaps))
        arms
    in
    let per_layer =
      [
        ("trace.writer.ns_per_event", Span.mean_ns writer);
        ("trace.writer.bytes_per_event", float_of_int !bytes /. float_of_int r0.converted);
        ("trace.reader.ns_per_event", Span.mean_ns reader);
        ( "trace.replay.self_ns_per_event",
          replay_self_ns /. float_of_int (trace_events * List.length arms) );
        ( "tcmalloc.per_cpu_cache.hit_ratio",
          Redrive.per_cpu_hit_ratio (List.assoc "tcmalloc" calls_by_kind) );
        ( "backend.reconstruction_error",
          (Redrive.predicted_backend_ns ~layers:base_layers
             ~calls:(List.assoc "tcmalloc-baseline" calls_by_arm)
          /. (preloaded_s *. 1e9))
          -. 1.0 );
        ("substrate.parallel.speedup", speedup);
        ("substrate.parallel.busy_share", speedup /. j);
      ]
      @ gc_metrics gc ~events:(float_of_int attempted)
      @ whole
      @ List.concat_map
          (fun k ->
            Redrive.backend_metrics ~kind:k ~layers:(List.assoc k layers_by_kind)
              ~calls:(List.assoc k calls_by_kind))
          Catalog.kinds
    in
    {
      base with
      checks = base.checks @ fidelity;
      metrics = per_layer;
      breakdown;
      notes =
        base.notes
        @ [
            Printf.sprintf "%d traced rounds; per-arm jobs=1 replays %s s; decode alone %.3f s"
              (List.length traced_walls)
              (String.concat "/" (List.map (Printf.sprintf "%.2f") arm_walls))
              decode_s;
          ];
    }
  end
