(* Workload [simulate]: one solo monarch machine, warm, stepping 1 ms
   epochs on one domain, with a checkpoint/resume seam in every window.

   Why: the warm event loop does nearly all the work here — generator,
   pending-free calendar, driver bookkeeping and the per-CPU fast path
   that serves almost every monarch allocation — and monarch keeps the
   largest churning live set of the profiles, so the calendar outgrows
   the core's L2.  The seam (Persist.save_machine, Persist.load_machine)
   is the `simulate --checkpoint/--resume` path. *)

open Wsc_substrate
open Common
module Machine = Wsc_fleet.Machine
module Persist = Wsc_persist.Persist
module Recorder = Wsc_trace.Recorder
module Writer = Wsc_trace.Writer
module Replay = Wsc_trace.Replay
module Apps = Wsc_workload.Apps
module Topology = Wsc_hw.Topology
module Config = Wsc_tcmalloc.Config

let profile = Apps.monarch
let platform = Topology.default
let config = Config.baseline
let epoch_ns = Units.ms

(* Simulated seconds: the warm-up reaches monarch's steady live set; each
   round then runs one window from the warm snapshot. *)
let warmup_ns = 20.0 *. Units.sec
let window_ns = 30.0 *. Units.sec
let setups = 3

type round = {
  wall_s : float;
  events : int;
  malloc_ns : float;
  ooms : int;
  digest : string;
  peak_rss : int;
}

(* In-place spans of the traced rounds. *)
type spans = {
  steps : Span.Samples.t;  (** ns of each Driver.step. *)
  step : Span.acc;
  advance : Span.acc;  (** Clock.advance between steps. *)
  saves : Span.Samples.t;
  loads : Span.Samples.t;
  mutable snapshot_mib : float;
}

let job m = List.hd (Machine.jobs m)

let counters m =
  let tel = Backend.telemetry (job m).Machine.backend in
  ( Telemetry.alloc_count tel + Telemetry.free_count tel,
    Telemetry.total_malloc_ns tel,
    Telemetry.oom_events tel )

(* Machine.run unrolled into Clock.advance + Driver.step per job, exactly
   as Persist.run_machine steps, with a span around each call. *)
let advance_traced sp m ~until_ns =
  let clock = Machine.clock m in
  let drivers = List.map (fun j -> j.Machine.driver) (Machine.jobs m) in
  while Clock.now clock < until_ns do
    let dt = Float.min epoch_ns (until_ns -. Clock.now clock) in
    let t0 = Span.now_ns () in
    Clock.advance clock dt;
    let t1 = Span.now_ns () in
    Span.add sp.advance ~ns:(t1 - t0) ~words:0;
    List.iter
      (fun d ->
        let t0 = Span.now_ns () in
        Driver.step d ~dt;
        let t1 = Span.now_ns () in
        Span.add sp.step ~ns:(t1 - t0) ~words:0;
        Span.Samples.add sp.steps (t1 - t0))
      drivers
  done

let timed_into samples f =
  let t0 = Span.now_ns () in
  let r = f () in
  Span.Samples.add samples (Span.now_ns () - t0);
  r

(* The last round's machine, for the final audit; earlier ones are
   garbage as soon as their round ends. *)
let last_machine = ref None

let round ~warm ~mid spans =
  let load path =
    match spans with
    | None -> Persist.load_machine ~path
    | Some sp -> timed_into sp.loads (fun () -> Persist.load_machine ~path)
  in
  let advance m ~until_ns =
    match spans with
    | None -> Persist.run_machine m ~until_ns ~epoch_ns
    | Some sp -> advance_traced sp m ~until_ns
  in
  let t0 = Span.now_ns () in
  let m = load warm in
  let ops0, ns0, oom0 = counters m in
  advance m ~until_ns:(warmup_ns +. (window_ns /. 2.0));
  (match spans with
  | None -> Persist.save_machine m ~path:mid
  | Some sp ->
    timed_into sp.saves (fun () -> Persist.save_machine m ~path:mid);
    sp.snapshot_mib <- file_mib mid);
  let m = load mid in
  advance m ~until_ns:(warmup_ns +. window_ns);
  let t1 = Span.now_ns () in
  let ops1, ns1, oom1 = counters m in
  let d = (job m).Machine.driver in
  last_machine := Some m;
  {
    wall_s = Span.seconds_between t0 t1;
    events = ops1 - ops0;
    malloc_ns = ns1 -. ns0;
    ooms = oom1 - oom0;
    digest = driver_digest d;
    peak_rss = Driver.peak_rss_bytes d;
  }

let eps r = float_of_int r.events /. r.wall_s

(* The uninterrupted reference: the same seed recorded from t = 0 through
   the end of the window with no seam, via Recorder.record_app. *)
let record_reference s path =
  let d =
    Writer.with_file path (fun writer ->
        Recorder.record_app ~seed:s.seed ~config ~platform ~epoch_ns
          ~duration_ns:(warmup_ns +. window_ns) ~writer profile)
  in
  (driver_digest d, d)

let run (s : settings) =
  let warm = Filename.concat s.work_dir "simulate-warm.wsnap" in
  let mid = Filename.concat s.work_dir "simulate-mid.wsnap" in
  let ref_trace = Filename.concat s.work_dir "simulate-reference.wtrace" in
  let setup_s, () =
    repeat_setup setups (fun () ->
        let m = Machine.create ~seed:s.seed ~config ~platform ~jobs:[ profile ] () in
        Persist.run_machine m ~until_ns:warmup_ns ~epoch_ns;
        Persist.save_machine m ~path:warm)
  in
  let untraced_seconds = if s.traced then s.seconds /. 2.0 else s.seconds in
  let gc0 = Span.gc_now () in
  let drop () = last_machine := None in
  let rs = rounds ~before:drop ~seconds:untraced_seconds (fun _ -> round ~warm ~mid None) in
  let gc = Span.gc_diff gc0 (Span.gc_now ()) in
  let host_rss = Host.vm_hwm_mib () in
  let untraced_eps = Span.median (List.map eps rs) in
  let r0 = List.hd rs in
  (* Checks: every round equals the uninterrupted recording. *)
  let ref_digest, ref_driver = record_reference s ref_trace in
  let final = Option.get !last_machine in
  last_machine := None;
  let audit = Backend.audit (job final).Machine.backend in
  let one_more =
    Clock.advance (Machine.clock final) epoch_ns;
    Machine.step final ~dt:epoch_ns;
    driver_digest (job final).Machine.driver
  in
  let seam name digest = Checks.digests_equal name ~expected:ref_digest ~actual:digest in
  let checks =
    [
      seam "seam digest equals the uninterrupted recording" r0.digest;
      expect "every round has the same digest"
        (List.for_all (fun r -> r.digest = r0.digest) rs)
        (Printf.sprintf "%d rounds" (List.length rs));
      Checks.audit_clean audit;
    ]
    @ Checks.reference ~workload:"simulate" ~seed:s.seed ~actual:r0.digest
    @ [
        Checks.fires "seam check on a machine one epoch further" (seam "seam" one_more);
        Checks.fires "audit check on an injected violation"
          (Checks.audit_clean (Checks.with_violation audit));
      ]
  in
  let attempted = List.fold_left (fun n r -> n + r.events) 0 rs in
  let failed = List.fold_left (fun n r -> n + r.ooms) 0 rs in
  let e2e =
    [
      ("setup_s", setup_s);
      ("events_per_s", untraced_eps);
      ("host_rss_peak_mb", host_rss);
      ("sim_rss_mb", mib (float_of_int r0.peak_rss));
      ("sim_alloc_ns_per_op", r0.malloc_ns /. float_of_int r0.events);
    ]
  in
  let base =
    {
      workload = "simulate";
      digest = r0.digest;
      checks;
      attempted;
      failed;
      metrics = e2e;
      breakdown = [];
      notes =
        [
          Printf.sprintf "%d untraced rounds of %.0f simulated s (warm-up %.0f s), %d events each"
            (List.length rs) (window_ns /. Units.sec) (warmup_ns /. Units.sec) r0.events;
        ];
    }
  in
  if not s.traced then base
  else begin
    let sp =
      {
        steps = Span.Samples.create ();
        step = Span.acc ();
        advance = Span.acc ();
        saves = Span.Samples.create ();
        loads = Span.Samples.create ();
        snapshot_mib = 0.0;
      }
    in
    let traced_rs =
      rounds ~min_rounds:1 ~before:drop ~seconds:(s.seconds /. 2.0) (fun _ ->
          round ~warm ~mid (Some sp))
    in
    let traced_events = List.fold_left (fun n r -> n + r.events) 0 traced_rs in
    let traced_eps = Span.median (List.map eps traced_rs) in
    let per_event ns = ns /. float_of_int traced_events in
    (* Re-drive the recorded window through Profile, Calendar and Backend:
       once with spans over runs of calls for the layer totals, once with
       a span per backend call for the tier attribution. *)
    let stream = Redrive.load ref_trace in
    Gc.compact ();
    let generator = { Redrive.profile; rng = Rng.create (s.seed lxor 0x5eed) } in
    let all = Redrive.accs () and window = Redrive.accs () in
    let rebuilt =
      Redrive.layers ~generator ~window_from_ns:warmup_ns ~config ~topology:platform ~all
        ~window stream
    in
    let rebuilt_stats = Backend.heap_stats rebuilt in
    let calls_all = Redrive.accs () and calls = Redrive.accs () in
    let rebuilt_calls =
      Redrive.calls ~window_from_ns:warmup_ns ~config ~topology:platform ~all:calls_all
        ~window:calls stream
    in
    let rebuilt_calls_stats = Backend.heap_stats rebuilt_calls in
    let events = Replay.preload ref_trace in
    let replay_s =
      median_seconds 3 (fun () -> ignore (Replay.run_preloaded ~config ~topology:platform events))
    in
    let wev = float_of_int window.Redrive.events in
    let profile_ns = Span.total_ns window.Redrive.profile /. wev in
    let calendar_ns = Redrive.calendar_ns window /. wev in
    let backend_call_ns = Redrive.backend_call_ns window /. wev in
    let step_ns = per_event (Span.total_ns sp.step) in
    let driver_self = step_ns -. profile_ns -. calendar_ns -. backend_call_ns in
    let background_ns = per_event (Span.total_ns sp.advance) in
    let persist_ns = per_event (Span.Samples.total sp.saves +. Span.Samples.total sp.loads) in
    let breakdown, whole =
      attribute ~untraced_eps ~traced_eps
        [
          ("Driver (self)", driver_self);
          ("Profile", profile_ns);
          ("Calendar", calendar_ns);
          ("Backend calls", backend_call_ns);
          ("Backend background (Clock.advance)", background_ns);
          ("Persist", persist_ns);
        ]
    in
    let recorded = Backend.heap_stats (Driver.backend ref_driver) in
    let rebuilt_checks =
      [
        Checks.heap_stats_equal "re-driven layers reach the recorded heap_stats" ~expected:recorded
          ~actual:rebuilt_stats;
        Checks.heap_stats_equal "re-driven calls reach the recorded heap_stats" ~expected:recorded
          ~actual:rebuilt_calls_stats;
      ]
    in
    let per_layer =
      step_metrics sp.steps
      @ [
        ("workload.driver.self_ns_per_event", driver_self);
        ("workload.profile.ns_per_alloc", Span.mean_ns window.Redrive.profile);
        ("substrate.calendar.ns_per_op", Redrive.calendar_ns_per_op window);
        ("substrate.calendar.minor_words_per_op", Redrive.calendar_words_per_op window);
        ("substrate.calendar.peak_len", float_of_int window.Redrive.cal_peak);
        ("tcmalloc.per_cpu_cache.hit_ratio", Redrive.per_cpu_hit_ratio calls);
        ( "backend.reconstruction_error",
          (Redrive.predicted_backend_ns ~layers:all ~calls:calls_all /. (replay_s *. 1e9)) -. 1.0 );
        ("persist.save_machine_s", Span.Samples.median sp.saves /. 1e9);
        ("persist.load_machine_s", Span.Samples.median sp.loads /. 1e9);
        ("persist.snapshot_mb", sp.snapshot_mib);
      ]
      @ gc_metrics gc ~events:(float_of_int attempted)
      @ whole
      @ Redrive.backend_metrics ~kind:"tcmalloc" ~layers:window ~calls
    in
    {
      base with
      checks = base.checks @ rebuilt_checks;
      metrics = per_layer;
      breakdown;
      notes =
        base.notes
        @ [
            Printf.sprintf "%d traced rounds; re-driven window: %d events, %d epochs"
              (List.length traced_rs) window.Redrive.events window.Redrive.epochs;
          ];
    }
  end
