(* Event-stream fixtures for the trace and tuner suites.  Every fixture is
   a real driver run captured by the recorder.  [Apps.fleet] has no startup
   burst, so a 0.2 s recording stays at a few thousand events. *)

let recorded_events ~seed =
  let path = Filename.temp_file "wsc_fixture" ".wtrace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Wsc_trace.Writer.with_file path (fun w ->
          ignore
            (Wsc_trace.Recorder.record_app ~seed
               ~duration_ns:(0.2 *. Wsc_substrate.Units.sec) ~writer:w
               Wsc_workload.Apps.fleet));
      Wsc_trace.Replay.preload path)
