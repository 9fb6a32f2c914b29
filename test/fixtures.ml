(* Shared test fixtures.  The event-stream fixtures for the trace and tuner
   suites are real driver runs captured by the recorder.  [Apps.fleet] has
   no startup burst, so a 0.2 s recording stays at a few thousand events. *)

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

(* List-shaped wrappers over the allocator's buffer batch APIs, for tests
   that reason about a few objects at a time. *)

module Central_free_list = Wsc_tcmalloc.Central_free_list
module Transfer_cache = Wsc_tcmalloc.Transfer_cache

(* [n] objects from the central free list, the last one popped first. *)
let cfl_remove cfl ~cls ~n ~now =
  let buf = Array.make n 0 in
  let k = Central_free_list.remove_objects_into cfl ~cls ~n ~now ~buf ~pos:0 ~mmaps:(ref 0) in
  List.init k (fun i -> buf.(k - 1 - i))

(* A transfer-cache batch in buffer order, with where it came from. *)
let tc_remove tc ~cls ~n ~domain ~now =
  let buf = Array.make n 0 and stats = Transfer_cache.make_remove_stats () in
  Transfer_cache.remove_into tc ~cls ~n ~domain ~now ~buf ~stats;
  (List.init stats.Transfer_cache.rs_count (fun i -> buf.(i)), stats)

let tc_insert tc ~cls ~addrs ~domain ~now =
  let buf = Array.of_list addrs in
  Transfer_cache.insert_from tc ~cls ~domain ~now ~buf ~lo:0 ~hi:(Array.length buf)
