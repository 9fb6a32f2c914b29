(* Reference replay for the differential tests in test_replay.ml: replay
   as it was before the compiled stream.  Every arm decodes its own copy
   of the event source and feeds the allocator event by event through a
   closure, keeping id -> address and id -> size in two [Int_table]s.
   [Wsc_trace.Replay] must return the same results, and raise the same
   errors, from every entry point. *)

open Wsc_substrate
module Backend = Wsc_backend.Backend
module Telemetry = Wsc_tcmalloc.Telemetry
module Event = Wsc_workload.Trace
module Reader = Wsc_trace.Reader
module Replay = Wsc_trace.Replay
module Salvage = Wsc_trace.Salvage

(* Addresses are non-negative, so -1 marks an unknown id. *)
let run_events ?(config = Wsc_tcmalloc.Config.baseline)
    ?(topology = Wsc_hw.Topology.default) iter =
  let clock = Clock.create () in
  let backend = Backend.create ~config ~topology ~clock () in
  let num_cpus = Wsc_hw.Topology.num_cpus topology in
  let addr_of_id = Int_table.create ~initial_capacity:4096 () in
  let size_of_id = Int_table.create ~initial_capacity:4096 () in
  let peak = ref 0 in
  let allocations = ref 0 and frees = ref 0 and retires = ref 0 in
  iter (fun ev ->
      match ev with
      | Event.Alloc { id; size; cpu } ->
        let addr = Backend.malloc backend ~cpu:(cpu mod num_cpus) ~size in
        Int_table.set addr_of_id id addr;
        Int_table.set size_of_id id size;
        incr allocations
      | Event.Free { id; cpu } ->
        let addr = Int_table.find addr_of_id id ~default:(-1) in
        if addr < 0 then invalid_arg "Wsc_trace.Replay: free of unknown id";
        let size = Int_table.find size_of_id id ~default:0 in
        Int_table.remove addr_of_id id;
        Int_table.remove size_of_id id;
        Backend.free backend ~cpu:(cpu mod num_cpus) addr ~size;
        incr frees
      | Event.Advance { dt_ns } ->
        Clock.advance clock dt_ns;
        let rss = Backend.resident_bytes backend in
        if rss > !peak then peak := rss
      | Event.Retire { cpu; flush } ->
        Backend.cpu_idle ~flush backend ~cpu:(cpu mod num_cpus);
        incr retires);
  {
    Replay.allocations = !allocations;
    frees = !frees;
    retires = !retires;
    peak_rss_bytes = !peak;
    final_stats = Backend.heap_stats backend;
    malloc_ns = Telemetry.total_malloc_ns (Backend.telemetry backend);
  }

let run_file ?config ?topology path =
  Reader.with_file path (fun reader ->
      run_events ?config ?topology (fun f -> Reader.iter reader f))

let run_salvage ?config ?topology path =
  let report = ref None in
  let res =
    run_events ?config ?topology (fun f -> report := Some (Salvage.scan ~on_event:f path))
  in
  (res, Option.get !report)

let run_preloaded ?config ?topology events =
  run_events ?config ?topology (fun f -> Array.iter f events)

let run_configs ?jobs ?topology ~configs path =
  Parallel.map_list ?jobs (fun (name, config) -> (name, run_file ~config ?topology path)) configs
