open Wsc_substrate
module Malloc = Wsc_tcmalloc.Malloc
module Backend = Wsc_backend.Backend
module Telemetry = Wsc_tcmalloc.Telemetry
module Event = Wsc_workload.Trace

type result = {
  allocations : int;
  frees : int;
  retires : int;
  peak_rss_bytes : int;
  final_stats : Malloc.heap_stats;
  malloc_ns : float;
}

(* Replay a recorded event stream against a fresh allocator, fed from a streaming
   reader: memory is the live-object id maps plus one block.  The maps are
   two [Int_table]s (id -> address, id -> size), so a live object costs no
   table cell; addresses are non-negative, so -1 marks an unknown id. *)
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
    allocations = !allocations;
    frees = !frees;
    retires = !retires;
    peak_rss_bytes = !peak;
    final_stats = Backend.heap_stats backend;
    malloc_ns = Telemetry.total_malloc_ns (Backend.telemetry backend);
  }

let run ?config ?topology reader =
  run_events ?config ?topology (fun f -> Reader.iter reader f)

let run_file ?config ?topology path =
  Reader.with_file path (fun reader -> run ?config ?topology reader)

(* Degraded-mode replay: feed the allocator from the salvage scanner
   instead of the strict reader, so a damaged trace replays its surviving
   events (salvage guarantees they are semantically valid) and the loss is
   returned alongside the result instead of raising. *)
let run_salvage ?config ?topology path =
  let report = ref None in
  let res =
    run_events ?config ?topology (fun f ->
        report := Some (Salvage.scan ~on_event:f path))
  in
  match !report with Some rep -> (res, rep) | None -> assert false

(* One replay per configuration, fanned over the domain pool.  Each arm
   opens its own reader, so the trace file is the only shared state and
   every arm sees the identical event stream; [Parallel.map_list]
   preserves order, so output is deterministic regardless of [jobs]. *)
let run_configs ?jobs ?topology ~configs path =
  Parallel.map_list ?jobs
    (fun (name, config) -> (name, run_file ~config ?topology path))
    configs

(* Preloaded replay: decode the trace once into an immutable event array
   and share it read-only across arms.  Events are immutable records, so
   cross-domain sharing is safe, and iteration order is the array order —
   identical to the streaming reader — so results match [run_file] bit for
   bit.  This is what a tune generation wants: a 50-candidate fan-out pays
   one decode (and zero Dist guide-table builds) instead of 50 decodes. *)
let preload path =
  let cap = ref 4096 in
  let buf = ref (Array.make !cap (Event.Advance { dt_ns = 0.0 })) in
  let len = ref 0 in
  Reader.with_file path (fun reader ->
      Reader.iter reader (fun ev ->
          if !len = !cap then begin
            cap := 2 * !cap;
            let grown = Array.make !cap (Event.Advance { dt_ns = 0.0 }) in
            Array.blit !buf 0 grown 0 !len;
            buf := grown
          end;
          !buf.(!len) <- ev;
          incr len));
  Array.sub !buf 0 !len

let run_preloaded ?config ?topology events =
  run_events ?config ?topology (fun f -> Array.iter f events)

let run_configs_preloaded ?jobs ?topology ~configs events =
  Parallel.map_list ?jobs
    (fun (name, config) -> (name, run_preloaded ~config ?topology events))
    configs
