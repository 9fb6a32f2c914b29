(** Streaming trace replay.

    Feeds a trace into a fresh allocator event by event, never
    materializing the stream: memory use is the live-object id maps (two
    {!Wsc_substrate.Int_table}s, id -> address and id -> size, with no
    cell per object) plus one I/O block, so million-event traces replay in
    memory bounded by the live set.

    Replaying one trace under several configurations isolates the
    allocator's contribution exactly — every arm sees the identical
    allocation stream (the paper's paired-experiment methodology, minus
    workload noise). *)

type result = {
  allocations : int;
  frees : int;
  retires : int;
  peak_rss_bytes : int;
  final_stats : Wsc_tcmalloc.Malloc.heap_stats;
  malloc_ns : float;  (** Modeled allocator CPU time consumed. *)
}

val run :
  ?config:Wsc_tcmalloc.Config.t ->
  ?topology:Wsc_hw.Topology.t ->
  Reader.t ->
  result
(** Stream the reader into a fresh allocator.  Consumes the reader.
    Event cpus are folded onto the topology ([cpu mod num_cpus]), and
    [Retire] events re-issue the recorded {!Wsc_backend.Backend.cpu_idle}
    calls, so a recorded run replays to the allocator state of the
    original. *)

val run_file :
  ?config:Wsc_tcmalloc.Config.t ->
  ?topology:Wsc_hw.Topology.t ->
  string ->
  result

val run_salvage :
  ?config:Wsc_tcmalloc.Config.t ->
  ?topology:Wsc_hw.Topology.t ->
  string ->
  result * Salvage.report
(** Degraded-mode replay: feed the allocator from {!Salvage.scan} instead
    of the strict reader, so a damaged trace replays its surviving events
    and returns the quantified loss instead of raising {!Reader.Corrupt}.
    On a clean trace the result equals {!run_file}'s. *)

val run_configs :
  ?jobs:int ->
  ?topology:Wsc_hw.Topology.t ->
  configs:(string * Wsc_tcmalloc.Config.t) list ->
  string ->
  (string * result) list
(** Replay one trace file under each named configuration, fanned across
    the {!Wsc_substrate.Parallel} domain pool.  Each arm opens the file
    independently and results preserve input order, so the output does
    not depend on [jobs] ([multi-config deterministic] in
    test/test_trace_stream.ml). *)

val preload : string -> Wsc_workload.Trace.event array
(** Decode a trace file once into an immutable in-memory event array.
    Events are immutable records, safe to share read-only across domains.
    @raise Reader.Corrupt as {!run_file} would. *)

val run_preloaded :
  ?config:Wsc_tcmalloc.Config.t ->
  ?topology:Wsc_hw.Topology.t ->
  Wsc_workload.Trace.event array ->
  result
(** Replay a preloaded event array.  Returns what {!run_file} returns on
    the file the array was preloaded from ([multi-config deterministic] in
    test/test_trace_stream.ml). *)

val run_configs_preloaded :
  ?jobs:int ->
  ?topology:Wsc_hw.Topology.t ->
  configs:(string * Wsc_tcmalloc.Config.t) list ->
  Wsc_workload.Trace.event array ->
  (string * result) list
(** {!run_configs} over a preloaded array: the repeated-evaluation path
    for search loops — one decode (and zero {!Wsc_substrate.Dist} table
    builds) however many arms are fanned out. *)
