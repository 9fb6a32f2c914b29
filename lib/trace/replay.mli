(** Trace replay.

    Every entry point compiles its event source once, a window at a time,
    into a compact private stream in which a free names a dense handle
    instead of an object id, and runs each arm from that stream: arms do
    not decode the trace and keep no id table, only addresses and sizes in
    two int arrays indexed by handle.  Memory is the decoder's live set,
    one window of compiled stream (about 4 MiB, a constant) and the arm
    states, independent of trace length.  The arms of a fan-out persist
    across windows; a trace that compiles to one window (a 60 s spanner
    recording compiles to 1.8 MB) holds at most [jobs] arm states at once.

    Replaying one trace under several configurations isolates the
    allocator's contribution exactly — every arm sees the identical
    allocation stream (the paper's paired-experiment methodology, minus
    workload noise).  Every entry point returns what a replay of each arm
    straight from the events returns, and raises the same errors
    (test/test_replay.ml holds them against that reference,
    test/replay_reference.ml). *)

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
(** Replay one trace file under each named configuration: one decode,
    and each window's arms fanned across the {!Wsc_substrate.Parallel}
    domain pool.  Results preserve input order, so the output does not
    depend on [jobs] ([multi-config deterministic] in
    test/test_trace_stream.ml).  With several arms failing, the first
    arm's error is raised. *)

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
    for search loops — no file access, one compile (and zero
    {!Wsc_substrate.Dist} table builds) however many arms are fanned
    out.
    @raise Invalid_argument if the array frees an id that is not live. *)
