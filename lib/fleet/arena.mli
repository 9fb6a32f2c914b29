(** Cross-allocator arena: every backend runs the same four scenarios and
    the results line up side by side.

    Scenarios per backend:
    - [Zoo] — a co-located machine running workload-zoo profiles (redis +
      bigtable) for a second of simulated time;
    - [Flood] — producer/consumer cross-CPU flood (every object allocated
      on one CPU, freed on another);
    - [Churn] — Fig. 7-leaning size-mix churn around a steady live heap;
    - [Pressure] — allocation against a hard {!Wsc_os.Vm} limit, counting
      OOMs and checking the heap survives intact.

    All counter and byte fields in a {!cell} are bit-deterministic for a
    given seed — scenarios run on the simulated clock or a seeded RNG.
    {!to_json} renders only those fields, and [arena_cells_match_committed]
    in test/test_tune.ml requires the rendering of all twelve cells at
    seed 42 to equal the committed [BENCH_arena.json] as one string.
    Wall-clock throughput is shown by {!pp_table} only. *)

type scenario = Zoo | Flood | Churn | Pressure

val scenario_name : scenario -> string

type cell = {
  cell_backend : Wsc_tcmalloc.Config.backend_kind;
  cell_scenario : scenario;
  allocs : int;  (** deterministic *)
  frees : int;  (** deterministic *)
  ooms : int;  (** deterministic *)
  peak_rss_bytes : int;  (** deterministic (sampled on a fixed op cadence) *)
  final_rss_bytes : int;  (** deterministic (after full free + release) *)
  frag_permille : int;
      (** deterministic: (external + internal fragmentation) ‰ of live
          requested bytes at the scenario's high-water probe *)
  survived : bool;
      (** audit clean, no crash, and (under Pressure) resident stayed
          within the hard limit *)
  throughput_per_sec : float;
      (** informational: events per host CPU second, not in {!to_json} *)
}

type report = { seed : int; cells : cell list }

val run :
  ?backends:Wsc_tcmalloc.Config.backend_kind list -> ?seed:int -> unit -> report
(** Runs every scenario for each backend (default
    {!Wsc_tcmalloc.Config.all_backends}). *)

val to_json : report -> string
(** The [BENCH_arena.json] payload: one line per cell, deterministic
    fields only, so two runs at one seed render the same bytes on any
    host. *)

val pp_table : Format.formatter -> report -> unit
