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
    given seed — scenarios run on the simulated clock or a seeded RNG —
    so CI gates the committed [BENCH_arena.json] by exact match
    ({!check_committed}).  Wall-clock throughput is informational only. *)

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
  wall_s : float;  (** informational: host CPU seconds *)
  throughput_per_sec : float;  (** informational: events / wall_s *)
}

type report = { seed : int; cells : cell list }

val run_cell :
  kind:Wsc_tcmalloc.Config.backend_kind -> seed:int -> scenario -> cell

val run :
  ?backends:Wsc_tcmalloc.Config.backend_kind list -> ?seed:int -> unit -> report
(** Runs every scenario for each backend (default
    {!Wsc_tcmalloc.Config.all_backends}). *)

val to_json : report -> string
(** The [BENCH_arena.json] payload: one line per cell, deterministic
    fields first, then the informational wall-clock fields. *)

val check_committed : committed:string -> report -> string list
(** Compares a fresh report against the committed JSON text: each cell's
    deterministic field prefix must appear verbatim in [committed].
    Returns one message per mismatching cell (empty = gate passes). *)

val pp_table : Format.formatter -> report -> unit
