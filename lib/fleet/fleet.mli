(** A simulated fleet (Sec. 2.2/2.3).

    Machines draw their platform from the generation mix (newer chiplet
    platforms dominate), and their co-located jobs from a Zipf-popular
    binary population: the first five binaries are the named production
    workloads with the highest malloc usage, the long tail is synthetic
    fleet-profile variants — which is what makes the top-50 binaries cover
    only ~50% of malloc cycles and ~65% of allocated memory (Fig. 3). *)

type t

val create :
  ?seed:int ->
  ?num_machines:int ->
  ?num_binaries:int ->
  ?jobs_per_machine:int ->
  ?zipf_s:float ->
  ?population:Wsc_workload.Profile.t array ->
  ?config:Wsc_tcmalloc.Config.t ->
  unit ->
  t
(** Defaults: 24 machines, 50 binaries, 2 jobs per machine, Zipf(0.9)
    binary popularity.  [population] overrides the default binary
    population (top-5 production workloads + synthetic tail) entirely;
    it must be ordered most-popular first and have >= 5 entries. *)

val run : ?jobs:int -> t -> duration_ns:float -> epoch_ns:float -> Machine.summary list
(** Run every machine for the given simulated duration and return their
    post-run summaries in machine order.  Machines advance on up to [jobs]
    domains (default {!Wsc_substrate.Parallel.default_jobs}); results —
    including the summary list — are identical for any job count because
    every machine owns all state it touches and the merge is index-ordered. *)

val machines : t -> Machine.t list

val jobs : t -> Machine.job list
(** All jobs across all machines. *)

val binary_population : t -> Wsc_workload.Profile.t array
(** The binaries jobs were drawn from, most popular first. *)

val default_population : int -> Wsc_workload.Profile.t array
(** The population {!create} builds without [?population]: the top-5 named
    production workloads followed by synthetic fleet-profile variants.
    Exposed so {!Campaign} draws from the same binary universe. *)

val platform_mix : float array
(** Categorical weights over {!Wsc_hw.Topology.generations} used when
    drawing machine platforms (newer generations dominate). *)

val checkpoint : t -> string
(** Serialize every machine plus the binary population into one blob.
    Each machine resumes as {!Machine.resume} does ([machine bit-identity]
    in test/test_persist.ml), and {!resume} + {!run} gives the same
    summaries at any [?jobs] level, machines being independent tasks
    ([restore jobs invariant] in test/test_fleet.ml).  Same-binary only —
    see {!Wsc_persist} for the durable container. *)

val resume : string -> t
(** Inverse of {!checkpoint}. *)
