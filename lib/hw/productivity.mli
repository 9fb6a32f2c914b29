(** Application productivity model (Sec. 2.2).

    The paper's headline metrics are *productivity* changes — application
    throughput (e.g. RPCs/s) and RAM usage — rather than malloc CPU time.
    This model converts the three hardware channels an allocator influences
    into cycles per instruction and throughput:

    - data locality: LLC load misses per kilo-instruction (MPKI), partially
      attributable to allocator placement (remote object reuse, Table 1);
    - TLB efficiency: fraction of cycles in dTLB page walks, a function of
      hugepage coverage (Table 2, Fig. 17);
    - allocator CPU: fraction of cycles spent inside malloc/free (Fig. 5a).

    [cpi = (base_cpi + mpki/1000 * llc_miss_penalty + walk_fraction *
    Tlb_model.walk_cycle_penalty / avg_walks... ] — concretely, walks are
    modelled as a multiplicative stall fraction: total cycles =
    compute_cycles / (1 - walk_fraction). *)

type params = {
  base_cpi : float;
      (** CPI with a perfect dTLB and the baseline allocator placement. *)
  llc_mpki : float;  (** Baseline LLC load MPKI (Table 1 "Before"). *)
  llc_miss_penalty : float;  (** Stall cycles per LLC load miss. *)
  alloc_locality_share : float;
      (** Fraction of LLC misses attributable to allocator placement, i.e.
          the slice NUCA-aware transfer caches can act on. *)
  dtlb_walk_fraction : float;
      (** Fraction of cycles in dTLB walks at {!Tlb_model.reference_coverage}
          (Table 2 "Before"). *)
  instructions_per_request : float;
      (** Retired instructions per unit of application work (one RPC, one
          query, one image...). *)
  malloc_cycle_fraction : float;  (** Fig. 5a share of cycles in malloc. *)
}

val mpki_with_locality : params -> remote_fraction:float -> baseline_remote_fraction:float -> float
(** LLC MPKI when the fraction of allocations reusing objects freed on a
    remote LLC domain changes from [baseline_remote_fraction] to
    [remote_fraction].  The allocator-attributable component scales linearly
    with the remote fraction; the rest of the MPKI is unaffected. *)

val cpi : params -> mpki:float -> walk_fraction:float -> float
(** Effective cycles per instruction. *)

val baseline_cpi : params -> float
(** [cpi] at the baseline MPKI and walk fraction. *)

val throughput_per_core : Topology.t -> params -> mpki:float -> walk_fraction:float -> float
(** Requests per second per core. *)

val throughput_change_pct :
  Topology.t ->
  params ->
  mpki_before:float ->
  walk_before:float ->
  mpki_after:float ->
  walk_after:float ->
  float
(** Percent throughput change between two operating points. *)

val cpi_change_pct :
  params -> mpki_before:float -> walk_before:float -> mpki_after:float -> walk_after:float -> float
