(** Core-to-core data transfer latency model (Fig. 11).

    On chiplet platforms, a cache line owned by a core in another LLC domain
    costs ~2.07x the intra-domain transfer latency to acquire (measured with
    Intel MLC in the paper).  Cross-socket transfers cost more still.  The
    transfer-cache telemetry uses this model to price object reuse across
    domains. *)

type locality =
  | Same_core  (** Data still resident in the requesting core's caches. *)
  | Intra_domain  (** Producer shares the LLC domain. *)
  | Inter_domain  (** Producer is on another LLC domain, same socket. *)
  | Inter_socket  (** Producer is on the other socket. *)

val classify : Topology.t -> src_cpu:int -> dst_cpu:int -> locality
(** Locality of moving data produced on [src_cpu] to [dst_cpu]. *)

val transfer_ns : locality -> float
(** Cache-to-cache transfer latency in ns.  Calibrated constants:
    [Same_core] 0, [Intra_domain] 40.0, [Inter_domain] 82.8 (2.07x),
    [Inter_socket] 135.0. *)

val intra_domain_ns : float
val inter_domain_ns : float
val inter_socket_ns : float
