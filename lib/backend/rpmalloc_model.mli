(** rpmalloc-style allocator model (see the .ml header for the design and
    its deliberate simplifications).  Consumed via {!Backend}; the direct
    API exists for the unit tests. *)

type addr = int
type t

val small_max : int
val medium_max : int
val class_count : int
val class_of_size : int -> int
val class_size : int -> int

val create :
  ?config:Wsc_tcmalloc.Config.t ->
  topology:Wsc_hw.Topology.t ->
  clock:Wsc_substrate.Clock.t ->
  unit ->
  t

val malloc : t -> cpu:int -> size:int -> addr
val free : t -> cpu:int -> addr -> size:int -> unit
val release_memory : t -> target_bytes:int -> Wsc_tcmalloc.Malloc.reclaim_outcome
val cpu_idle : ?flush:bool -> t -> cpu:int -> unit

val heap_stats : t -> Wsc_tcmalloc.Malloc.heap_stats
val resident_bytes : t -> int
val live_fragmentation_ratio : t -> float
val hugepage_coverage : t -> float
val telemetry : t -> Wsc_tcmalloc.Telemetry.t
val vm : t -> Wsc_os.Vm.t
val vcpus : t -> Wsc_os.Vcpu.t
val config : t -> Wsc_tcmalloc.Config.t
val topology : t -> Wsc_hw.Topology.t
val clock : t -> Wsc_substrate.Clock.t
val audit : t -> Wsc_tcmalloc.Audit.report
